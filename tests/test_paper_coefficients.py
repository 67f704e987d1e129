"""The paper's correction of Cayley's 2-Hessian, recovered from geometry.

H2 = (grad F x grad H) . (H (alpha grad tr_adj + beta grad tr_hess)
- kappa (d - 2)^2 grad g) is linear in (alpha, beta, kappa), so every
sextactic point gives one linear equation in them, from three values of
the Hessian chain at the point.  The points come from planted curves: F is
dense, and its coefficients are changed so that the conic x^2 - yz meets
V(F) at (0:0:1) to order at least 6.  The kernel of the equations is then
computed, with no use of the library's constants.
"""

import random
from fractions import Fraction

import pytest

from sextactic.differential import (
    _chain,
    _covariants,
    covariants,
    hessian,
    second_hessian_at,
)
from sextactic.jet import TaylorJet
from sextactic.poly import XYZ, MPoly, exact_div
from sextactic.series import TruncSeries

P = (0, 0, 1)
POINTS_PER_DEGREE = 6
TRUNC = 16


def _dense(rng, d):
    """randint(-5, 5) for each (i, j, d - i - j), i outer, j inner."""
    return {(i, j, d - i - j): rng.randint(-5, 5) for i in range(d + 1) for j in range(d + 1 - i)}


def _plant(terms, d, c):
    """Zero the coefficients of s^k t^(2d - k), k < c, in F(st, s^2, t^2),
    each through the monomial x^(k mod 2) y^(k // 2) z^(d - k mod 2 - k // 2)."""
    for k in range(c):
        got = sum(v for (i, j, _), v in terms.items() if i + 2 * j == k)
        e = (k % 2, k // 2, d - k % 2 - k // 2)
        terms[e] -= got
    return terms


def _contact(terms):
    """The order of x^2 - yz along V(F) at (0:0:1): the branch x = t, y =
    y(t), z = 1 from y <- y - F(t, y, 1) / F_y(0, 0, 1), then the valuation
    of t^2 - y(t)."""
    fy = terms[(0, 1, max(sum(e) for e in terms) - 1)]
    y = TruncSeries({}, TRUNC)
    for _ in range(TRUNC):
        powers = [TruncSeries({0: 1}, TRUNC)]
        for _ in range(max(j for _, j, _ in terms)):
            powers.append(powers[-1] * y)
        value = TruncSeries({}, TRUNC)
        for (i, j, _), v in terms.items():
            value = value + TruncSeries({i: v}, TRUNC) * powers[j]
        y = y - value * Fraction(1, fy)
    return (TruncSeries({2: 1}, TRUNC) - y).valuation()


def _row(terms, d, point=P):
    """(t_adj, t_hess, t_g) at the point: H2 there is alpha t_adj +
    beta t_hess + kappa t_g."""
    chain = _chain(TaylorJet.of(terms, d, point, 5), d)
    cov = _covariants(chain.adj_f, chain.hess_h, chain.grad_h)
    f = [g.value for g in chain.grad_f]
    h = [g.value for g in chain.grad_h]
    cross = (f[1] * h[2] - f[2] * h[1], f[2] * h[0] - f[0] * h[2], f[0] * h[1] - f[1] * h[0])
    H = chain.H.value

    def dot(jets):
        return sum(c * j.value for c, j in zip(cross, jets))

    return (
        H * dot(cov.trace_grad_adj),
        H * dot(cov.trace_grad_hess),
        -((d - 2) ** 2) * dot(cov.gradient_form.grad()),
    )


def _planted_points():
    """{d: [(terms, planted c, contact)]}: per d = 4..8 in order, from one
    Random(5) stream, planted c = 6 + randint(0, 1) and then a dense F,
    kept when F_y(0:0:1) != 0, H(0:0:1) != 0 and the contact is at least 6,
    until six are kept."""
    rng = random.Random(5)
    out = {}
    for d in range(4, 9):
        kept = out[d] = []
        while len(kept) < POINTS_PER_DEGREE:
            c = 6 + rng.randint(0, 1)
            terms = _plant(_dense(rng, d), d, c)
            if not terms[(0, 1, d - 1)]:
                continue
            if not _chain(TaylorJet.of(terms, d, P, 5), d).H.value:
                continue
            contact = _contact(terms)
            if contact >= 6:
                kept.append((terms, c, contact))
    return out


PLANTED = _planted_points()


def _rref(rows):
    """Reduced row echelon form of rational rows, zero rows dropped."""
    rows = [[Fraction(v) for v in r] for r in rows]
    out, col = [], 0
    while rows and col < len(rows[0]):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            col += 1
            continue
        rows.remove(pivot)
        pivot = [v / pivot[col] for v in pivot]
        rows = [[a - r[col] * b for a, b in zip(r, pivot)] for r in rows]
        out = [[a - r[col] * b for a, b in zip(r, pivot)] for r in out] + [pivot]
        col += 1
    return out


def _kernel(rows):
    """A basis of the kernel of the rows, one vector per free column, read
    off the reduced echelon form."""
    rref = _rref(rows)
    n = len(rows[0])
    pivots = [next(i for i, v in enumerate(r) if v) for r in rref]
    basis = []
    for free in (i for i in range(n) if i not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, p in zip(rref, pivots):
            v[p] = -r[free]
        basis.append(tuple(v))
    return rref, basis


def _in_span(vector, rows):
    return all(sum(a * b for a, b in zip(r, vector)) == 0 for r in rows)


def _image(terms, a):
    """(terms of F o A, the point A^-1 (0:0:1) as integers): A^-1 (0, 0, 1)
    up to a scalar is the third column of adj A."""
    x, y, z = (MPoly.variable(XYZ, v) for v in XYZ)
    forms = [r[0] * x + r[1] * y + r[2] * z for r in a]
    moved = MPoly(XYZ, terms).compose(forms)
    adj_col = (
        a[0][1] * a[1][2] - a[0][2] * a[1][1],
        a[0][2] * a[1][0] - a[0][0] * a[1][2],
        a[0][0] * a[1][1] - a[0][1] * a[1][0],
    )
    return moved.terms, adj_col


def test_planted_points_are_sextactic():
    for d, points in PLANTED.items():
        assert len(points) == POINTS_PER_DEGREE
        for terms, c, contact in points:
            assert contact >= 6
            # the library's corrected 2-Hessian vanishes there
            assert second_hessian_at(MPoly(XYZ, terms), P) == 0


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_the_kernel_is_the_papers_triple(d):
    rows = [_row(terms, d) for terms, _, _ in PLANTED[d]]
    rref, basis = _kernel(rows)
    assert len(rref) == 2
    (kernel,) = basis
    want = (12 * d * d - 54 * d + 57, (d - 2) * (12 * d - 27), 20)
    assert tuple(v * 20 / kernel[2] for v in kernel) == want


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_the_kernel_is_the_same_at_projective_images(d):
    # one invertible integer matrix per point, from one stream
    rng = random.Random(d)
    rows = []
    for terms, _, _ in PLANTED[d]:
        while True:
            a = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            det = sum(
                a[0][i] * (a[1][(i + 1) % 3] * a[2][(i + 2) % 3] - a[1][(i + 2) % 3] * a[2][(i + 1) % 3])
                for i in range(3)
            )
            if det:
                break
        moved, point = _image(terms, a)
        rows.append(_row(moved, d, point))
    assert _kernel(rows) == _kernel([_row(terms, d) for terms, _, _ in PLANTED[d]])


def test_degree_four_fixes_only_alpha_plus_beta():
    # at d = 4 the first two terms agree at every point of V(F), so the
    # points fix only (alpha + beta : kappa) = (15 : 4)
    rows = [_row(terms, 4) for terms, _, _ in PLANTED[4]]
    assert all(r[0] == r[1] for r in rows)
    rref, basis = _kernel(rows)
    assert rref == [[1, 1, Fraction(-15, 4)]]
    assert basis == [(-1, 1, 0), (Fraction(15, 4), 0, 1)]
    # the paper's coefficients lie in the kernel, Cayley's do not
    assert _in_span((33, 42, 20), rows)
    assert not _in_span((33, 42, 40), rows)


def test_degree_four_identity_holds_on_the_curve():
    # F divides (grad F x grad H) . H (grad tr_adj - grad tr_hess) on
    # dense quartics: the planted ones and two drawn as they come
    rng = random.Random(4)
    curves = [terms for terms, _, _ in PLANTED[4]] + [_dense(rng, 4) for _ in range(2)]
    for terms in curves:
        F = MPoly(XYZ, terms)
        bundle = hessian(F)
        cov = covariants(bundle)
        (fx, fy, fz), (hx, hy, hz) = bundle.grad_f, bundle.grad_h
        cross = (fy * hz - fz * hy, fz * hx - fx * hz, fx * hy - fy * hx)
        form = sum(
            (c * (a - b) for c, a, b in zip(cross, cov.trace_grad_adj, cov.trace_grad_hess)),
            MPoly.zero(XYZ),
        ) * bundle.H
        assert not form.is_zero()
        exact_div(form, F)
