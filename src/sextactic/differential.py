"""Differential covariants of a plane projective curve.

Starting from the defining polynomial F this module builds the Hessian
determinant H, the adjugate of the Hessian matrix, the trace covariant of
the adjugate against the second-derivative matrix of H (with its two
one-sided gradient splittings), the adjugate quadratic form of the gradient
of H, the degree 12d-27 covariant cutting out the points of excess conic
contact, and the osculating conic at a rational point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .poly import XYZ, MPoly, TernaryForm, _point_str, conic, fills_triangles, projective_ints


class DifferentialError(ValueError):
    pass


class DegreeTooSmall(DifferentialError):
    pass


class HessianVanishes(DifferentialError):
    pass


class PointNotOnCurve(DifferentialError):
    pass


class SingularPoint(DifferentialError):
    pass


class InflectionPoint(DifferentialError):
    pass


class IrrationalPoint(DifferentialError):
    pass


VARIANTS = ("corrected", "cayley1865")

# ``hessian`` takes the dense chain for a form of at least _DENSE_MIN_TERMS
# terms that fills its triangle (``fills_triangles``).  The chain of a form
# of three terms keeps few terms in every form at any degree.  Measured on
# CPython 3.11, second_hessian time on the sparse chain over the dense one
# for random forms of n terms, four forms each: n = 3 gives 0.56 at d = 3,
# 0.77 at d = 4 and 0.39-0.50 at d = 5..7; n = 4 gives 0.93 at d = 3 and
# 1.40-1.77 at d = 4..7; forms that just fill a quarter of the triangle
# give 1.08 at d = 8 and 1.20 at d = 10.
_DENSE_MIN_TERMS = 4


class _Chain(NamedTuple):
    """The Hessian chain of F, as ``hessian`` computes it: f is F, and every
    other field is computed from f.  On the dense chain the forms are
    ``TernaryForm``s, on the sparse chain ``MPoly``s."""

    f: object
    d: int
    H: object
    hess_f: tuple
    hess_h: tuple
    adj_f: tuple
    grad_f: tuple
    grad_h: tuple


def _mpoly(p):
    """A form of either chain as an MPoly."""
    return p.mpoly() if isinstance(p, TernaryForm) else p


class HessianBundle:
    """F with its Hessian data: H = det(hess_f) and adj_f * hess_f = H * I.

    The symmetric matrices hess_f, hess_h and adj_f are 6-vectors of their
    entries (a, b, c, f, g, h) in ``CONIC_BASIS`` order; grad_f and grad_h
    are the first partials in x, y, z.  Every field reads as ``MPoly``
    forms.  ``chain`` keeps the forms as the chain computed them, and each
    field is converted from it on its first read, so a caller pays only for
    the fields it reads; the other entry points compute on ``chain``.
    """

    def __init__(self, F: MPoly, chain: _Chain):
        self.F = F
        self.d = chain.d
        self.chain = chain

    @cached_property
    def H(self) -> MPoly:
        return _mpoly(self.chain.H)

    @cached_property
    def hess_f(self) -> tuple:
        return self._read(self.chain.hess_f)

    @cached_property
    def hess_h(self) -> tuple:
        return self._read(self.chain.hess_h)

    @cached_property
    def adj_f(self) -> tuple:
        return self._read(self.chain.adj_f)

    @cached_property
    def grad_f(self) -> tuple:
        return self._read(self.chain.grad_f)

    @cached_property
    def grad_h(self) -> tuple:
        return self._read(self.chain.grad_h)

    def _read(self, forms):
        return tuple(map(_mpoly, forms))


@dataclass(frozen=True)
class CovariantSet:
    """Trace covariant, its two gradient splittings, and the gradient form.

    ``trace_grad_adj[v] + trace_grad_hess[v]`` equals the v-derivative of
    ``trace_product``; neither summand is a derivative on its own.
    """

    trace_product: MPoly
    trace_grad_adj: tuple
    trace_grad_hess: tuple
    gradient_form: MPoly


def _derivatives(P: MPoly):
    """(gradient, second partials as a 6-vector) of P."""
    px, py, pz = P.grad()
    return (px, py, pz), (
        px.partial("x"), py.partial("y"), pz.partial("z"),
        py.partial("z"), px.partial("z"), px.partial("y"),
    )


def _dot(pairs):
    """sum(c * a * b) over the (int c, a, b) of ``pairs``: one fused
    ``TernaryForm.dot`` on the dense chain, the plain sum of the products on
    ``MPoly`` forms and on numbers."""
    if isinstance(pairs[0][1], TernaryForm):
        return TernaryForm.dot(pairs)
    total = None
    for c, a, b in pairs:
        p = a * b if c == 1 else (c * a) * b
        total = p if total is None else total + p
    return total


def _adjugate(m):
    """Adjugate of a symmetric 3x3 matrix, both as 6-vectors."""
    a, b, c, f, g, h = m
    return (
        _dot(((1, b, c), (-1, f, f))), _dot(((1, a, c), (-1, g, g))),
        _dot(((1, a, b), (-1, h, h))), _dot(((1, h, g), (-1, a, f))),
        _dot(((1, h, f), (-1, b, g))), _dot(((1, f, g), (-1, h, c))),
    )


def hessian(F: MPoly) -> HessianBundle:
    """Hessian determinant and matrices of a form of degree >= 3.

    When F fills its triangle (``fills_triangles``), with at least
    _DENSE_MIN_TERMS terms, the chain runs on dense ``TernaryForm``s, each
    over its own denominator, where every sum of products is one
    ``TernaryForm.dot`` (``_dot``) and every other sum a list operation.
    Any other F keeps its ``MPoly`` terms, whose time and memory follow the
    stored terms: dense triangles of x^1000 + y^1000 + z^1000 would hold
    millions of zeros.
    """
    if F.variables != XYZ:
        raise DifferentialError(f"expected a polynomial in {XYZ}")
    d = F.homogeneous_degree()  # raises NotHomogeneous on mixed degrees
    if d is None or d < 3:
        got = "the zero polynomial" if d is None else f"degree {d}"
        raise DegreeTooSmall(f"need a form of degree >= 3, got {got}")
    dense = len(F.terms) >= _DENSE_MIN_TERMS and fills_triangles(len(F.terms), d)
    f = TernaryForm.of(F.terms, d) if dense else F
    grad_f, hess_f = _derivatives(f)
    adj_f = _adjugate(hess_f)
    # expand det(hess_f) along its first row; the cofactors are the first
    # column of the adjugate
    a, _, _, _, g, h = hess_f
    A, _, _, _, Gq, Hq = adj_f
    H = _dot(((1, a, A), (1, h, Hq), (1, g, Gq)))
    grad_h, hess_h = _derivatives(H)
    return HessianBundle(F, _Chain(f, d, H, hess_f, hess_h, adj_f, grad_f, grad_h))


def _paired_trace(adj6, hess6):
    a2, b2, c2, f2, g2, h2 = hess6
    A, B, C, Fq, Gq, Hq = adj6
    return _dot(((1, A, a2), (1, B, b2), (1, C, c2), (2, Fq, f2), (2, Gq, g2), (2, Hq, h2)))


def _quadratic_form(adj6, g):
    """g^T (adj6 g), adj6 a symmetric matrix as a 6-vector: nine products
    with the entries of g, then three.  Pairing adj6 with ``veronese(*g)``
    gives the same form from larger products: it multiplies the entries of
    g together first."""
    A, B, C, Fq, Gq, Hq = adj6
    g0, g1, g2 = g
    return _dot((
        (1, g0, _dot(((1, A, g0), (1, Hq, g1), (1, Gq, g2)))),
        (1, g1, _dot(((1, Hq, g0), (1, B, g1), (1, Fq, g2)))),
        (1, g2, _dot(((1, Gq, g0), (1, Fq, g1), (1, C, g2)))),
    ))


def covariants(bundle: HessianBundle) -> CovariantSet:
    """All first-order covariants entering the excess-contact determinants,
    computed on the bundle's chain."""
    c = bundle.chain
    cov = _covariants(c.adj_f, c.hess_h, c.grad_h)
    return CovariantSet(
        _mpoly(cov.trace_product),
        tuple(map(_mpoly, cov.trace_grad_adj)),
        tuple(map(_mpoly, cov.trace_grad_hess)),
        _mpoly(cov.gradient_form),
    )


def _covariants(adj_f, hess_h, grad_h) -> CovariantSet:
    """The covariants from the adjugate of hess_F and the partials of H.

    ``trace_grad_hess`` is built from its definition, sum adj_f * d_v(hess_H);
    ``trace_grad_adj`` is derived as ``d_v(trace) - trace_grad_hess[v]`` by
    the product rule, which saves the products of d_v(adj_f) with hess_H.
    """
    trace = _paired_trace(adj_f, hess_h)
    grad_hess = tuple(
        _paired_trace(adj_f, [p.partial(v) for p in hess_h]) for v in XYZ
    )
    grad_adj = tuple(trace.partial(v) - g for v, g in zip(XYZ, grad_hess))
    gradient_form = _quadratic_form(adj_f, grad_h)
    return CovariantSet(trace, grad_adj, grad_hess, gradient_form)


def second_hessian(F: MPoly, variant: str = "corrected") -> MPoly:
    """The covariant of degree 12d-27 meeting the curve in its points of
    excess conic contact (plus inflections and singular points).

    ``variant`` selects the coefficient of the last term: 20 for the
    corrected form, 40 for the classical 1865 one.  The exact integer output
    of the defining formula is returned, content included.
    """
    return _mpoly(second_hessian_form(F, variant))


def second_hessian_form(F: MPoly, variant: str = "corrected"):
    """``second_hessian`` as the Hessian chain computed it: a
    ``TernaryForm`` on the dense chain, an ``MPoly`` on the sparse one.
    Both answer ``is_zero``, ``canonical_with_scale`` and ``str`` alike, so
    a caller that only normalises and prints needs no conversion."""
    if variant not in VARIANTS:
        raise DifferentialError(f"variant must be one of {VARIANTS}")
    kappa = 20 if variant == "corrected" else 40
    chain = hessian(F).chain
    if chain.H.is_zero():
        raise HessianVanishes(
            "the Hessian vanishes identically; no excess-contact covariant exists"
        )
    cov = _covariants(chain.adj_f, chain.hess_h, chain.grad_h)
    d = chain.d
    H = chain.H
    # The three Jacobians det(grad F, grad H, r) share their first two rows,
    # so each is (grad F x grad H) . r; combine the third rows first.
    fx, fy, fz = chain.grad_f
    hx, hy, hz = chain.grad_h
    cross = (
        _dot(((1, fy, hz), (-1, fz, hy))),
        _dot(((1, fz, hx), (-1, fx, hz))),
        _dot(((1, fx, hy), (-1, fy, hx))),
    )
    alpha = 12 * d * d - 54 * d + 57
    beta = (d - 2) * (12 * d - 27)
    gamma = kappa * (d - 2) * (d - 2)
    rows = zip(
        cov.trace_grad_adj, cov.trace_grad_hess, cov.gradient_form.grad()
    )
    combined = (H * (alpha * ta + beta * th) - gamma * g for ta, th, g in rows)
    return _dot([(1, c, r) for c, r in zip(cross, combined)])


def osculating_conic(F: MPoly, p) -> MPoly:
    """Canonical primitive conic with fifth-order contact at the smooth,
    non-inflection rational point p on V(F).

    The covariants enter only through their values at p, so the Hessian
    matrices are evaluated first: the trace covariant is the paired trace
    of adj_f(p) and hess_H(p), and the gradient form is grad H(p) paired
    with adj_f(p).  ``covariants`` is never built here, and no form is
    converted: the chain's forms are evaluated at the coprime integer
    coordinates of p (``projective_ints``), which gives integers when F has
    integer coefficients.  The conic is homogeneous in the point, so that
    scale and its sign go once the conic is made canonical.
    """
    try:
        point = tuple(Fraction(v) for v in p)
    except (TypeError, ValueError):
        raise IrrationalPoint(f"point coordinates must be rational: {p!r}") from None
    if len(point) != 3 or not any(point):
        raise DifferentialError(f"need a projective point, got {p!r}")
    chain = hessian(F).chain
    shown = _point_str(point)
    at = projective_ints(point)
    if chain.f.eval(at) != 0:
        raise PointNotOnCurve(f"F does not vanish at {shown}")
    grads = [g.eval(at) for g in chain.grad_f]
    if not any(grads):
        raise SingularPoint(f"the curve is singular at {shown}")
    h_at = chain.H.eval(at)
    if h_at == 0:
        raise InflectionPoint(f"the Hessian vanishes at {shown}")
    adj6 = [q.eval(at) for q in chain.adj_f]
    hess6 = [q.eval(at) for q in chain.hess_h]
    dh = [g.eval(at) for g in chain.grad_h]
    n = -3 * _paired_trace(adj6, hess6) * h_at + 4 * _quadratic_form(adj6, dh)
    # conic = d2f - (dh * 2/(3H) + df * n/(9H^3)) * df, with d2f the Hessian
    # form at p and df, dh the tangent forms of F and H, here times 9H^3;
    # the product of two linear forms l and g has l_i g_i on the squares and
    # l_j g_k + l_k g_j on yz, xz, xy
    s = 9 * h_at**3
    l0, l1, l2 = (6 * h_at * h_at * hv + n * fv for hv, fv in zip(dh, grads))
    g0, g1, g2 = grads
    a, b, c, f, g, h = (s * q.eval(at) for q in chain.hess_f)
    return conic((
        a - l0 * g0, b - l1 * g1, c - l2 * g2,
        2 * f - l1 * g2 - l2 * g1, 2 * g - l0 * g2 - l2 * g0, 2 * h - l0 * g1 - l1 * g0,
    )).canonical()
