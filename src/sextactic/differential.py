"""Differential covariants of a plane projective curve.

Starting from the defining polynomial F this module builds the Hessian
determinant H, the adjugate of the Hessian matrix, the trace covariant of
the adjugate against the second-derivative matrix of H (with its two
one-sided gradient splittings), the adjugate quadratic form of the gradient
of H, the degree 12d-27 covariant cutting out the points of excess conic
contact, its value at a point, and the osculating conic at a rational point.

One chain of formulas serves three rings: dense ``TernaryForm``s, sparse
``MPoly``s and ``TaylorJet``s, truncated Taylor expansions at a point.  The
values at a point come from the jet, so no form of degree above that of F
is built for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple

from .jet import TaylorJet
from .poly import (
    XYZ,
    MPoly,
    TernaryForm,
    _denominator,
    _point_str,
    _ratio,
    canonical_conic,
    fills_triangles,
    projective_ints,
)


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
    """The Hessian chain of F, as ``_chain`` computes it: f is F, and every
    other field is computed from f.  On the dense chain the forms are
    ``TernaryForm``s, on the sparse chain ``MPoly``s, and at a point
    ``TaylorJet``s."""

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
    """sum(c * a * b) over the (int c, a, b) of ``pairs``: one fused ``dot``
    on ``TernaryForm``s and on ``TaylorJet``s, the plain sum of the products
    on ``MPoly`` forms and on numbers."""
    kind = type(pairs[0][1])
    if kind is TernaryForm or kind is TaylorJet:
        return kind.dot(pairs)
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


def _degree(F: MPoly) -> int:
    """The degree d >= 3 of the form F in (x, y, z), else the error."""
    if F.variables != XYZ:
        raise DifferentialError(f"expected a polynomial in {XYZ}")
    d = F.homogeneous_degree()  # raises NotHomogeneous on mixed degrees
    if d is None or d < 3:
        got = "the zero polynomial" if d is None else f"degree {d}"
        raise DegreeTooSmall(f"need a form of degree >= 3, got {got}")
    return d


def _chain(f, d) -> _Chain:
    """The Hessian chain of f, of degree d: a ``TernaryForm``, an ``MPoly``
    or a ``TaylorJet``, all of which the chain only adds, multiplies and
    differentiates."""
    grad_f, hess_f = _derivatives(f)
    adj_f = _adjugate(hess_f)
    # expand det(hess_f) along its first row; the cofactors are the first
    # column of the adjugate
    a, _, _, _, g, h = hess_f
    A, _, _, _, Gq, Hq = adj_f
    H = _dot(((1, a, A), (1, h, Hq), (1, g, Gq)))
    grad_h, hess_h = _derivatives(H)
    return _Chain(f, d, H, hess_f, hess_h, adj_f, grad_f, grad_h)


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
    d = _degree(F)
    dense = len(F.terms) >= _DENSE_MIN_TERMS and fills_triangles(len(F.terms), d)
    f = TernaryForm.of(F.terms, d) if dense else F
    return HessianBundle(F, _chain(f, d))


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
    _check_variant(variant)
    chain = hessian(F).chain
    if chain.H.is_zero():
        raise _vanishing_hessian()
    return _second_hessian(chain, variant)


def second_hessian_at(F: MPoly, p, variant: str = "corrected"):
    """``second_hessian(F, variant)`` at the rational point p, an int or a
    Fraction, read off the Hessian chain of F's Taylor jet of order 5 at p:
    H2 takes fifth partials of F, and no form of degree above that of F is
    built.  It refuses the F that ``second_hessian`` refuses: when H
    vanishes at p, ``hessian`` decides whether it vanishes everywhere.

    The jet is taken of den * F at m * p, den and m the least common
    denominators of F's coefficients and of p, so it has integer entries;
    H2 has degree 12 in the coefficients of F and 12d - 27 in the point, so
    the value is divided by den^12 m^(12d - 27).
    """
    _check_variant(variant)
    point = _rational_point(p)
    d = _degree(F)
    den, terms = _integer_terms(F)
    m = lcm(*[v.denominator for v in point])
    chain = _chain(TaylorJet.of(terms, d, [v.numerator * (m // v.denominator) for v in point], 5), d)
    if not chain.H.value and hessian(F).chain.H.is_zero():
        raise _vanishing_hessian()
    return _ratio(_second_hessian(chain, variant).value, den**12 * m ** (12 * d - 27))


def _check_variant(variant):
    if variant not in VARIANTS:
        raise DifferentialError(f"variant must be one of {VARIANTS}")


def _vanishing_hessian():
    return HessianVanishes(
        "the Hessian vanishes identically; no excess-contact covariant exists"
    )


def _second_hessian(chain: _Chain, variant: str):
    """The 2-Hessian of the variant from the Hessian chain, on the chain's
    own ring: the combination of the three Jacobians below."""
    kappa = 20 if variant == "corrected" else 40
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


def _rational_point(p):
    """The coordinates of the projective point p as three rationals."""
    try:
        point = tuple(Fraction(v) for v in p)
    except (TypeError, ValueError):
        raise IrrationalPoint(f"point coordinates must be rational: {p!r}") from None
    if len(point) != 3 or not any(point):
        raise DifferentialError(f"need a projective point, got {p!r}")
    return point


def _integer_terms(F: MPoly):
    """(den, terms) with terms the term dict of den * F, den the least
    common denominator of F's coefficients."""
    den = _denominator(F.terms.values())
    if den == 1:
        return 1, F.terms
    return den, {e: c.numerator * (den // c.denominator) for e, c in F.terms.items()}


def osculating_conic(F: MPoly, p) -> MPoly:
    """Canonical primitive conic with fifth-order contact at the smooth,
    non-inflection rational point p on V(F).

    The conic needs the Hessian chain at p alone, up to the second partials
    of H, which are fourth partials of F: the chain runs on the Taylor jet of
    order 4 of den * F at the coprime integer coordinates of p
    (``projective_ints``), den the least common denominator of F's
    coefficients, and every value below is a jet's constant term, an
    integer.  The trace covariant at p is the paired trace of adj_f(p) and
    hess_H(p), and the gradient form grad H(p) paired with adj_f(p).  The
    conic is homogeneous in the point and in F's coefficients, so those
    scales and their signs go once it is made canonical.
    """
    point = _rational_point(p)
    d = _degree(F)
    shown = _point_str(point)
    chain = _chain(TaylorJet.of(_integer_terms(F)[1], d, projective_ints(point), 4), d)
    if chain.f.value != 0:
        raise PointNotOnCurve(f"F does not vanish at {shown}")
    grads = [g.value for g in chain.grad_f]
    if not any(grads):
        raise SingularPoint(f"the curve is singular at {shown}")
    h_at = chain.H.value
    if h_at == 0:
        raise InflectionPoint(f"the Hessian vanishes at {shown}")
    adj6 = [q.value for q in chain.adj_f]
    hess6 = [q.value for q in chain.hess_h]
    dh = [g.value for g in chain.grad_h]
    n = -3 * _paired_trace(adj6, hess6) * h_at + 4 * _quadratic_form(adj6, dh)
    # conic = d2f - (dh * 2/(3H) + df * n/(9H^3)) * df, with d2f the Hessian
    # form at p and df, dh the tangent forms of F and H, here times 9H^3;
    # the product of two linear forms l and g has l_i g_i on the squares and
    # l_j g_k + l_k g_j on yz, xz, xy
    s = 9 * h_at**3
    l0, l1, l2 = (6 * h_at * h_at * hv + n * fv for hv, fv in zip(dh, grads))
    g0, g1, g2 = grads
    a, b, c, f, g, h = (s * q.value for q in chain.hess_f)
    return canonical_conic((
        a - l0 * g0, b - l1 * g1, c - l2 * g2,
        2 * f - l1 * g2 - l2 * g1, 2 * g - l0 * g2 - l2 * g0, 2 * h - l0 * g1 - l1 * g0,
    ))
