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

from .poly import XYZ, MPoly, PolyMatrix, conic, veronese


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


@dataclass(frozen=True)
class HessianBundle:
    """F with its Hessian data: H = det(hess_f) and adj_f * hess_f = H * I.

    The symmetric matrices hess_f, hess_h and adj_f are 6-vectors of their
    entries (a, b, c, f, g, h) in ``CONIC_BASIS`` order; grad_f and grad_h
    are the first partials in x, y, z.
    """

    F: MPoly
    d: int
    H: MPoly
    hess_f: tuple
    hess_h: tuple
    adj_f: tuple
    grad_f: tuple
    grad_h: tuple


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


def _adjugate(m):
    """Adjugate of a symmetric 3x3 matrix, both as 6-vectors."""
    a, b, c, f, g, h = m
    return (
        b * c - f * f, a * c - g * g, a * b - h * h,
        h * g - a * f, h * f - b * g, f * g - h * c,
    )


def hessian(F: MPoly) -> HessianBundle:
    """Hessian determinant and matrices of a form of degree >= 3."""
    if F.variables != XYZ:
        raise DifferentialError(f"expected a polynomial in {XYZ}")
    d = F.homogeneous_degree()  # raises NotHomogeneous on mixed degrees
    if d is None or d < 3:
        raise DegreeTooSmall(f"need a form of degree >= 3, got degree {d}")
    grad_f, hess_f = _derivatives(F)
    adj_f = _adjugate(hess_f)
    # expand det(hess_f) along its first row; the cofactors are the first
    # column of the adjugate
    a, _, _, _, g, h = hess_f
    A, _, _, _, Gq, Hq = adj_f
    H = a * A + h * Hq + g * Gq
    grad_h, hess_h = _derivatives(H)
    return HessianBundle(F, d, H, hess_f, hess_h, adj_f, grad_f, grad_h)


def _paired_trace(adj6, hess6):
    a2, b2, c2, f2, g2, h2 = hess6
    A, B, C, Fq, Gq, Hq = adj6
    return (
        A * a2 + B * b2 + C * c2 + 2 * (Fq * f2 + Gq * g2 + Hq * h2)
    )


def covariants(bundle: HessianBundle) -> CovariantSet:
    """All first-order covariants entering the excess-contact determinants.

    ``trace_grad_hess`` is built from its definition, sum adj_f * d_v(hess_H);
    ``trace_grad_adj`` is derived as ``d_v(trace) - trace_grad_hess[v]`` by
    the product rule, which saves the products of d_v(adj_f) with hess_H.
    """
    adj_f = bundle.adj_f
    trace = _paired_trace(adj_f, bundle.hess_h)
    grad_hess = tuple(
        _paired_trace(adj_f, [p.partial(v) for p in bundle.hess_h]) for v in XYZ
    )
    grad_adj = tuple(trace.partial(v) - g for v, g in zip(XYZ, grad_hess))
    gradient_form = _paired_trace(adj_f, veronese(*bundle.grad_h))
    return CovariantSet(trace, grad_adj, grad_hess, gradient_form)


def gradient_form_bordered(bundle: HessianBundle) -> MPoly:
    """The gradient form as minus the bordered 4x4 determinant (cross-check)."""
    hx, hy, hz = bundle.grad_h
    zero = MPoly.zero(XYZ)
    a, b, c, f, g, h = bundle.hess_f
    m = PolyMatrix(
        [
            [zero, hx, hy, hz],
            [hx, a, h, g],
            [hy, h, b, f],
            [hz, g, f, c],
        ]
    )
    return -m.det()


def second_hessian(F: MPoly, variant: str = "corrected") -> MPoly:
    """The covariant of degree 12d-27 meeting the curve in its points of
    excess conic contact (plus inflections and singular points).

    ``variant`` selects the coefficient of the last term: 20 for the
    corrected form, 40 for the classical 1865 one.  The exact integer output
    of the defining formula is returned, content included.
    """
    if variant not in VARIANTS:
        raise DifferentialError(f"variant must be one of {VARIANTS}")
    kappa = 20 if variant == "corrected" else 40
    bundle = hessian(F)
    if bundle.H.is_zero():
        raise HessianVanishes(
            "the Hessian vanishes identically; no excess-contact covariant exists"
        )
    cov = covariants(bundle)
    d = bundle.d
    H = bundle.H
    # The three Jacobians det(grad F, grad H, r) share their first two rows,
    # so each is (grad F x grad H) . r; combine the third rows first.
    fx, fy, fz = bundle.grad_f
    hx, hy, hz = bundle.grad_h
    cross = (fy * hz - fz * hy, fz * hx - fx * hz, fx * hy - fy * hx)
    alpha = 12 * d * d - 54 * d + 57
    beta = (d - 2) * (12 * d - 27)
    gamma = kappa * (d - 2) * (d - 2)
    rows = zip(
        cov.trace_grad_adj, cov.trace_grad_hess, cov.gradient_form.grad()
    )
    combined = (H * (alpha * ta + beta * th) - gamma * g for ta, th, g in rows)
    return sum((c * r for c, r in zip(cross, combined)), MPoly.zero(XYZ))


def osculating_conic(F: MPoly, p) -> MPoly:
    """Canonical primitive conic with fifth-order contact at the smooth,
    non-inflection rational point p on V(F).

    The covariants enter only through their values at p, so the Hessian
    matrices are evaluated first: the trace covariant is the paired trace
    of adj_f(p) and hess_H(p), and the gradient form is grad H(p) paired
    with adj_f(p).  ``covariants`` is never built here.
    """
    try:
        point = tuple(Fraction(v) for v in p)
    except (TypeError, ValueError):
        raise IrrationalPoint(f"point coordinates must be rational: {p!r}") from None
    if len(point) != 3 or not any(point):
        raise DifferentialError(f"need a projective point, got {p!r}")
    bundle = hessian(F)
    shown = "(" + " : ".join(map(str, point)) + ")"
    if F.eval(point) != 0:
        raise PointNotOnCurve(f"F does not vanish at {shown}")
    grads = [g.eval(point) for g in bundle.grad_f]
    if not any(grads):
        raise SingularPoint(f"the curve is singular at {shown}")
    h_at = bundle.H.eval(point)
    if h_at == 0:
        raise InflectionPoint(f"the Hessian vanishes at {shown}")
    adj6 = [q.eval(point) for q in bundle.adj_f]
    hess6 = [q.eval(point) for q in bundle.hess_h]
    dh = [g.eval(point) for g in bundle.grad_h]
    lam = Fraction(
        -3 * _paired_trace(adj6, hess6) * h_at + 4 * _paired_trace(adj6, veronese(*dh)),
        9 * Fraction(h_at) ** 3,
    )
    # conic = d2f - (dh * 2/(3H) + df * lam) * df, with d2f the Hessian form
    # at p and df, dh the tangent forms of F and H; the product of two linear
    # forms l and g has l_i g_i on the squares and l_j g_k + l_k g_j on yz, xz, xy
    k = Fraction(2, 3 * h_at)
    l0, l1, l2 = (k * hv + lam * fv for hv, fv in zip(dh, grads))
    g0, g1, g2 = grads
    a, b, c, f, g, h = (q.eval(point) for q in bundle.hess_f)
    return conic((
        a - l0 * g0, b - l1 * g1, c - l2 * g2,
        2 * f - l1 * g2 - l2 * g1, 2 * g - l0 * g2 - l2 * g0, 2 * h - l0 * g1 - l1 * g0,
    )).canonical()
