"""Textbook routines the tests use as independent references.

The library takes every determinant by Laplace expansion and never
multiplies two polynomial matrices; the matrix routines here take the other
road, so a cross-check against them does not share the code it checks.  The
library keeps a symmetric 3x3 matrix as the 6-vector of its entries in
``CONIC_BASIS`` order; ``sym3`` spreads one back into a full matrix.

The library computes the Hessian chain of a dense curve on dense
``TernaryForm``s; the ``*_reference`` functions compute the same formulas
on sparse ``MPoly`` forms, with rational coefficients and no scaling.
"""

from typing import NamedTuple

from sextactic.differential import (
    VARIANTS,
    CovariantSet,
    DegreeTooSmall,
    DifferentialError,
    HessianVanishes,
)
from sextactic.poly import (
    CONIC_BASIS,
    XYZ,
    MPoly,
    NonSquareMatrix,
    PolyError,
    PolyMatrix,
    exact_div,
    veronese,
)


def sym3(six) -> PolyMatrix:
    """The symmetric matrix whose (i, j) entry is the entry of ``six`` on the
    conic monomial x_i * x_j."""
    index = {expo: k for k, expo in enumerate(CONIC_BASIS)}
    return PolyMatrix(
        [
            [six[index[tuple((i == k) + (j == k) for k in range(3))]] for j in range(3)]
            for i in range(3)
        ]
    )


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The matrix product a * b."""
    if a.cols != b.rows:
        raise PolyError("dimension mismatch in matrix product")
    zero = MPoly.zero(a.variables)
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return PolyMatrix(out)


def det_bareiss(m: PolyMatrix) -> MPoly:
    """Determinant by fraction-free Gaussian elimination (Bareiss 1968);
    every interior division is exact."""
    if m.rows != m.cols:
        raise NonSquareMatrix(f"{m.rows}x{m.cols} matrix")
    n = m.rows
    a = [row[:] for row in m.entries]
    zero = MPoly.zero(m.variables)
    sign = 1
    prev = None
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = exact_div(num, prev) if prev is not None else num
            a[i][k] = zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign > 0 else -d


class ReferenceBundle(NamedTuple):
    """The fields of ``HessianBundle``, in the order ``bundle_fields`` reads
    them."""

    F: MPoly
    d: int
    H: MPoly
    hess_f: tuple
    hess_h: tuple
    adj_f: tuple
    grad_f: tuple
    grad_h: tuple


def bundle_fields(bundle) -> ReferenceBundle:
    """A ``HessianBundle``'s fields, each read as the library converts it."""
    return ReferenceBundle(*(getattr(bundle, name) for name in ReferenceBundle._fields))


def gradient_form_bordered(bundle) -> MPoly:
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


def _derivatives(P: MPoly):
    px, py, pz = P.grad()
    return (px, py, pz), (
        px.partial("x"), py.partial("y"), pz.partial("z"),
        py.partial("z"), px.partial("z"), px.partial("y"),
    )


def _paired_trace(adj6, hess6):
    a2, b2, c2, f2, g2, h2 = hess6
    A, B, C, Fq, Gq, Hq = adj6
    return A * a2 + B * b2 + C * c2 + 2 * (Fq * f2 + Gq * g2 + Hq * h2)


def hessian_reference(F: MPoly) -> ReferenceBundle:
    """``hessian`` on MPoly forms: H expanded along the first row of hess_f."""
    if F.variables != XYZ:
        raise DifferentialError(f"expected a polynomial in {XYZ}")
    d = F.homogeneous_degree()
    if d is None or d < 3:
        raise DegreeTooSmall(f"need a form of degree >= 3, got degree {d}")
    grad_f, hess_f = _derivatives(F)
    a, b, c, f, g, h = hess_f
    adj_f = (
        b * c - f * f, a * c - g * g, a * b - h * h,
        h * g - a * f, h * f - b * g, f * g - h * c,
    )
    H = a * adj_f[0] + h * adj_f[5] + g * adj_f[4]
    grad_h, hess_h = _derivatives(H)
    return ReferenceBundle(F, d, H, hess_f, hess_h, adj_f, grad_f, grad_h)


def covariants_reference(bundle: ReferenceBundle) -> CovariantSet:
    """``covariants`` on MPoly forms, each split summand from its definition."""
    adj_f = bundle.adj_f
    trace = _paired_trace(adj_f, bundle.hess_h)
    grad_hess = tuple(
        _paired_trace(adj_f, [p.partial(v) for p in bundle.hess_h]) for v in XYZ
    )
    grad_adj = tuple(
        _paired_trace([p.partial(v) for p in adj_f], bundle.hess_h) for v in XYZ
    )
    gradient_form = _paired_trace(adj_f, veronese(*bundle.grad_h))
    return CovariantSet(trace, grad_adj, grad_hess, gradient_form)


def second_hessian_reference(F: MPoly, variant: str = "corrected") -> MPoly:
    """``second_hessian`` on MPoly forms, as the sum of three Jacobian
    determinants det(grad F, grad H, r)."""
    if variant not in VARIANTS:
        raise DifferentialError(f"variant must be one of {VARIANTS}")
    kappa = 20 if variant == "corrected" else 40
    bundle = hessian_reference(F)
    if bundle.H.is_zero():
        raise HessianVanishes("the Hessian vanishes identically")
    cov = covariants_reference(bundle)
    d = bundle.d
    jac_adj, jac_hess, jac_form = (
        PolyMatrix([bundle.grad_f, bundle.grad_h, r]).det()
        for r in (cov.trace_grad_adj, cov.trace_grad_hess, cov.gradient_form.grad())
    )
    return (
        (12 * d * d - 54 * d + 57) * bundle.H * jac_adj
        + (d - 2) * (12 * d - 27) * bundle.H * jac_hess
        - kappa * (d - 2) * (d - 2) * jac_form
    )
