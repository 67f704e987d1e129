"""Rational-curve machinery: Veronese products, conic families, Wronskians.

A rational plane curve is carried by a triple of coprime binary forms of
equal degree.  Squaring up the triple to the six degree-2 monomial products
turns conics into hyperplane sections; the determinants built from the
fourth and fifth order partials of those products then locate, parameter by
parameter, the osculating conic and the points of excess conic contact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .branch import BranchParam
from .poly import (
    ST,
    MPoly,
    VariableSetMismatch,
    binaryform_gcd,
    conic,
    digit_width,
    form_at,
    laplace_minors,
    linear_factor_orders,
    primitive_ints,
    projective_ints,
    read_form,
    split_linear_factors,
    squarefree_decomp,
    veronese,
)
from .series import TruncSeries


class RationalError(ValueError):
    pass


class CommonFactorError(RationalError):
    def __init__(self, factor: MPoly):
        self.factor = factor
        super().__init__(f"components share the nontrivial factor {factor}")


class DegenerateParam(RationalError):
    pass


class ZeroPullback(RationalError):
    pass


class RationalParam:
    """Coprime triple of equal-degree binary forms (phi0 : phi1 : phi2)."""

    __slots__ = ("phi", "degree")

    def __init__(self, phi0: MPoly, phi1: MPoly, phi2: MPoly):
        phi = (phi0, phi1, phi2)
        for p in phi:
            if p.variables != ST:
                raise RationalError(f"components must be forms in {ST}")
        degs = {p.homogeneous_degree() for p in phi}  # raises if inhomogeneous
        degs.discard(None)
        if not degs:
            raise RationalError("all three components are zero")
        if len(degs) != 1:
            raise RationalError(f"components have unequal degrees {sorted(degs)}")
        nonzero = [p for p in phi if not p.is_zero()]
        g = nonzero[0]
        for p in nonzero[1:]:
            g = binaryform_gcd(g, p)
            if g.degree() == 0:
                break  # the gcd with the rest is a constant too
        if g.degree() > 0:
            raise CommonFactorError(g)
        # strip the common positive rational content of the whole triple;
        # zip stops at the end of each form's terms, so each takes its own ints
        ints = iter(primitive_ints([c for p in phi for c in p.terms.values()])[0])
        self.phi = tuple(MPoly._make(ST, dict(zip(p.terms, ints))) for p in phi)
        self.degree = degs.pop()

    def veronese(self):
        """The six degree-2 products, in ``CONIC_BASIS`` order."""
        return veronese(*self.phi)

    def eval_point(self, at):
        """Primitive integer coordinates of the curve point at (s0 : t0)."""
        s0, t0 = Fraction(at[0]), Fraction(at[1])
        vals = [p.eval((s0, t0)) for p in self.phi]
        if not any(vals):
            raise RationalError(f"parametrization vanishes at ({s0} : {t0})")
        return projective_ints(vals)

    def __repr__(self):
        return f"RationalParam({self.phi[0]} : {self.phi[1]} : {self.phi[2]})"


def _derivative_rows(forms, order: int):
    """Rows r = 0..order of the mixed partials d^order / ds^(order-r) dt^r."""
    rows = []
    current = list(forms)
    for _ in range(order):
        current = [f.partial("s") for f in current]
    rows.append(current)
    prev = list(forms)
    for r in range(1, order + 1):
        prev = [f.partial("t") for f in prev]
        current = list(prev)
        for _ in range(order - r):
            current = [f.partial("s") for f in current]
        rows.append(current)
    return rows


def _l1(f: MPoly):
    return sum(map(abs, f.terms.values()))


def _evaluated_rows(rows):
    """(w, rows at (s, t) = (2^(8w), 1)) for k rows of integer binary forms.

    A k x k minor of the rows is a sum of k! products of one entry per row,
    so every coefficient of one is at most k! times the product over the rows
    of the largest l1-norm of an entry; w makes that bound, and every entry's
    coefficients, fit a signed digit, so such a minor over the integers reads
    back with ``read_form``.
    """
    norms = [max(map(_l1, row)) for row in rows]
    bound = 1
    for k, n in enumerate(norms, 1):
        bound *= k * n
    w = digit_width(max(bound, *norms))
    return w, [[form_at(f, w) for f in row] for row in rows]


def osculating_conic_family(param: RationalParam, at=None):
    """The osculating conic along the curve, as binary-form coefficients.

    Its six coefficients are the signed 5x5 minors of the fourth-order
    partials of the Veronese products.  Without ``at``, the result is those
    six minors, forms of degree 10d-20 in (s, t), in ``CONIC_BASIS`` order.
    With ``at``, the partials are evaluated first (evaluation commutes with
    the determinant) and the minors are taken over the rationals; the conic is
    returned in canonical primitive form.  Only when that conic is zero are
    the symbolic minors built, to tell an identically zero family from one
    that vanishes at the parameter.
    """
    if param.degree < 3:
        raise RationalError(f"need degree >= 3, got {param.degree}")
    rows = _derivative_rows(param.veronese(), 4)
    if at is not None:
        s0, t0 = Fraction(at[0]), Fraction(at[1])
        values = [[f.eval((s0, t0)) for f in row] for row in rows]
        osc = conic(laplace_minors(values))
        if not osc.is_zero():
            return osc.canonical()
    w, ints = _evaluated_rows(rows)
    degree = 10 * param.degree - 20
    minors = tuple(read_form(m, w, degree) for m in laplace_minors(ints))
    if not any(minors):
        raise DegenerateParam("conic family is identically zero")
    if at is not None:
        raise DegenerateParam(f"conic family vanishes at ({s0} : {t0})")
    return minors


@dataclass(frozen=True)
class ZeroClass:
    """A Galois-stable packet of zeros of the conic Wronskian.

    ``factor`` is squarefree and primitive; each of its ``points`` roots is a
    zero of the Wronskian of order ``multiplicity``.  ``parameter`` is set
    for linear factors only.
    """

    factor: MPoly
    multiplicity: int
    points: int
    parameter: "tuple | None"
    irreducible: "bool | None"


@dataclass(frozen=True)
class WeierstrassScan:
    xi: MPoly
    content: Fraction
    classes: tuple
    total: int


def conic_wronskian(param: RationalParam) -> WeierstrassScan:
    """Wronskian of the Veronese products and its zero structure.

    The determinant of the fifth-order partials is a binary form of degree
    6(2d - 5); the order of each zero is the conic contact weight of the
    corresponding curve point.
    """
    if param.degree < 3:
        raise RationalError(f"need degree >= 3, got {param.degree}")
    w, (top, *rest) = _evaluated_rows(_derivative_rows(param.veronese(), 5))
    xi = read_form(sum(e * m for e, m in zip(top, laplace_minors(rest))), w, 12 * param.degree - 30)
    if xi.is_zero():
        raise DegenerateParam("Wronskian vanishes identically")
    content, factors = squarefree_decomp(xi)
    classes = []
    for factor, mult in factors:
        # linear classes plus one root-free rest per squarefree factor
        roots, rest = split_linear_factors(factor)
        classes.extend(ZeroClass(form, mult, 1, root, True) for root, form in roots)
        if rest is not None:
            deg = rest.degree()
            classes.append(ZeroClass(rest, mult, deg, None, True if deg <= 3 else None))
    classes.sort(key=lambda z: (-z.multiplicity, z.factor.degree(), str(z.factor)))
    total = sum(z.multiplicity * z.points for z in classes)
    assert total == xi.degree() == 6 * (2 * param.degree - 5)
    return WeierstrassScan(xi, content, tuple(classes), total)


@dataclass(frozen=True)
class WeightEntry:
    weight: int
    points: int
    parameter: "tuple | None"
    point: "tuple | None"
    factor: MPoly


def weights_from_xi(scan: WeierstrassScan, param: RationalParam):
    """Per-point conic contact weights read off the Wronskian zero classes.

    Rational parameters are resolved to curve points; a degree-e root-free
    factor stands for e conjugate points carrying the class weight each.
    """
    out = []
    for z in scan.classes:
        point = param.eval_point(z.parameter) if z.parameter is not None else None
        out.append(WeightEntry(z.multiplicity, z.points, z.parameter, point, z.factor))
    return tuple(out)


def _horner(rows, degree, x, y, z):
    """G(x, y, z) for the ternary form G of the given degree whose
    coefficient of x^a y^b z^(degree-a-b) is rows[a][b]: Horner in x over
    the rows, and in y within a row, with the powers of z cached."""
    zs = [1]
    for _ in range(degree):
        zs.append(zs[-1] * z)
    acc = 0
    for a in range(degree, -1, -1):
        row = rows.get(a)
        inner = 0
        if row:
            m = degree - a
            for b in range(max(row), -1, -1):
                c = row.get(b)
                inner = inner * y + c * zs[m - b] if c else inner * y
        acc = acc * x + inner
    return acc


def pullback(G: MPoly, param: RationalParam) -> MPoly:
    """Restriction G(phi0, phi1, phi2); zero when the curve divides G.

    With G = scale * (a primitive integer form), the integer form is
    evaluated at (s, t) = (2^(8w), 1) over the integers.  Its pullback has
    every coefficient at most sum |c| * prod ||phi_i||_1^e_i over its terms
    c x^e, and w makes that bound, and every coefficient of phi, fit a signed
    digit.
    """
    if not G.is_homogeneous():
        raise RationalError("pullback needs a homogeneous polynomial")
    if len(G.variables) != 3:
        raise VariableSetMismatch(f"expected {len(G.variables)} images, got 3")
    if not G.terms:
        return MPoly.zero(ST)
    ints, scale = primitive_ints(G.terms.values())
    rows, abs_rows = {}, {}
    for (a, b, _), c in zip(G.terms, ints):
        rows.setdefault(a, {})[b] = c
        abs_rows.setdefault(a, {})[b] = abs(c)
    degree = G.degree()
    norms = [_l1(p) for p in param.phi]
    w = digit_width(max(_horner(abs_rows, degree, *norms), *norms))
    value = _horner(rows, degree, *[form_at(p, w) for p in param.phi])
    pb = read_form(value, w, degree * param.degree)
    return pb if scale == 1 else pb * scale


@dataclass(frozen=True)
class OrdersReport:
    orders: tuple
    degree: int
    residual: int  # degree not accounted for by the listed parameters


def intersection_orders(G: MPoly, param: RationalParam, at_list) -> OrdersReport:
    """Vanishing orders of the pullback of G at the given parameters."""
    pb = pullback(G, param)
    if pb.is_zero():
        raise ZeroPullback("pullback vanishes identically: the curve divides G")
    orders = tuple(linear_factor_orders(pb, at) for at in at_list)
    deg = pb.degree()
    return OrdersReport(orders, deg, deg - sum(orders))


def local_branch_at(param: RationalParam, at, trunc: int) -> BranchParam:
    """Expand the parametrization into a branch at the parameter (s0 : t0)."""
    s0, t0 = Fraction(at[0]), Fraction(at[1])
    if not s0 and not t0:
        raise RationalError("(0, 0) is not a projective parameter")
    u = MPoly.variable(("u",), "u")
    if t0:
        imgs = (u + s0 / t0, MPoly.constant(("u",), 1))
    else:
        imgs = (MPoly.constant(("u",), 1), u)
    coords = []
    for p in param.phi:
        expanded = p.compose(imgs)
        coeffs = {e[0]: c for e, c in expanded.terms.items() if e[0] < trunc}
        coords.append(TruncSeries(coeffs, trunc))
    return BranchParam(*coords)
