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
from functools import reduce
from itertools import chain
from math import comb, factorial, gcd, prod

from .branch import BranchParam
from .poly import (
    ST,
    MPoly,
    VariableSetMismatch,
    _digit_runs,
    _digits,
    _form,
    _is_int,
    _pack,
    _point_str,
    _root_order,
    _rows_at,
    _split,
    _squarefree,
    _u_at,
    _u_mul,
    _u_shift,
    binaryform_gcd,
    canonical_conic,
    digit_width,
    laplace_det,
    laplace_minors,
    linear_root_form,
    primitive_ints,
    projective_ints,
    split_linear_factors,
    veronese,
)


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
    """Coprime triple of equal-degree binary forms (phi0 : phi1 : phi2).

    ``dense`` holds the three forms as the lists the algorithms here work
    on, entry i the coefficient of s^i t^(d-i), over the triple's positive
    rational content; ``phi`` is a view of them as ``MPoly``s.
    """

    __slots__ = ("degree", "dense")

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
        self.degree = d = degs.pop()
        dense = [[p.terms.get((i, d - i), 0) for i in range(d + 1)] for p in phi]
        core, scale, a, b = reduce(binaryform_gcd, [_split(u) for u in dense if any(u)])
        if len(core) > 1 or a + b:
            raise CommonFactorError(_form(core, a, b, ST) * scale)
        # strip the common positive rational content of the whole triple
        ints = primitive_ints([c for u in dense for c in u])[0]
        self.dense = tuple(ints[i : i + d + 1] for i in range(0, 3 * d + 3, d + 1))

    @property
    def phi(self):
        """The triple as ``MPoly``s, built from ``dense`` when read."""
        return tuple(_form(u, 0, 0, ST) for u in self.dense)

    def eval_point(self, at):
        """Primitive integer coordinates of the curve point at (s0 : t0); the
        forms have no common zero, so only (0 : 0) gives none."""
        s0, t0 = Fraction(at[0]), Fraction(at[1])
        if not (s0 or t0):
            raise RationalError(f"parametrization vanishes at {_point_str((s0, t0))}")
        p, q = projective_ints((s0, t0))
        return projective_ints([_u_at(u, p, q) for u in self.dense])

    def __repr__(self):
        return f"RationalParam({self.phi[0]} : {self.phi[1]} : {self.phi[2]})"


def _derivative_rows(forms, order: int):
    """Rows r = 0..order of the mixed partials d^order / ds^(order-r) dt^r
    of dense forms of one degree n, each divided by (order - r)! r!, as dense
    forms of degree n - order.

    With k = order - r, the partial takes c s^i t^(n-i) to
    c (i)_k (n-i)_r s^(i-k) t^(n-i-r), so row r keeps the entries i = k..n-r
    of each form, scaled by (i)_k (n-i)_r / (k! r!) = C(i, k) C(n-i, r).  A
    minor is linear in each of its rows, so the minors of the partials are
    ``_row_divisor(order)`` times those of these rows.
    """
    n = len(forms[0]) - 1
    rows = []
    for r in range(order + 1):
        k = order - r
        scale = [comb(i, k) * comb(n - i, r) for i in range(k, n - r + 1)]
        rows.append([[c * m for c, m in zip(u[k:], scale)] for u in forms])
    return rows


def _row_divisor(order: int) -> int:
    """The product over r of the (order - r)! r! that ``_derivative_rows``
    divides its rows by: 82944 at order 4, 1194393600 at order 5."""
    return prod(factorial(order - r) * factorial(r) for r in range(order + 1))


def _evaluated_rows(rows):
    """(w, rows at (s, t) = (2^(8w), 1)) for k rows of dense integer forms.

    A k x k minor of the rows is a sum of k! products of one entry per row,
    so every coefficient of one is at most k! times the product over the rows
    of the largest l1-norm of an entry; w makes that bound, and every entry's
    coefficients, fit a signed digit, so such a minor over the integers reads
    back with ``_digits``.
    """
    norms = [max(sum(map(abs, u)) for u in row) for row in rows]
    bound = 1
    for k, n in enumerate(norms, 1):
        bound *= k * n
    w = digit_width(max(bound, *norms))
    return w, [[_pack(u, w) for u in row] for row in rows]


def osculating_conic_family(param: RationalParam, at=None):
    """The osculating conic along the curve, as binary-form coefficients.

    Its six coefficients are the signed 5x5 minors of the fourth-order
    partials of the Veronese products.  Without ``at``, the result is those
    six minors, forms of degree 10d-20 in (s, t), in ``CONIC_BASIS`` order.
    With ``at``, the partials are evaluated first (evaluation commutes with
    the determinant) at integer coordinates (p, q) of the parameter, and the
    minors are taken over the integers.  Every partial has degree 2d-4, so
    scaling (p, q) scales the conic by a nonzero constant; it is returned in
    canonical primitive form.  Only when that conic is zero are the symbolic
    minors built, to tell an identically zero family from one that vanishes
    at the parameter.
    """
    family = _conic_family(param, at)
    return family if at is not None else tuple(_form(u, 0, 0, ST) for u in family)


def _conic_family(param: RationalParam, at=None):
    """``osculating_conic_family`` on dense lists: without ``at``, the six
    minors as dense lists of degree 10d-20; with it, the canonical conic.

    The minors are taken on the divided rows of ``_derivative_rows``: the
    symbolic ones are read back at once (``_digit_runs``) and multiplied by
    ``_row_divisor(4)``; the evaluated conic is not, as its canonical form drops
    that positive constant anyway.
    """
    if param.degree < 3:
        raise RationalError(f"need degree >= 3, got {param.degree}")
    if at is not None:
        s0, t0 = Fraction(at[0]), Fraction(at[1])
        if not s0 and not t0:
            raise RationalError("(0, 0) is not a projective parameter")
    rows = _derivative_rows(veronese(*param.dense, times=_u_mul), 4)
    if at is not None:
        p, q = projective_ints((s0, t0))
        six = laplace_minors([[_u_at(u, p, q) for u in row] for row in rows])
        if any(six):
            return canonical_conic(six)
    w, ints = _evaluated_rows(rows)
    scale = _row_divisor(4)
    runs = _digit_runs(laplace_minors(ints), w, [10 * param.degree - 19] * 6)
    if not any(map(any, runs)):
        raise DegenerateParam("conic family is identically zero")
    if at is not None:
        raise DegenerateParam(f"conic family vanishes at {_point_str((s0, t0))}")
    return [[c * scale for c in u] for u in runs]


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


def _wronskian_form(dense):
    """xi of three dense forms of one degree d, as they stand: the 6x6
    determinant of the fifth-order partials of their Veronese products,
    the dense list of a binary form of degree 12d - 30.  It is read back as
    the determinant of the divided rows of ``_derivative_rows`` and
    multiplied by ``_row_divisor(5)``."""
    d = len(dense[0]) - 1
    rows = _derivative_rows(veronese(*dense, times=_u_mul), 5)
    w, ints = _evaluated_rows(rows)
    xi = _digits(laplace_det(ints), w, 12 * d - 29)
    scale = _row_divisor(5)
    return [c * scale for c in xi]


def conic_wronskian(param: RationalParam) -> WeierstrassScan:
    """Wronskian of the Veronese products and its zero structure.

    The determinant of the fifth-order partials is a binary form of degree
    6(2d - 5); the order of each zero is the conic contact weight of the
    corresponding curve point.
    """
    if param.degree < 3:
        raise RationalError(f"need degree >= 3, got {param.degree}")
    xi = _wronskian_form(param.dense)
    if not any(xi):
        raise DegenerateParam("Wronskian vanishes identically")
    core, content, a, b = _split(xi)
    # s^a and t^b are the classes at (0 : 1) and (1 : 0); each squarefree
    # factor of the core gives its linear classes and one root-free rest
    linear = [((0, 1), a), ((1, 0), b)]
    classes = []
    for factor, mult in _squarefree(core):
        roots, rest = split_linear_factors(factor)
        linear += [(root, mult) for root in roots]
        if rest is not None:
            deg = len(rest) - 1
            classes.append(ZeroClass(_form(rest, 0, 0, ST), mult, deg, None, True if deg <= 3 else None))
    classes += [ZeroClass(linear_root_form(r), mult, 1, r, True) for r, mult in linear if mult]
    classes.sort(key=lambda z: (-z.multiplicity, z.factor.degree(), str(z.factor)))
    total = sum(z.multiplicity * z.points for z in classes)
    assert total == len(xi) - 1 == 6 * (2 * param.degree - 5)
    return WeierstrassScan(_form(xi, 0, 0, ST), Fraction(content), tuple(classes), total)


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


def pullback(G: MPoly, param: RationalParam) -> MPoly:
    """Restriction G(phi0, phi1, phi2); zero when the curve divides G."""
    u, scale = _pullback(G, param)
    return _form(u, 0, 0, ST) * scale


def _pullback(G: MPoly, param: RationalParam):
    """(u, scale) with G(phi0, phi1, phi2) = scale * (the form of dense list u).

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
        return [0], 1
    ints, scale = primitive_ints(G.terms.values())
    degree = G.degree()
    # row a of G, and of its |c|, runs up to its largest power of y
    rows = [[] for _ in range(degree + 1)]
    abs_rows = [[] for _ in range(degree + 1)]
    for (a, b, _), c in zip(G.terms, ints):
        row = rows[a]
        if len(row) <= b:
            pad = [0] * (b + 1 - len(row))
            row += pad
            abs_rows[a] += pad
        row[b] = c
        abs_rows[a][b] = abs(c)
    norms = [sum(map(abs, u)) for u in param.dense]
    w = digit_width(max(_rows_at(abs_rows, degree, *norms), *norms))
    value = _rows_at(rows, degree, *[_pack(u, w) for u in param.dense])
    return _digits(value, w, degree * param.degree + 1), scale


@dataclass(frozen=True)
class OrdersReport:
    orders: tuple
    degree: int
    residual: int  # degree not accounted for by the listed parameters


def intersection_orders(G: MPoly, param: RationalParam, at_list) -> OrdersReport:
    """Vanishing orders of the pullback of G at the given parameters."""
    pb, _ = _pullback(G, param)
    if not any(pb):
        raise ZeroPullback("pullback vanishes identically: the curve divides G")
    split = _split(pb)
    orders = tuple(_root_order(split, at) for at in at_list)
    deg = len(pb) - 1
    return OrdersReport(orders, deg, deg - sum(orders))


def local_branch_at(param: RationalParam, at, trunc: int) -> BranchParam:
    """Expand the parametrization into a branch at the parameter (s0 : t0):
    phi(u + s0/t0, 1), a Taylor shift of the dense forms, or phi(1, u) at
    (1 : 0)."""
    s0, t0 = Fraction(at[0]), Fraction(at[1])
    if not s0 and not t0:
        raise RationalError("(0, 0) is not a projective parameter")
    if not (_is_int(trunc) and trunc >= 1):
        raise RationalError(f"truncation must be a positive integer, got {trunc!r}")
    if t0:
        a, b = (s0 / t0).as_integer_ratio()
        den = b**param.degree
        forms = [_u_shift(u, a, b)[:trunc] for u in param.dense]
    else:
        den = 1
        forms = [u[::-1][:trunc] for u in param.dense]
    # the coordinates are the forms over den; g, the gcd of den and all
    # their coefficients, cancels to leave the least D
    g = gcd(den, *chain(*forms))
    den //= g
    terms = [[(c // g, den, e) for e, c in enumerate(u) if c] for u in forms]
    return BranchParam._from_terms(den, (trunc,) * 3, terms)
