"""The 2-Hessian and the osculating conic on plane cubics, against the group
law.

A smooth Weierstrass cubic E,

    F = y^2 z + a1 x y z + a3 y z^2 - x^3 - a2 x^2 z - a4 x z^2 - a6 z^3,

has the flex O = (0 : 1 : 0), and with O as origin its points form a group
in which three points are collinear exactly when they sum to O.  A conic
cuts E in a divisor of class 2H = 6O, so:

- the osculating conic at P, which meets E five times at P, meets it once
  more at Q with 5P + Q = O: it passes through -5P;
- a conic meets E six times at P exactly when 6P = O, so the sextactic
  points are the 24 points of order 6 and the 3 of order 2 (3P = O would
  make P a flex); the 2-Hessian cuts E in them, and Res_y(F, H2)(x, 1) is
  psi2^2 (psi5 - (psi4/psi2)^2)^2, up to a scalar: psi2^2 for the points
  of order 2, and the square of the order-6 factor, because each of its
  x-roots carries the two points +-P.

The group law (chord and tangent) and the division polynomials psi are
written out here in exact rationals (Silverman, "The Arithmetic of Elliptic
Curves", III.2 and Exercise 3.7), so the checks share nothing with the
library but F.

Both pointwise gates also run on F∘A, the curve under the random maps A of
the covariance tests, at the points A^-1 P: a change of coordinates moves
the points and keeps every contact order.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sextactic.differential import VARIANTS, osculating_conic, second_hessian, second_hessian_at
from sextactic.poly import XYZ, MPoly
from test_covariance import adjugate3, apply, images, random_map

X, Y, Z = (MPoly.variable(XYZ, v) for v in XYZ)
x, y = sympy.symbols("x y")


class Weierstrass:
    """E with coefficients (a1, a2, a3, a4, a6); an affine point is an (x, y)
    pair of Fractions and O is None."""

    def __init__(self, a1, a2, a3, a4, a6):
        self.a = a1, a2, a3, a4, a6 = tuple(map(Fraction, (a1, a2, a3, a4, a6)))
        F = Y**2 * Z + a1 * X * Y * Z + a3 * Y * Z**2 - X**3 - a2 * X**2 * Z - a4 * X * Z**2 - a6 * Z**3
        # the same curve with its denominators cleared
        self.F = F * lcm(*(c.denominator for c in F.terms.values()))

    def on_curve(self, P):
        a1, a2, a3, a4, a6 = self.a
        u, v = P
        return v * v + a1 * u * v + a3 * v == u**3 + a2 * u * u + a4 * u + a6

    def neg(self, P):
        a1, _, a3, _, _ = self.a
        return None if P is None else (P[0], -P[1] - a1 * P[0] - a3)

    def add(self, P, Q):
        a1, a2, a3, a4, a6 = self.a
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:
            return None
        if x1 != x2:
            lam = (y2 - y1) / (x2 - x1)
            nu = (y1 * x2 - y2 * x1) / (x2 - x1)
        else:
            den = 2 * y1 + a1 * x1 + a3
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
            nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) / den
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        return (x3, -(lam + a1) * x3 - nu - a3)

    def discriminant(self):
        a1, a2, a3, a4, a6 = self.a
        b2 = a1**2 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3**2 + 4 * a6
        b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
        return -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6

    def mul(self, k, P):
        out = None
        for _ in range(abs(k)):
            out = self.add(out, P)
        return out if k >= 0 else self.neg(out)

    def division_prediction(self):
        """psi2^2 (psi5 - (psi4/psi2)^2)^2 as a sympy polynomial in x."""
        a1, a2, a3, a4, a6 = (sympy.Rational(c.numerator, c.denominator) for c in self.a)
        b2 = a1**2 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3**2 + 4 * a6
        b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
        psi2_sq = 4 * x**3 + b2 * x**2 + 2 * b4 * x + b6
        psi3 = 3 * x**4 + b2 * x**3 + 3 * b4 * x**2 + 3 * b6 * x + b8
        psi4_over_psi2 = (
            2 * x**6 + b2 * x**5 + 5 * b4 * x**4 + 10 * b6 * x**3 + 10 * b8 * x**2
            + (b2 * b8 - b4 * b6) * x + b4 * b8 - b6**2
        )
        psi5 = psi4_over_psi2 * psi2_sq**2 - psi3**3
        return sympy.Poly(psi2_sq * (psi5 - psi4_over_psi2**2) ** 2, x)


def projective(P):
    return (Fraction(0), Fraction(1), Fraction(0)) if P is None else (P[0], P[1], Fraction(1))


def kubert(c):
    """Kubert's curve with the point (0 : 0 : 1) of order 6."""
    c = Fraction(c)
    b = c + c * c
    return Weierstrass(1 - c, -b, -b, 0, 0)


# 37a, with P0 = (0 : 0 : 1) of infinite order
CURVE_37A = Weierstrass(0, 0, 1, -1, 0)
KUBERT_C = [2, 3, Fraction(1, 2), -3]
ARBITRARY = {"arbitrary1": Weierstrass(1, -1, 0, -3, 7), "arbitrary2": Weierstrass(2, 3, -1, 5, -4)}


def affine(P):
    """P(x, y, 1) as a sympy expression."""
    return sympy.Poly.from_dict(
        {(i, j): sympy.Rational(c.numerator, c.denominator) for (i, j, _), c in P.terms.items()}, x, y
    ).as_expr()


def resultant(E, H2):
    """Res_y(F, H2)(x, 1) as a sympy polynomial in x."""
    return sympy.Poly(sympy.resultant(affine(E.F), affine(H2), y), x)


def proportional(p, q):
    """Whether the polynomials p and q in one variable are nonzero multiples
    of each other."""
    return not p.is_zero and not q.is_zero and p.to_field().monic() == q.to_field().monic()


def six_maps():
    """Six maps A drawn by the covariance tests' generator from Random(3)."""
    rng = random.Random(3)
    return [random_map(rng) for _ in range(6)]


MAPS = six_maps()


def mapped(E, a):
    """(F∘A, P -> A^-1 P): the curve under A and the map of its points, A^-1
    up to the scalar det A, with adj(A)."""
    adj = adjugate3(a)
    return E.F.compose(images(a)), lambda P: apply(adj, projective(P))


@pytest.mark.parametrize("k", range(1, 7))
def test_osculating_conic_meets_minus_five_k_p0(k):
    E = CURVE_37A
    P0 = (Fraction(0), Fraction(0))
    P = E.mul(k, P0)
    Q = E.mul(-5 * k, P0)
    assert E.on_curve(P) and E.on_curve(Q) and Q != P
    conic = osculating_conic(E.F, projective(P))
    assert conic.eval(projective(Q)) == 0
    # the conic meets E five times at P and once at -5P, and P0 has infinite
    # order, so no other multiple of P0 lies on it
    assert all(conic.eval(projective(E.mul(j * k, P0))) != 0 for j in (2, 3, -4, -6))


@pytest.mark.parametrize("a", MAPS, ids=[f"A{i}" for i in range(len(MAPS))])
def test_osculating_conic_meets_minus_five_k_p0_under_a(a):
    E = CURVE_37A
    G, unmap = mapped(E, a)
    P0 = (Fraction(0), Fraction(0))
    for k in range(1, 7):
        conic = osculating_conic(G, unmap(E.mul(k, P0)))
        assert conic.eval(unmap(E.mul(-5 * k, P0))) == 0
        assert conic.eval(unmap(E.mul(2 * k, P0))) != 0


def assert_sextactic_multiples(F, multiples, variant):
    # P and 5P = -P have order 6 and 3P order 2, so a conic meets E six
    # times there; 2P and 4P have order 3 and are flexes
    for k in (1, 3, 5):
        assert second_hessian_at(F, multiples[k], variant) == 0
    for k in (2, 4):
        assert second_hessian_at(F, multiples[k], variant) != 0


def kubert_multiples(E):
    """{k: kP} for P = (0, 0) and k = 1..6."""
    P = (Fraction(0), Fraction(0))
    return {k: E.mul(k, P) for k in range(1, 7)}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("c", KUBERT_C, ids=str)
def test_second_hessian_vanishes_at_the_sextactic_multiples(c, variant):
    E = kubert(c)
    multiples = kubert_multiples(E)
    assert multiples[6] is None and all(multiples[k] is not None for k in range(1, 6))
    assert_sextactic_multiples(E.F, {k: projective(P) for k, P in multiples.items()}, variant)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(c=st.builds(Fraction, st.integers(-20, 20), st.integers(1, 20)))
def test_second_hessian_vanishes_at_the_sextactic_multiples_of_any_kubert_curve(c, variant):
    E = kubert(c)
    # c = 0, -1 and -1/9 make E singular; a smooth E is a test only where
    # P = (0, 0) has order exactly 6
    assume(E.discriminant() != 0)
    multiples = kubert_multiples(E)
    assume(multiples[6] is None and all(multiples[k] is not None for k in range(1, 6)))
    assert_sextactic_multiples(E.F, {k: projective(P) for k, P in multiples.items()}, variant)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("a", MAPS, ids=[f"A{i}" for i in range(len(MAPS))])
@pytest.mark.parametrize("c", KUBERT_C, ids=str)
def test_second_hessian_vanishes_at_the_sextactic_multiples_under_a(c, a, variant):
    E = kubert(c)
    G, unmap = mapped(E, a)
    assert_sextactic_multiples(G, {k: unmap(P) for k, P in kubert_multiples(E).items()}, variant)


@pytest.mark.parametrize(
    "E",
    [kubert(2), kubert(Fraction(1, 2)), *ARBITRARY.values()],
    ids=["kubert2", "kubert1/2", *ARBITRARY],
)
def test_resultant_is_the_division_polynomial_prediction(E):
    res = resultant(E, second_hessian(E.F))
    assert res.degree() == 27
    assert proportional(res, E.division_prediction())


@pytest.mark.parametrize("name", sorted(ARBITRARY))
def test_both_variants_cut_the_same_divisor_at_degree_3(name):
    # at d = 3 the corrected and the classical 2-Hessian meet the curve in
    # the same points with the same multiplicities, though their difference
    # is not a multiple of F (F is monic in y on z = 1): no cubic tells the
    # two apart
    E = ARBITRARY[name]
    corrected, classical = (second_hessian(E.F, v) for v in VARIANTS)
    assert sympy.rem(affine(corrected - classical), affine(E.F), y) != 0
    assert proportional(resultant(E, corrected), resultant(E, classical))
