"""Core polynomial arithmetic: ring operations, determinants, binary forms."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from poly_reference import (
    dense_form,
    det_bareiss,
    gcd_form,
    mpoly_str_reference,
    padded_product,
    prs_gcd,
    rational_roots_by_division,
    read_back,
    series_str_reference,
    terms_str_reference,
)
from sextactic import jet, poly
from sextactic.jet import TaylorJet
from sextactic.poly import (
    CONIC_BASIS,
    ST,
    XYZ,
    ExactDivisionError,
    InfiniteOrder,
    MPoly,
    NonSquareMatrix,
    PolyError,
    PolyMatrix,
    TernaryForm,
    UnknownVariable,
    VariableSetMismatch,
    ZeroFormError,
    digit_width,
    exact_div,
    laplace_minors,
    linear_factor_orders,
    linear_root_form,
    primitive_ints,
    projective_ints,
    split_linear_factors,
    squarefree_decomp,
    veronese,
)
from sextactic.series import TruncSeries


def var(vs, name):
    return MPoly.variable(vs, name)


X, Y, Z = (var(XYZ, v) for v in XYZ)
S, T = (var(ST, v) for v in ST)


def to_sympy(p):
    syms = sympy.symbols(" ".join(p.variables))
    if len(p.variables) == 1:
        syms = (syms,)
    expr = sympy.Integer(0)
    for expo, c in p.terms.items():
        term = sympy.Rational(c)
        for sym, e in zip(syms, expo):
            term *= sym**e
        expr += term
    return sympy.expand(expr)


def random_poly(rng, variables, max_degree, max_terms, homogeneous=None):
    n = len(variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if homogeneous is None:
            expo = [0] * n
            for _ in range(rng.randint(0, max_degree)):
                expo[rng.randrange(n)] += 1
        else:
            expo = [0] * n
            for _ in range(homogeneous):
                expo[rng.randrange(n)] += 1
        c = rng.choice([v for v in range(-9, 10) if v])
        terms[tuple(expo)] = terms.get(tuple(expo), 0) + c
    p = MPoly(variables, terms)
    return p


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_additive_identity(self):
        f = Y**2 * Z - X**3 - X**2 * Z
        assert f + MPoly.zero(XYZ) == f

    def test_multiplicative_identity(self):
        f = Y**2 * Z - X**3 - X**2 * Z
        assert f * MPoly.constant(XYZ, 1) == f

    def test_scalar_coercion(self):
        assert 2 * X == X + X
        assert X * Fraction(1, 2) + X * Fraction(1, 2) == X

    def test_pow(self):
        assert (X + Y) ** 0 == MPoly.constant(XYZ, 1)
        assert (X + Y) ** 3 == X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3

    def test_variable_set_mismatch(self):
        with pytest.raises(VariableSetMismatch):
            X + S

    def test_ring_axioms_random(self):
        rng = random.Random(100)
        for _ in range(40):
            a = random_poly(rng, XYZ, 6, 5)
            b = random_poly(rng, XYZ, 6, 5)
            c = random_poly(rng, XYZ, 6, 5)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_zero_degree_is_distinct(self):
        assert MPoly.zero(XYZ).degree() is None
        assert MPoly.constant(XYZ, 5).degree() == 0


# -- packed-exponent products against a tuple-adding reference ---------------

# Exponents on both sides of each field-width edge: a product field holds
# max(a) + max(b), so sums cross 255/256, 65535/65536 and 2^40 here.
EXPONENTS = st.one_of(
    st.integers(0, 3),
    st.sampled_from([127, 128, 255, 256, 65535, 65536, 2**40 - 1, 2**40]),
)
COEFFS = st.one_of(
    st.integers(-20, 20), st.fractions(min_value=-5, max_value=5, max_denominator=7)
)


@st.composite
def poly_pairs(draw):
    variables = XYZ[: draw(st.integers(1, 3))]
    expo = st.tuples(*[EXPONENTS] * len(variables))
    one = st.one_of(
        st.dictionaries(expo, COEFFS, max_size=6),
        st.builds(lambda c: {(0,) * len(variables): c}, COEFFS),
    )
    return MPoly(variables, draw(one)), MPoly(variables, draw(one))


def tuple_add_product(p, q):
    """The product by adding exponent tuples, in the same first-seen order."""
    a, b = p.terms, q.terms
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return [(e, c) for e, c in out.items() if c]


class TestPackedProduct:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(poly_pairs(), COEFFS)
    def test_matches_tuple_add(self, pair, k):
        p, q = pair
        assert list((p * q).terms.items()) == tuple_add_product(p, q)
        assert k * p == p * MPoly.constant(p.variables, k)

    def test_width_edges(self):
        for e in (127, 128, 255, 256, 65535, 65536, 2**40):
            p = MPoly(XYZ, {(e, 1, 0): 2, (0, e, 3): -1})
            q = MPoly(XYZ, {(1, 0, e): 3, (e, e, e): Fraction(1, 2)})
            assert list((p * q).terms.items()) == tuple_add_product(p, q)
            assert (p * q).terms[(e + 1, 1, e)] == 6
            u, v = MPoly(XYZ, {(e, 0, 0): 1}), MPoly(XYZ, {(0, e, 0): 1})
            assert ((u + v) * (u - v)).terms == {(2 * e, 0, 0): 1, (0, 2 * e, 0): -1}

    def test_zero_and_constant_operands(self):
        f = X**3 - 2 * Y * Z**2
        zero = MPoly.zero(XYZ)
        assert (f * zero).is_zero() and (zero * f).is_zero()
        big = (X + 2 * Y - Z) ** 6  # 28 terms, past the kernel's crossover
        assert (big * zero).is_zero() and (zero * big).is_zero() and (big * 0).is_zero()
        assert f * MPoly.constant(XYZ, -3) == -3 * f
        assert MPoly.constant(XYZ, 2) * MPoly.constant(XYZ, 5) == 10 + zero


# -- products through the Kronecker kernel ------------------------------------


def product_and_path(p, q):
    """(p * q, whether the product went through the packed path: one
    ``kronecker_product`` for binary forms, one ``TernaryForm`` product for
    ternary ones)."""
    ran = []
    kernel = poly._packed_mul

    def spy(a, b, n):
        out = kernel(a, b, n)
        ran.append(out is not None)
        return out

    poly._packed_mul = spy
    try:
        prod = p * q
    finally:
        poly._packed_mul = kernel
    return prod, ran == [True]


def assert_product(p, q):
    """p * q equals the tuple-adding product, keys in first-seen order on
    the loop path and in ascending slot order, which is ascending
    lexicographic order of the exponents, on the packed path.  Returns
    whether the packed path ran."""
    prod, packed = product_and_path(p, q)
    items = list(prod.terms.items())
    want = tuple_add_product(p, q)
    if packed:
        assert items == sorted(want)
    else:
        assert items == want
    return packed


PACKED_COEFFS = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.integers(-(2**70), 2**70),
)


@st.composite
def packable_pairs(draw):
    """Two operands of 8 to 28 terms in 1, 2 or 3 variables, both homogeneous
    or not, each possibly shifted by a power of x past a byte."""
    n = draw(st.integers(1, 3))
    homogeneous = draw(st.booleans())
    if homogeneous and n == 1:
        n = 2
    pool_size = draw(st.integers(8, 28))

    def operand():
        if homogeneous:
            d = {2: draw(st.integers(7, 27)), 3: draw(st.integers(3, 6))}[n]
            pool = product_exponents(n, d)
        else:
            box = 28 if n == 1 else 6 if n == 2 else 3
            pool = product_exponents(n, None, box)
        size = draw(st.integers(min(8, len(pool)), max(8, len(pool) * 2 // 3)))
        expos = draw(st.lists(st.sampled_from(pool), min_size=min(size, len(pool)),
                              max_size=max(size, pool_size), unique=True))
        shift = draw(st.sampled_from([0, 0, 255, 256, 70000]))
        terms = {(e[0] + shift,) + e[1:]: draw(PACKED_COEFFS) for e in expos}
        return MPoly(XYZ[:n], terms)

    return operand(), operand()


def product_exponents(n, d, box=None):
    """Exponent vectors in n variables: of total degree d, or in [0, box)^n."""
    if d is None:
        grid = [()]
        for _ in range(n):
            grid = [e + (i,) for e in grid for i in range(box)]
        return grid
    if n == 1:
        return [(d,)]
    return [(i,) + e for i in range(d + 1) for e in product_exponents(n - 1, d - i)]


class TestKernelProduct:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(packable_pairs())
    def test_matches_tuple_add(self, pair):
        p, q = pair
        assert_product(p, q)
        assert_product(q, p)

    def test_dense_operands_take_the_packed_path(self):
        rng = random.Random(8)

        def dense(vs, d=None, box=None):
            expos = product_exponents(len(vs), d, box)
            return MPoly(vs, {e: rng.choice([-3, -1, 2, 5]) for e in expos})

        for vs, d in ((ST, 9), (XYZ, 3), (XYZ, 6)):
            f, g = dense(vs, d), dense(vs, d + 1)
            assert len(f.terms) * len(g.terms) >= poly._PACK_MIN_PAIRS
            assert assert_product(f, g)
        # a monomial factor of an operand is taken out before the triangle
        # test, so shifted forms still pack
        f, g = dense(XYZ, 3), dense(XYZ, 4)
        assert assert_product(X**70000 * f, Y**3 * Z**2 * g)
        assert assert_product(X * Y * Z * f, g)
        # only binary and ternary forms pack: a mixed-degree ternary operand
        # and a univariate one take the tuple-adding loop
        assert not assert_product(dense(XYZ, box=3), dense(XYZ, box=2) + X**5)
        assert not assert_product(dense(("x",), box=12), dense(("x",), box=9))

    def test_the_pack_or_loop_rule_at_its_edges(self):
        # the two predicates every product and dense-or-sparse choice asks
        assert poly.worth_packing(3, 22) and poly.worth_packing(8, 8)
        assert not poly.worth_packing(3, 21) and not poly.worth_packing(2, 100)
        assert poly.dense_enough(8, 2) and not poly.dense_enough(9, 2)

    def test_short_operands_loop(self):
        # one- and two-term operands never pay for the kernel
        f = MPoly(XYZ, {(i, j, 9 - i - j): i - j or 1 for i in range(10) for j in range(10 - i)})
        for g in (X**4, X - 2 * Y, MPoly.constant(XYZ, Fraction(3, 7))):
            assert not assert_product(f, g)
            assert not assert_product(g, f)

    def test_cancelled_slot_is_absent(self):
        # (sum s^i t^(7-i)) (sum (-1)^i s^i t^(7-i)): the s t^13 slot sums to 0
        a = MPoly(ST, {(i, 7 - i): 1 for i in range(8)})
        b = MPoly(ST, {(i, 7 - i): (-1) ** i for i in range(8)})
        prod, packed = product_and_path(a, b)
        assert packed
        assert (1, 13) not in prod.terms and (0, 14) in prod.terms
        assert list(prod.terms.items()) == sorted(tuple_add_product(a, b))

    @pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 65, 100])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_slot_width_edges(self, bits, sign):
        # 8 x 8 constant coefficients: the middle slot is 8*ca*cb, the
        # kernel's bound exactly, with `bits` or `bits + 1` binary digits
        for ca, cb in ((2 ** (bits - 3) - 1, 1), (2 ** (bits - 3), 1), (3, 2 ** (bits - 5))):
            a = MPoly(ST, {(i, 7 - i): ca for i in range(8)})
            b = MPoly(ST, {(i, 7 - i): sign * cb for i in range(8)})
            prod, packed = product_and_path(a, b)
            assert packed
            assert prod.terms[(7, 7)] == sign * 8 * ca * cb
            assert list(prod.terms.items()) == sorted(tuple_add_product(a, b))

    def test_sparse_operands_are_refused(self):
        # ten terms spread over exponents up to 10^6: far more slots than terms
        spread = [0, 1, 3, 10, 400, 999, 5000, 70000, 10**5, 10**6]
        f = MPoly(("x", "y"), {(e, i): i + 1 for i, e in enumerate(spread)})
        g = MPoly(("x", "y"), {(i, e): 1 - i for i, e in enumerate(spread)})
        assert poly._packed_mul(f.terms, g.terms, 2) is None
        assert not assert_product(f, g)
        k = MPoly(ST, {(e, 10**6 - e): i + 1 for i, e in enumerate(spread)})
        assert poly._packed_mul(k.terms, k.terms, 2) is None
        assert not assert_product(k, k)
        h = MPoly(XYZ, {(e, 0, 10**6 - e): i + 1 for i, e in enumerate(spread)})
        assert not assert_product(h, h)


# -- dense ternary forms against MPoly -----------------------------------------


class TestPackDigits:
    """``_pack`` and ``_digits`` are inverse on signed digits of every width,
    word-sized or not, below and above the Horner cut-off."""

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 33])
    @pytest.mark.parametrize("n", [1, 2, 30, 41, 200])
    def test_round_trip_at_the_edges(self, w, n):
        edge = 2 ** (8 * w - 1) - 1
        rng = random.Random(w * 1000 + n)
        u = [rng.choice([edge, -edge, 0, 1, -1, rng.randint(-edge, edge)]) for _ in range(n)]
        u[-1] = -edge
        packed = poly._pack(u, w)
        assert packed == sum(c << (8 * w * i) for i, c in enumerate(u))
        assert poly._digits(packed, w, n) == u
        # digits from n on are dropped
        assert poly._digits(packed + (5 << (8 * w * n)), w, n) == u


TERNARY_COEFFS = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**70, -(2**70), 2**64 - 1, -(2**63)]),
)


@st.composite
def ternary_forms(draw, max_degree=9):
    """A TernaryForm of degree 0..max_degree with any subset of its
    coefficients nonzero, possibly none."""
    d = draw(st.integers(0, max_degree))
    rows = [[0] * (d + 1 - i) for i in range(d + 1)]
    cells = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    for i, j in draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells))):
        rows[i][j] = draw(TERNARY_COEFFS)
    return TernaryForm(d, rows)


class TestTernaryForm:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(ternary_forms(), ternary_forms())
    def test_product_matches_tuple_add(self, a, b):
        want = sorted(tuple_add_product(a.mpoly(), b.mpoly()))
        for prod in (a * b, b * a):
            assert prod.degree == a.degree + b.degree
            assert [len(row) for row in prod.rows] == list(range(prod.degree + 1, 0, -1))
            assert list(prod.terms().items()) == want

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ternary_forms(), st.integers(-5, 5))
    def test_list_operations_match_mpoly(self, a, k):
        f = a.mpoly()
        b = TernaryForm.of((f * f).terms, 2 * a.degree)
        assert (a + a).mpoly() == f + f
        assert (a - a).is_zero() and (a - a).degree == a.degree
        assert (k * a).mpoly() == (a * k).mpoly() == k * f
        assert (b - a * a).is_zero()
        if a.degree:
            for v in XYZ:
                assert a.partial(v).mpoly() == f.partial(v)
                assert a.partial(v).degree == a.degree - 1
        for point in ((2, -3, 5), (0, 0, 1), (1, 0, 0), (-7, 11, 0)):
            assert a.eval(point) == f.eval(point)

    def test_conversions(self):
        f = MPoly(XYZ, {(2, 0, 1): Fraction(1, 6), (0, 3, 0): Fraction(-3, 4), (0, 0, 3): 2})
        a = TernaryForm.of(f.terms, 3)
        assert a.rows == [[24, 0, 0, -9], [0, 0, 0], [2, 0], [0]]
        assert a.den == 12
        assert a.mpoly() == f
        assert list(a.terms()) == [(0, 0, 3), (0, 3, 0), (2, 0, 1)]
        with pytest.raises(poly.NotHomogeneous):
            TernaryForm.of({(1, 0, 0): 1}, 3)
        with pytest.raises(UnknownVariable):
            a.partial("w")
        with pytest.raises(PolyError):
            a + a.partial("x")

    def test_zero_forms_keep_their_degree(self):
        zero = TernaryForm(4, [[0] * (5 - i) for i in range(5)])
        x = TernaryForm.of({(1, 0, 0): 1}, 1)
        assert (zero * x).degree == 5 and (zero * x).is_zero()
        assert zero.mpoly().is_zero() and zero.eval((3, 4, 5)) == 0


@st.composite
def rational_ternary_forms(draw, max_degree=6):
    """An MPoly form of degree 0..max_degree in (x, y, z) on any subset of
    its monomials, with coefficients of mixed denominators."""
    d = draw(st.integers(0, max_degree))
    cells = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    return d, MPoly(XYZ, {e: draw(coeffs) for e in chosen})


class TestTernaryFormDenominator:
    """A TernaryForm is rows / den: conversions divide by den, products
    multiply the denominators, and only forms of one den add up."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rational_ternary_forms(), rational_ternary_forms(), st.integers(-5, 5))
    def test_matches_mpoly(self, fd, gd, k):
        (d, f), (e, g) = fd, gd
        a, b = TernaryForm.of(f.terms, d), TernaryForm.of(g.terms, e)
        assert a.den == poly._denominator(f.terms.values())
        assert all(isinstance(c, int) for row in a.rows for c in row)
        assert a.mpoly() == f and a.terms() == f.terms
        for prod in (a * b, b * a, TernaryForm.dot([(2, a, b), (-1, b, a)])):
            assert prod.den == a.den * b.den
            assert prod.mpoly() == f * g
        assert (a + a).mpoly() == 2 * f and (a + a).den == a.den
        assert (a - k * a).mpoly() == (1 - k) * f and (k * a).den == a.den
        if d:
            for v in XYZ:
                assert a.partial(v).den == a.den
                assert a.partial(v).mpoly() == f.partial(v)
        for point in ((2, -3, 5), (0, 0, 1), (1, 0, 0), (-7, 11, 0)):
            assert a.eval(point) == f.eval(point)

    def test_eval_is_exact(self):
        a = TernaryForm.of({(1, 0, 0): Fraction(1, 2), (0, 0, 1): Fraction(1, 3)}, 1)
        assert a.den == 6
        assert a.eval((1, 0, 1)) == Fraction(5, 6)
        value = a.eval((2, 0, 3))
        assert value == 2 and type(value) is int
        value = TernaryForm.of({(1, 0, 0): 3}, 1).eval((2, 5, 7))
        assert value == 6 and type(value) is int

    def test_mismatched_denominators_raise(self):
        half = TernaryForm.of({(1, 0, 0): Fraction(1, 2)}, 1)
        third = TernaryForm.of({(0, 1, 0): Fraction(1, 3)}, 1)
        one = TernaryForm.of({(0, 0, 1): 1}, 1)
        for a, b in ((half, third), (half, one), (one, third)):
            with pytest.raises(PolyError):
                a + b
            with pytest.raises(PolyError):
                a - b
            with pytest.raises(PolyError):
                TernaryForm.dot([(1, a, a), (1, b, b)])
        # products of one den add up, whatever the factors
        sixth = TernaryForm.of({(1, 0, 0): Fraction(1, 6)}, 1)
        total = TernaryForm.dot([(1, half, third), (1, sixth, one)])
        assert total.den == 6
        assert total.mpoly() == half.mpoly() * third.mpoly() + sixth.mpoly() * one.mpoly()


FORM_TEXT_COEFFS = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-9, 9),
    st.integers(-(2**200), 2**200),
)


@st.composite
def printable_forms(draw):
    """A TernaryForm of degree 0..12 over den 1 or a den > 1, with rows all
    zero, all nonzero or mixed (so possibly the zero form), a common factor
    that may share primes with den, and a negative leading entry on about
    half the forms that have one."""
    d = draw(st.integers(0, 12))
    factor = draw(st.sampled_from([1, 1, 2, 6, 2**64]))
    rows = []
    for i in range(d + 1):
        kind = draw(st.sampled_from(["zero", "full", "holes"]))
        if kind == "zero":
            rows.append([0] * (d + 1 - i))
        else:
            coeff = FORM_TEXT_COEFFS.filter(bool) if kind == "full" else FORM_TEXT_COEFFS
            row = draw(st.lists(coeff, min_size=d + 1 - i, max_size=d + 1 - i))
            rows.append([factor * c for c in row])
    form = TernaryForm(d, rows, draw(st.sampled_from([1, 1, 2, 3, 12, 2**64])))
    lead = next((c for row in reversed(rows) for c in reversed(row) if c), 0)
    if draw(st.booleans()) and lead > 0:
        form = form * -1
    return form


class TestTernaryFormText:
    """A form prints and normalises straight from its rows, as its
    ``mpoly()`` does through ``MPoly``."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(printable_forms())
    def test_matches_mpoly(self, t):
        f = t.mpoly()
        assert str(t) == str(f)
        assert repr(t) == f"TernaryForm({t.degree}: {f})"
        (canon, scale), (want, want_scale) = t.canonical_with_scale(), f.canonical_with_scale()
        assert canon.mpoly() == want
        assert scale == want_scale and type(scale) is type(want_scale)

    def test_zero_form(self):
        zero = TernaryForm(2, [[0, 0, 0], [0, 0], [0]], 3)
        assert str(zero) == "0"
        assert zero.canonical_with_scale() == (zero, Fraction(0))

    def test_scale_types(self):
        # 6x^2 - 4y^2 over 2, 4x over 6 and -x^2 over 1
        cases = [
            (TernaryForm(2, [[0, 0, -4], [0, 0], [6]], 2), 1, "3*x^2 - 2*y^2"),
            (TernaryForm(1, [[0, 0], [4]], 6), Fraction(2, 3), "x"),
            (TernaryForm(2, [[0, 0, 0], [0, 0], [-1]]), -1, "x^2"),
        ]
        for form, scale, text in cases:
            canon, got = form.canonical_with_scale()
            assert (got, type(got), str(canon), canon.den) == (scale, type(scale), text, 1)


# -- the row kernel and fused sums against the padded multiply -----------------


@st.composite
def kernel_forms(draw, degree):
    """A TernaryForm of the given degree whose rows are each all zero, all
    drawn, or drawn with zeros among them; coefficients reach 2^70, past the
    machine-word digit widths."""
    rows = []
    for i in range(degree + 1):
        n = degree + 1 - i
        kind = draw(st.sampled_from(["zero", "full", "holes"]))
        if kind == "zero":
            rows.append([0] * n)
        else:
            coeff = TERNARY_COEFFS if kind == "full" else st.one_of(st.just(0), TERNARY_COEFFS)
            rows.append(draw(st.lists(coeff, min_size=n, max_size=n)))
    return TernaryForm(degree, rows)


DOT_MULTIPLES = st.sampled_from([0, 1, -1, 2, -2, 2**40, -(2**40)])


@st.composite
def dot_pairs(draw):
    """One to four (c, a, b) whose degrees sum to one total of 0..12, each
    split differently."""
    top = draw(st.integers(0, 12))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        da = draw(st.integers(0, top))
        pairs.append((draw(DOT_MULTIPLES), draw(kernel_forms(da)), draw(kernel_forms(top - da))))
    return pairs


def tuple_add_dot(pairs):
    """sum(c * a * b) as an MPoly, each product by adding exponent tuples."""
    total = MPoly.zero(XYZ)
    for c, a, b in pairs:
        total = total + c * MPoly(XYZ, dict(tuple_add_product(a.mpoly(), b.mpoly())))
    return total


def zero_form(degree):
    return TernaryForm(degree, [[0] * (degree + 1 - i) for i in range(degree + 1)])


class TestRowKernel:
    """``a * b`` and ``TernaryForm.dot`` against the padded two-dimensional
    multiply and the tuple-adding product, on both the loop and the row
    kernel."""

    @pytest.fixture(params=["loop", "kernel"])
    def path(self, request, monkeypatch):
        # every sum of nonzero pairs loops, or none does
        limit = 10**9 if request.param == "loop" else -1
        monkeypatch.setattr(poly, "_LOOP_PAIRS_PER_SLOT", limit)
        return request.param

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_product_matches_references(self, path, data):
        da, db = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
        a, b = data.draw(kernel_forms(da)), data.draw(kernel_forms(db))
        want = padded_product(a, b)
        assert want.mpoly() == MPoly(XYZ, dict(tuple_add_product(a.mpoly(), b.mpoly())))
        for prod in (a * b, b * a, TernaryForm.dot([(1, a, b)])):
            assert prod.degree == da + db
            assert prod.rows == want.rows

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dot_pairs())
    def test_dot_matches_references(self, path, pairs):
        top = pairs[0][1].degree + pairs[0][2].degree
        want = zero_form(top)
        for c, a, b in pairs:
            want = want + c * padded_product(a, b)
        got = TernaryForm.dot(pairs)
        assert got.degree == top
        assert got.rows == want.rows
        assert got.mpoly() == tuple_add_dot(pairs)

    def test_zero_pairs_keep_the_degree(self, path):
        a, b = TernaryForm.of({(1, 1, 0): 3}, 2), TernaryForm.of({(0, 0, 3): -5}, 3)
        for pairs in ([(0, a, b)], [(1, zero_form(2), b)], [(2, a, zero_form(3)), (0, b, a)]):
            got = TernaryForm.dot(pairs)
            assert got.degree == 5 and got.rows == zero_form(5).rows
        got = TernaryForm.dot([(0, a, b), (-2, a, b)])
        assert got.terms() == {(1, 1, 3): 30}

    def test_cancelling_pairs(self, path):
        rng = random.Random(22)
        a = TernaryForm(6, [[rng.randint(-(2**70), 2**70) for _ in range(7 - i)] for i in range(7)])
        b = TernaryForm(5, [[rng.randint(-(2**70), 2**70) for _ in range(6 - i)] for i in range(6)])
        assert TernaryForm.dot([(2**40, a, b), (-(2**40), b, a)]).is_zero()
        assert TernaryForm.dot([(1, a, b), (1, a, b), (-2, b, a)]).rows == zero_form(11).rows

    def test_degrees_must_agree(self):
        a = TernaryForm.of({(1, 0, 0): 1}, 1)
        with pytest.raises(PolyError):
            TernaryForm.dot([(1, a, a), (1, a, a * a)])

    def test_dense_sums_take_the_kernel(self, monkeypatch):
        ran = []
        kernel = poly._row_kernel

        def spy(pairs, top):
            ran.append(len(pairs))
            return kernel(pairs, top)

        monkeypatch.setattr(poly, "_row_kernel", spy)
        rng = random.Random(5)

        def dense(d):
            return TernaryForm(d, [[rng.randint(-9, 9) or 1 for _ in range(d + 1 - i)] for i in range(d + 1)])

        a, b = dense(1), dense(2)
        TernaryForm.dot([(1, a, b), (-1, b, a)])  # 36 pairs of terms, 12 row products
        assert ran == []
        a, b = dense(6), dense(8)
        TernaryForm.dot([(1, a, b), (2, b, a)])  # 2 * 28 * 45 pairs, 126 row products
        assert ran == [2]


# -- evaluation in the integers against the Fraction loop ----------------------


def eval_by_fractions(f, values):
    """The value at a point by one Fraction product per term."""
    values = [Fraction(v) for v in values]
    total = Fraction(0)
    for expo, c in f.terms.items():
        term = Fraction(c)
        for v, e in zip(values, expo):
            if e:
                term *= v**e
        total += term
    return poly._norm(total)


EVAL_COEFFS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40)),
)
EVAL_VALUES = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64)),
)


@st.composite
def polys_and_points(draw):
    variables = XYZ[: draw(st.integers(1, 3))]
    expo = st.tuples(*[st.integers(0, 7)] * len(variables))
    terms = draw(st.dictionaries(expo, EVAL_COEFFS, max_size=8))
    return MPoly(variables, terms), draw(st.lists(EVAL_VALUES, min_size=len(variables),
                                                  max_size=len(variables)))


class TestEval:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(polys_and_points())
    def test_matches_fraction_loop(self, case):
        f, point = case
        got, want = f.eval(point), eval_by_fractions(f, point)
        assert got == want
        assert type(got) is type(want)

    def test_mixed_degrees_and_types(self):
        f = X**2 * Y - Fraction(1, 3) * Z + 5
        for point in [(1, 2, 3), (Fraction(1, 2), Fraction(-2, 3), 3), ("1/2", 0.5, 1)]:
            assert f.eval(point) == eval_by_fractions(f, point)
        assert f.eval((0, 0, 15)) == 0 and type(f.eval((0, 0, 15))) is int
        assert MPoly.zero(XYZ).eval((1, 2, 3)) == 0
        with pytest.raises(VariableSetMismatch):
            f.eval((1, 2))


# -- one Horner for ternary forms and one writer for sums of terms -------------

# integer point coordinates, zero often among them
HORNER_COORDS = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**64), 2**64))
HORNER_POINTS = st.tuples(HORNER_COORDS, HORNER_COORDS, HORNER_COORDS)


@st.composite
def sparse_rows(draw):
    """(degree, rows, form): up to 8 terms of a form of degree 0..40 as
    degree + 1 rows, each running up to its largest power of y and empty
    without terms, as ``pullback`` builds them; or, when ``full`` is drawn,
    each padded with zeros to its whole length, so a row without terms is
    all zeros."""
    d = draw(st.integers(0, 40))
    cell = st.integers(0, d).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, d - a)))
    terms = draw(st.dictionaries(cell, TERNARY_COEFFS.filter(bool), max_size=8))
    full = draw(st.booleans())
    rows = [[0] * (d + 1 - a) if full else [] for a in range(d + 1)]
    for (a, b), c in terms.items():
        row = rows[a]
        row.extend([0] * (b + 1 - len(row)))
        row[b] = c
    return d, rows, MPoly(XYZ, {(a, b, d - a - b): c for (a, b), c in terms.items()})


class TestRowsAt:
    """``_rows_at`` is the one Horner of a ternary form held as rows; the
    reference is ``MPoly.eval``."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(ternary_forms(), HORNER_POINTS)
    def test_dense_rows(self, a, point):
        want = a.mpoly().eval(point)
        assert poly._rows_at(a.rows, a.degree, *point) == want
        assert a.eval(point) == want

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rational_ternary_forms(), HORNER_POINTS)
    def test_form_over_its_denominator(self, fd, point):
        d, f = fd
        a = TernaryForm.of(f.terms, d)
        got, want = a.eval(point), f.eval(point)
        assert got == want
        assert type(got) is type(want)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(sparse_rows(), HORNER_POINTS)
    def test_short_rows_from_sparse_terms(self, case, point):
        d, rows, f = case
        assert poly._rows_at(rows, d, *point) == f.eval(point)

    def test_zero_rows_and_coordinates(self):
        assert poly._rows_at([[], [], []], 2, 3, 4, 5) == 0
        assert poly._rows_at([[0, 0, 0], [0, 0], [0]], 2, 3, 4, 5) == 0
        # x^2 + y z + z^2 with the zero entries of rows 0 and 1 left out
        rows = [[1, 1], [], [1]]
        assert poly._rows_at(rows, 2, 2, 3, 5) == 4 + 15 + 25
        assert poly._rows_at(rows, 2, 2, 3, 0) == 4
        assert poly._rows_at(rows, 2, 0, 0, 5) == 25
        assert poly._rows_at(rows, 2, 0, 0, 0) == 0


def print_coeffs():
    """Rational coefficients: ints, Fractions, and many +-1 and +-1/n."""
    return st.one_of(
        st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 3)]),
        st.integers(-(2**70), 2**70),
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
    )


@st.composite
def printable_polys(draw):
    """An inhomogeneous MPoly in one to four variables of total degree 0 to
    15, so that two-digit exponents print, with int and Fraction
    coefficients, +-1 among them; a constant or zero now and then."""
    variables = draw(st.sampled_from([XYZ, ST, ("u",), ("a", "b", "c", "d")]))
    terms = {}
    for _ in range(draw(st.sampled_from([0, 1, 4, 12, 30]))):
        left, expo = draw(st.integers(0, 15)), []
        for _ in variables:
            expo.append(draw(st.integers(0, left)))
            left -= expo[-1]
        terms[tuple(draw(st.permutations(expo)))] = draw(print_coeffs())
    return MPoly(variables, terms)


@st.composite
def printable_series(draw):
    trunc = draw(st.integers(1, 12))
    return TruncSeries(draw(st.dictionaries(st.integers(0, trunc - 1), print_coeffs())), trunc)


class TestTermsStr:
    """``_terms_str`` writes every sum of terms.  The references are the
    ``TruncSeries`` printer it replaced and the ``MPoly`` printer before its
    two sorts, which took ``sorted_terms``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(printable_polys())
    def test_mpoly_text(self, f):
        assert str(f) == mpoly_str_reference(f)

    @pytest.mark.parametrize("f", [MPoly.constant((), Fraction(-5, 3)), MPoly.constant((), 1), MPoly.zero(())])
    def test_mpoly_text_without_variables(self, f):
        assert str(f) == mpoly_str_reference(f)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(printable_series())
    def test_series_text(self, a):
        assert str(a) == series_str_reference(a)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(print_coeffs(), st.sampled_from(["", "x", "x^2*y", "t^3"]))))
    def test_int_and_fraction_pairs(self, pairs):
        pairs = [(c, mono) for c, mono in pairs if c]
        assert poly._terms_str(pairs) == terms_str_reference(pairs)

    def test_int_over_the_digit_limit(self):
        with pytest.raises(poly.IntegerTooLong):
            poly._terms_str([(1, "x"), (-(10**5000), "y")])

    @pytest.mark.parametrize(
        "pairs, bits",
        [
            ([(1, "x"), (-(10**5000), "y")], 16610),
            ([(Fraction(-(10**5000) - 1, 3), "x")], 16610),
            ([(2, ""), (Fraction(5, 10**4400 + 1), "y")], 14617),
            # both over the limit: the numerator is named
            ([(Fraction(3 * 10**6000 + 1, 10**4400 + 1), "")], 19934),
        ],
        ids=["int", "numerator", "denominator", "both"],
    )
    def test_over_limit_message(self, pairs, bits):
        # the messages the writer gave before its per-term f-string
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(poly.IntegerTooLong) as err:
                poly._terms_str(iter(pairs))
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(err.value) == f"a computed integer of {bits} bits is over the limit of 4300 digits for printing"

    def test_edge_cases(self):
        assert str(MPoly.zero(XYZ)) == "0"
        assert str(MPoly.constant(XYZ, -1)) == "-1"
        assert str(-X**2 + Fraction(1, 2) * Y - 1) == "-x^2 + 1/2*y - 1"
        assert str(TruncSeries({}, 4)) == "O(t^4)"
        assert str(TruncSeries({0: -1, 1: 1, 3: Fraction(-2, 3)}, 5)) == "-1 + t - 2/3*t^3 + O(t^5)"
        assert poly._terms_str([]) == ""
        assert poly._point_str((1, Fraction(-1, 2), 0)) == "(1 : -1/2 : 0)"


dense_coeffs = st.one_of(st.integers(-1, 1), st.integers(-(2**200), 2**200))


class TestUStr:
    """``_u_str`` writes a dense binary-form list without building its
    ``MPoly``; the reference is that ``MPoly``'s text."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(dense_coeffs, min_size=1, max_size=60), st.sampled_from([ST, ("u", "v")]))
    def test_matches_form_text(self, u, names):
        assert poly._u_str(u, names) == str(poly._form(u, 0, 0, names))

    @pytest.mark.parametrize(
        "u, text",
        [
            ([0], "0"),
            ([0, 0, 0, 0], "0"),
            ([-1], "-1"),
            ([0, 1], "s"),
            ([1, 0, 0], "t^2"),
            ([0, 0, -1], "-s^2"),
            ([0, -1, 0], "-s*t"),
            ([5, -1, 1, 0], "s^2*t - s*t^2 + 5*t^3"),
        ],
    )
    def test_zeros_and_units(self, u, text):
        assert poly._u_str(u, ST) == text == str(poly._form(u, 0, 0, ST))


class TestPartial:
    def test_power_rule(self):
        assert (X**3).partial("x") == 3 * X**2

    def test_linear_in_z(self):
        f = Y**2 * Z - X**3 - X**2 * Z
        assert f.partial("z") == Y**2 - X**2

    def test_euler_identity_quartic(self):
        f = X**4 - X**3 * Y + Y**3 * Z
        assert X * f.partial("x") + Y * f.partial("y") + Z * f.partial("z") == 4 * f

    def test_euler_identity_random(self):
        rng = random.Random(7)
        for _ in range(60):
            d = rng.randint(3, 5)
            f = random_poly(rng, XYZ, d, 6, homogeneous=d)
            lhs = X * f.partial("x") + Y * f.partial("y") + Z * f.partial("z")
            assert lhs == d * f

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            X.partial("t")


class TestVeronese:
    def test_matches_composed_conic_monomials(self):
        rng = random.Random("veronese")
        for _ in range(20):
            images = [random_poly(rng, XYZ, 3, 4) for _ in range(3)]
            want = [MPoly(XYZ, {e: 1}).compose(images) for e in CONIC_BASIS]
            assert list(veronese(*images)) == want

    def test_plain_numbers(self):
        u, v, w = 2, Fraction(1, 3), -5
        want = [u**a * v**b * w**c for a, b, c in CONIC_BASIS]
        assert list(veronese(u, v, w)) == want

    def test_conic_is_dual_to_veronese(self):
        rng = random.Random("conic")

        def rational():
            return rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))])

        for _ in range(40):
            six = [rational() for _ in CONIC_BASIS]
            p = [rational() for _ in XYZ]
            c = poly.conic(six)
            assert c.variables == XYZ
            assert c.eval(p) == sum(a * m for a, m in zip(six, veronese(*p)))
        assert poly.conic([0] * 6).is_zero()


class TestDeterminant:
    def test_identity(self):
        one = MPoly.constant(XYZ, 1)
        zero = MPoly.zero(XYZ)
        m = PolyMatrix([[one, zero, zero], [zero, one, zero], [zero, zero, one]])
        assert m.det() == one

    def hessian_matrix(self, f):
        return PolyMatrix([[f.partial(u).partial(v) for v in XYZ] for u in XYZ])

    def test_nodal_cubic_hessian(self):
        # hand cofactor expansion gives 24xy^2 + 8y^2z - 8x^2z; cross-check
        # the frozen value against an independent CAS determinant
        f = Y**2 * Z - X**3 - X**2 * Z
        frozen = 24 * X * Y**2 + 8 * Y**2 * Z - 8 * X**2 * Z
        x, y, z = sympy.symbols("x y z")
        oracle = sympy.expand(sympy.hessian(y**2 * z - x**3 - x**2 * z, (x, y, z)).det())
        assert oracle == to_sympy(frozen)
        m = self.hessian_matrix(f)
        assert det_bareiss(m) == frozen
        assert m.det() == frozen

    def test_wronskian_matrix_golden(self):
        # fifth-order partial matrix of the degree-2 products of
        # (s^5, s^3 t^2, t^5); its determinant is a known monomial
        p0, p1, p2 = S**5, S**3 * T**2, T**5
        cols = [p0 * p0, p1 * p1, p2 * p2, p1 * p2, p0 * p2, p0 * p1]
        rows = []
        for r in range(6):
            row = []
            for f in cols:
                g = f
                for _ in range(5 - r):
                    g = g.partial("s")
                for _ in range(r):
                    g = g.partial("t")
                row.append(g)
            rows.append(row)
        golden = MPoly(ST, {(17, 13): -(2**25) * 3**13 * 5**5 * 7**5})
        m = PolyMatrix(rows)
        assert det_bareiss(m) == golden
        assert m.det() == golden

    def test_bareiss_equals_cofactor_and_oracle_random(self):
        rng = random.Random(41)
        for _ in range(10):
            entries = [
                [random_poly(rng, XYZ, 2, 3) for _ in range(4)] for _ in range(4)
            ]
            m = PolyMatrix(entries)
            db = det_bareiss(m)
            dc = m.det()
            assert db == dc
            oracle = sympy.expand(
                sympy.Matrix(4, 4, lambda i, j: to_sympy(entries[i][j])).det()
            )
            assert oracle == to_sympy(db)

    def test_non_square(self):
        with pytest.raises(NonSquareMatrix):
            PolyMatrix([[X, Y]]).det()

    def test_zero_column(self):
        zero = MPoly.zero(XYZ)
        m = PolyMatrix([[zero, X], [zero, Y]])
        assert det_bareiss(m).is_zero()
        assert m.det().is_zero()

    def test_laplace_minors_of_rationals(self):
        # virtual top row (a, b, c): det = a*m0 + b*m1 + c*m2
        h = Fraction(1, 2)
        rows = [[1, 2, 3], [4, 5, h]]
        assert laplace_minors(rows) == [2 * h - 3 * 5, -(1 * h - 3 * 4), 1 * 5 - 2 * 4]
        assert laplace_minors([[0, 0]]) == [0, 0]
        assert laplace_minors([]) == [1]

    def test_laplace_minors_match_bareiss(self):
        rng = random.Random(43)
        rows = [[random_poly(rng, XYZ, 2, 3) for _ in range(5)] for _ in range(4)]
        rows[1][2] = MPoly.zero(XYZ)
        for j, minor in enumerate(laplace_minors(rows)):
            want = det_bareiss(PolyMatrix([r[:j] + r[j + 1 :] for r in rows]))
            assert minor == (want if j % 2 == 0 else -want)

    @pytest.mark.parametrize("k", range(7))
    def test_laplace_minors_match_bareiss_by_size(self, k):
        rng = random.Random(f"laplace/{k}")
        rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(k + 1)] for _ in range(k)]
        if k:
            zero_col = rng.randrange(k + 1)
            for row in rows:
                row[zero_col] = 0
        got = laplace_minors(rows)
        assert len(got) == k + 1
        if not k:
            assert got == [1]
            return
        for j, minor in enumerate(got):
            sub = [[MPoly.constant(XYZ, c) for c in r[:j] + r[j + 1 :]] for r in rows]
            want = det_bareiss(PolyMatrix(sub))
            assert MPoly.constant(XYZ, minor) == (want if j % 2 == 0 else -want)
            # every minor keeping the zero column vanishes
            assert minor == 0 or j == zero_col

    def test_laplace_minors_of_polynomials_with_a_zero_column(self):
        rng = random.Random(44)
        zero = MPoly.zero(ST)
        rows = [[random_poly(rng, ST, 2, 3) for _ in range(6)] for _ in range(5)]
        for row in rows:
            row[3] = zero
        rows[0][1] = rows[4][5] = zero
        got = laplace_minors(rows)
        for j, minor in enumerate(got):
            want = det_bareiss(PolyMatrix([r[:j] + r[j + 1 :] for r in rows]))
            assert minor == (want if j % 2 == 0 else -want)
        assert all(m.is_zero() for j, m in enumerate(got) if j != 3)
        assert not got[3].is_zero()

    def test_one_by_one(self):
        assert PolyMatrix([[X]]).det() == X


class TestExactDiv:
    def test_exact(self):
        assert exact_div((X + Y) * (X - Y), X + Y) == X - Y

    def test_not_exact(self):
        with pytest.raises(ExactDivisionError):
            exact_div(X**2 + Y, X + Y)

    def test_by_zero(self):
        with pytest.raises(ExactDivisionError):
            exact_div(X, MPoly.zero(XYZ))

    def test_random_products(self):
        rng = random.Random(3)
        for _ in range(25):
            a = random_poly(rng, XYZ, 4, 4)
            b = random_poly(rng, XYZ, 4, 4)
            assert exact_div(a * b, b) == a


# -- binary forms on dense integer lists --------------------------------------

FORM_COEFFS = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=5)
)


@st.composite
def binary_forms(draw):
    """c * s^a * t^b * prod(atom_i ** k_i) with rational atoms of degree 1-2."""
    f = MPoly.constant(ST, draw(FORM_COEFFS.filter(bool)))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(FORM_COEFFS, min_size=2, max_size=3))
        atom = MPoly(ST, {(i, len(coeffs) - 1 - i): c for i, c in enumerate(coeffs)})
        if atom.degree():
            f = f * atom ** draw(st.integers(1, 3))
    return f * S ** draw(st.integers(0, 4)) * T ** draw(st.integers(0, 4))


def orders_by_division(f, at):
    """Reference: the MPoly repeated-division loop that linear_factor_orders
    ran before binary forms became dense integer lists."""
    s0, t0 = Fraction(at[0]), Fraction(at[1])
    form = linear_root_form((s0, t0))
    k = 0
    while f.eval((s0, t0)) == 0:
        f = exact_div(f, form)
        k += 1
        if f.degree() == 0:
            break
    return k


class TestSquarefree:
    def test_monomial(self):
        content, factors = squarefree_decomp(S**17 * T**13)
        assert content == 1
        assert [(str(p), m) for p, m in factors] == [("s", 17), ("t", 13)]

    def test_mixed(self):
        content, factors = squarefree_decomp(S**2 * (S + T) ** 3)
        assert content == 1
        assert [(str(p), m) for p, m in factors] == [("s", 2), ("s + t", 3)]

    def test_wronskian_shape(self):
        # squarefree split of c * s^17 t^10 (192 s^3 + 1680 s^2 t + 5275 s t^2 + 5250 t^3)
        cubic = 192 * S**3 + 1680 * S**2 * T + 5275 * S * T**2 + 5250 * T**3
        c = -(2**24) * 3**12 * 5**2 * 7**4
        xi = MPoly.constant(ST, c) * S**17 * T**10 * cubic
        content, factors = squarefree_decomp(xi)
        assert content == c
        assert [(str(p), m) for p, m in factors] == [
            ("s", 17),
            ("t", 10),
            (str(cubic), 1),
        ]

    def test_reconstruction_random(self):
        rng = random.Random(11)
        atoms = [S, T, S + T, S - T, 2 * S + T, S + 3 * T, S**2 + T**2]
        for _ in range(25):
            f = MPoly.constant(ST, rng.choice([-3, -2, -1, 1, 2, 3]))
            for p in rng.sample(atoms, rng.randint(1, 4)):
                f = f * p ** rng.randint(1, 3)
            content, factors = squarefree_decomp(f)
            rebuilt = MPoly.constant(ST, content)
            for p, m in factors:
                rebuilt = rebuilt * p**m
            assert rebuilt == f
            # factors squarefree (coprime with their derivative) and pairwise coprime
            for i, (p, _) in enumerate(factors):
                if p.degree() > 1 and not p.partial("s").is_zero():
                    assert gcd_form(p, p.partial("s")).degree() == 0
                for q, _ in factors[i + 1 :]:
                    assert gcd_form(p, q).degree() == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroFormError):
            squarefree_decomp(MPoly.zero(ST))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(binary_forms())
    def test_matches_sympy_sqf_list(self, f):
        content, factors = squarefree_decomp(f)
        rebuilt = MPoly.constant(ST, content)
        for p, m in factors:
            rebuilt = rebuilt * p**m
            assert all(isinstance(c, int) for c in p.terms.values())
            assert p.canonical() == p
        assert rebuilt == f
        # sympy groups the factors of equal multiplicity into one product
        ours = {}
        for p, m in factors:
            ours[m] = ours.get(m, 1) * to_sympy(p)
        _, theirs = sympy.sqf_list(to_sympy(f), *sympy.symbols("s t"))
        theirs = {m: g for g, m in theirs if sympy.Poly(g, *sympy.symbols("s t")).total_degree()}
        assert sorted(ours) == sorted(theirs)
        for m, g in theirs.items():
            assert sympy.cancel(ours[m] / g).is_number

    def test_reconstruction_check_raises(self, monkeypatch):
        # a split whose product is not the form must not pass silently
        monkeypatch.setattr(poly, "_u_squarefree", lambda u: [(u, 2)])
        with pytest.raises(AssertionError):
            squarefree_decomp((S + T) * (S + 2 * T))


def split_linear(f):
    """``split_linear_factors`` of a squarefree form f, as ``conic_wronskian``
    calls it: on f's core, with f's powers of s and t as the roots (0 : 1)
    and (1 : 0).  Each root comes with its ``linear_root_form``, and the rest
    is read back as an ``MPoly``."""
    u, _, a, b = poly._dense(f)
    roots, rest = split_linear_factors(u)
    roots = sorted(roots + [(0, 1)] * (a > 0) + [(1, 0)] * (b > 0))
    return [(r, linear_root_form(r)) for r in roots], rest and poly._form(rest, 0, 0, ST)


def dense_list(f):
    """The dense integer list of a nonzero primitive-content-free form, as the
    ``_u_*`` helpers see it."""
    return poly._dense(f)[0]


def repeated_factor_row(n1, n2, bits):
    """The ROADMAP Baseline's repeated-factor row: a of degree n1, then b of
    degree n2, from a fresh ``Random(7)``, coefficients in [-2^bits, 2^bits]."""
    rng = random.Random(7)
    a, b = (
        MPoly(ST, {(i, n - i): rng.randint(-(2**bits), 2**bits) for i in range(n + 1)})
        for n in (n1, n2)
    )
    return a, b


@st.composite
def wide_lists(draw, low, high):
    """A trimmed dense list of degree low..high with coefficients up to 2^100."""
    n = draw(st.integers(low, high))
    big = st.integers(-(2**100), 2**100)
    return draw(st.lists(big, min_size=n, max_size=n)) + [draw(big.filter(bool))]


class TestCoprimeCertificate:
    """``_u_gcd`` is the heuristic gcd at xi = 2^(8w), w the digit width of
    the operands' largest |coefficient| + 1: gamma = gcd(a(xi), b(xi)) below
    xi/2 certifies coprime operands, and otherwise the primitive part of
    gamma's signed base-xi digits is the gcd once it divides both operands
    exactly; if it does not, w doubles.  Several tests keep the inputs on
    which the modular gcd over a prime table, which this replaced, skipped or
    climbed primes.  ``prs_gcd``, the primitive PRS, is the reference."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(binary_forms(), binary_forms())
    def test_matches_bare_prs(self, f, g):
        a, b = dense_list(f), dense_list(g)
        assert poly._u_gcd(a, b) == prs_gcd(a, b)
        assert poly._u_gcd(b, a) == prs_gcd(b, a)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(binary_forms())
    def test_matches_bare_prs_on_the_derivative(self, f):
        # Yun's first gcd: repeated factors make it nontrivial
        u = dense_list(f)
        d = poly._u_deriv(u)
        assert poly._u_gcd(u, d) == prs_gcd(u, d)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(wide_lists(1, 3), wide_lists(0, 3), wide_lists(0, 3))
    def test_matches_bare_prs_on_wide_shared_factors(self, h, c1, c2):
        # coefficients of about 300 bits: a digit width past the machine
        # words, read back from fields spread over several 8-byte limbs
        a = poly._u_mul(poly._u_mul(h, h), c1)
        b = poly._u_mul(h, c2)
        assert poly._u_gcd(a, b) == prs_gcd(a, b)
        assert poly._u_gcd(b, a) == prs_gcd(b, a)
        d = poly._u_deriv(a)
        assert poly._u_gcd(a, d) == prs_gcd(a, d)

    def spy_widths(self, monkeypatch):
        """The digit width of every ``_pack`` call, two per point tried."""
        widths = []
        pack = poly._pack

        def spy(u, w):
            widths.append(w)
            return pack(u, w)

        monkeypatch.setattr(poly, "_pack", spy)
        return widths

    def test_repeated_factor_is_not_certified(self):
        u = dense_list((S + 2 * T) ** 3 * (S - T))
        assert poly._u_gcd(u, poly._u_deriv(u)) == dense_list((S + 2 * T) ** 2)

    def test_constants_and_zero(self):
        assert poly._u_gcd([5], [0]) == [1]
        assert poly._u_gcd([0], [3, 1]) == [3, 1]
        assert poly._u_gcd([2, 4], [6]) == [1]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        wide_lists(1, 3),
        wide_lists(0, 3),
        wide_lists(0, 3),
        st.integers(1, 2**100),
        st.integers(1, 2**100),
    )
    def test_planted_common_factor_is_never_certified(self, h, c1, c2, k1, k2):
        # h divides both operands, which carry contents k1 and k2, so their
        # gcd has degree at least 1 and the certificate must decline
        a = [k1 * c for c in poly._u_mul(h, c1)]
        b = [k2 * c for c in poly._u_mul(h, c2)]
        for x, y in ((a, b), (b, a)):
            g = poly._u_gcd(x, y)
            assert g == prs_gcd(x, y)
            assert g != [1]

    def test_declined_certificate_falls_back_to_the_modular_gcd(self):
        # a(10) = 11 divides b(10) = 110, so the Landau-Mignotte point B = 10
        # of the certificate this replaced declined these coprime operands
        assert poly._u_gcd([1, 1], [10, 0, 1]) == [1]

    # Two pairs from a seeded search (random.Random(0), dense lists of
    # degree 1 to 6 with coefficients in [-3, 3], half of them times a random
    # common factor of degree 1 or 2) whose first point, xi = 2^8, reads back
    # digits that divide neither operand, so a second width is evaluated.
    @pytest.mark.parametrize(
        "a,b",
        [([2, 3, -2, -3], [3, 0, 2]), ([9, 15, -3, -18, -3, 6], [0, 6, 9, 3])],
        ids=["coprime", "common-factor"],
    )
    def test_declined_first_point_doubles_the_width(self, a, b, monkeypatch):
        widths = self.spy_widths(monkeypatch)
        assert poly._u_gcd(a, b) == prs_gcd(a, b)
        assert widths == [1, 1, 2, 2]

    def test_coprime_operands_skip_the_prs(self):
        assert poly._u_gcd([1, 2, 3], [5, 0, 7]) == [1]

    def test_prime_dividing_one_leading_coefficient_uses_the_other(self):
        p = 2**30 - 35
        assert poly._u_gcd([1, 2, p], [3, 1]) == [1]

    def test_next_prime_when_the_first_divides_both(self):
        p = 2**30 - 35
        assert poly._u_gcd([1, 2, p], [3, 2 * p]) == [1]

    def test_fallback_when_every_prime_divides_both_leads(self):
        lead = (2**30 - 35) * (2**30 - 41) * (2**30 - 83)
        a, b = [1, 0, lead], [3, lead]
        assert poly._u_gcd(a, b) == [1]

    def test_prime_divides_the_leading_coefficient_of_a_common_factor(self):
        p = 2**30 - 35
        h = p * S + T
        f, g = h * (S + 2 * T), h * (S - 3 * T) ** 2
        assert gcd_form(f, g) == h
        _, factors = squarefree_decomp(h**2 * (S - 3 * T))
        assert (h, 2) in factors and (S - 3 * T, 1) in factors

    def test_the_first_two_primes_divide_the_common_factors_lead(self):
        # a 91-bit leading coefficient in the common factor
        h = (2**30 - 35) * (2**61 - 1) * S - T
        f, g = h * (S + 2 * T), h**2 * (S - 3 * T)
        assert gcd_form(f, g) == h

    def test_no_prime_answers(self, monkeypatch):
        # with the width cap under the first width, the first point that
        # declines is the last one tried
        monkeypatch.setattr(poly, "_GCD_MAX_BITS", 4)
        with pytest.raises(poly.IntegerTooLong):
            poly._u_gcd([2, 3, -2, -3], [3, 0, 2])
        assert poly._u_gcd([1, 2, 3], [5, 0, 7]) == [1]

    @pytest.mark.parametrize("n1,n2,bits", [(10, 40, 30), (20, 60, 60), (30, 100, 100)])
    def test_baseline_repeated_factor_rows(self, n1, n2, bits):
        # the primitive PRS took 0.27 / 6.5 / 97 s on these rows
        a, b = repeated_factor_row(n1, n2, bits)
        start = time.perf_counter()
        _, factors = squarefree_decomp(a * a * b)
        elapsed = time.perf_counter() - start
        assert factors == [(a.canonical(), 2), (b.canonical(), 1)]
        assert elapsed < 1.0


# the product of the first three primes of ``_ROOT_PRIMES``: roots that differ
# by a multiple of it agree modulo each of them
FIRST_PRIMES = 11 * 13 * 17


def product(lists):
    u = [1]
    for v in lists:
        u = poly._u_mul(u, v)
    return u


@st.composite
def root_lists(draw):
    """(u, roots): a squarefree primitive dense list with u[0] != 0 and end
    coefficients below 2^24, the product of linear factors q*x - p and of
    root-free quadratics, and its rational roots in ``projective_ints`` form.

    Denominators are multiples of 1, 11, 13 or 143, so they share factors
    with the lead, and the first primes of ``_ROOT_PRIMES`` divide some
    leads.  A root may be an earlier one moved by a multiple of 11, 143 or
    11 * 13 * 17, so that the two agree modulo those primes, and a quadratic
    (b*x - a)^2 + m*e with 11 | m is a square modulo 11: both leave u with a
    repeated factor modulo the first primes.
    """
    roots, factors = set(), []
    for _ in range(draw(st.integers(0, 3))):
        if roots and draw(st.booleans()):
            a, b = draw(st.sampled_from(sorted(roots)))
            m = draw(st.sampled_from([11, 143, FIRST_PRIMES]))
            a += m * b * draw(st.integers(-2, 2).filter(bool))
        else:
            a = draw(st.integers(-40, 40).filter(bool))
            b = draw(st.integers(1, 9)) * draw(st.sampled_from([1, 11, 13, 143]))
        root = projective_ints((a, b))
        if a and root not in roots:
            roots.add(root)
            factors.append([-root[0], root[1]])
    quadratics = set()
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            a, b = draw(st.integers(-9, 9)), draw(st.integers(1, 9))
            m = draw(st.sampled_from([1, 11, 143])) * draw(st.integers(1, 5))
            q = [a * a + m, -2 * a * b, b * b]
        else:
            q = [draw(st.integers(-30, 30).filter(bool)) for _ in range(3)]
        disc = q[1] ** 2 - 4 * q[0] * q[2]
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            continue
        q = tuple(primitive_ints(q, q[-1])[0])
        if q not in quadratics:
            quadratics.add(q)
            factors.append(list(q))
    assume(factors)
    u = product(factors)
    assume(abs(u[0]) < 2**24 and abs(u[-1]) < 2**24)
    return u, sorted(roots)


def spy_root_primes(mp):
    """Record (p, accepted) for each prime that ``_rational_roots`` tries:
    accepted when ``_simple_roots_mod`` finds every root of u mod p simple."""
    seen = []
    roots_mod = poly._simple_roots_mod

    def spy(u, du, p):
        roots = roots_mod(u, du, p)
        seen.append((p, roots is not None))
        return roots

    mp.setattr(poly, "_simple_roots_mod", spy)
    return seen


def first_good_prime(u):
    """The first prime of ``_ROOT_PRIMES`` that does not divide the lead and
    at which u' vanishes at no root of u mod p, by brute force over the
    residues."""
    du = [i * c for i, c in enumerate(u)][1:]

    def at(v, r, p):
        return sum(c * r**i for i, c in enumerate(v)) % p

    return next(
        p
        for p in poly._ROOT_PRIMES
        if u[-1] % p and all(at(du, r, p) for r in range(p) if not at(u, r, p))
    )


def assert_first_good_prime(u, seen):
    """The primes tried are those of the list up to the first good one, less
    those that divide the lead; each was refused but the last."""
    good = first_good_prime(u)
    listed = poly._ROOT_PRIMES[: poly._ROOT_PRIMES.index(good) + 1]
    assert [p for p, _ in seen] == [p for p in listed if u[-1] % p]
    assert [ok for _, ok in seen] == [False] * (len(seen) - 1) + [True]


class TestRationalRoots:
    """``_rational_roots`` finds the roots of u modulo the first good prime of
    ``_ROOT_PRIMES`` and lifts them p-adically; ``rational_roots_by_division``,
    the trial division it replaced, is the reference."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(root_lists())
    def test_matches_trial_division(self, case):
        u, roots = case
        with pytest.MonkeyPatch.context() as mp:
            seen = spy_root_primes(mp)
            got = poly._rational_roots(u)
        assert got == roots == rational_roots_by_division(u)
        if len(u) > 2:
            assert_first_good_prime(u, seen)

    def test_skips_primes_that_divide_the_lead_or_merge_roots(self, monkeypatch):
        # lead 121: 11 is not tried; 1/11 and 1574/11 differ by 143 and
        # agree modulo 13, a double root there, which is refused; 17 answers
        seen = spy_root_primes(monkeypatch)
        u = product([[-1, 11], [-1574, 11]])
        assert poly._rational_roots(u) == [(1, 11), (1574, 11)]
        assert seen == [(13, False), (17, True)]
        assert first_good_prime(u) == 17

    def test_skips_primes_modulo_which_a_quadratic_is_a_square(self, monkeypatch):
        # s^2 + 143 t^2 is s^2 modulo 11 and 13, a double root at 0
        seen = spy_root_primes(monkeypatch)
        u = product([[143, 0, 1], [2, 1]])
        assert poly._rational_roots(u) == [(2, -1)]
        assert seen == [(11, False), (13, False), (17, True)]
        assert first_good_prime(u) == 17

    def test_no_root_modulo_p_checks_no_candidate(self, monkeypatch):
        # -1 is not a square modulo 11
        def no_check(u, p, q):
            raise AssertionError("a candidate was checked")

        monkeypatch.setattr(poly, "_u_at", no_check)
        assert poly._rational_roots([1, 0, 1]) == []
        assert poly._rational_roots(product([[1, 0, 1], [5, 0, 3]])) == []

    def test_no_prime_answers(self, monkeypatch):
        monkeypatch.setattr(poly, "_ROOT_PRIMES", (11, 13))
        with pytest.raises(poly.IntegerTooLong):
            poly._rational_roots(product([[143, 0, 1], [2, 1]]))

    def test_roots_above_2_to_the_100(self):
        # trial division would walk the divisors of end coefficients of
        # about 400 bits
        rng = random.Random(29)
        roots = []
        while len(roots) < 3:
            a = rng.choice([-1, 1]) * rng.randint(2**100, 2**101)
            root = projective_ints((a, rng.randint(2**100, 2**101)))
            if root not in roots:
                roots.append(root)
        u = product([[-a, b] for a, b in roots] + [[2**100 + 7, 3, 2**101 + 5]])
        start = time.perf_counter()
        got = poly._rational_roots(u)
        elapsed = time.perf_counter() - start
        assert got == sorted(roots)
        assert elapsed < 1.0


def form_at(f, w):
    """The integer f(2^(8w), 1), packed from f's dense list."""
    return poly._pack(dense_form(f), w)


class TestKroneckerEvaluation:
    """Binary forms as integers at (s, t) = (2^(8w), 1) and back."""

    @pytest.mark.parametrize("w", [1, 2, 4, 8, 9, 13])
    def test_width_edges(self, w):
        edge = 2 ** (8 * w - 1) - 1
        assert digit_width(edge) == w
        assert digit_width(edge + 1) > w

    def test_width_rounds_to_machine_words(self):
        assert [digit_width(2 ** (8 * k - 1)) for k in range(1, 10)] == [2, 4, 4, 8, 8, 8, 8, 9, 10]
        assert digit_width(0) == 1

    @pytest.mark.parametrize("w", [1, 2, 4, 8, 9, 13])
    @pytest.mark.parametrize("n", [3, 40, 150])
    def test_round_trip_at_the_edge(self, w, n):
        edge = 2 ** (8 * w - 1) - 1
        rng = random.Random(w * 1000 + n)
        coeffs = [rng.choice([edge, -edge, 0, 1, -1, rng.randint(-edge, edge)]) for _ in range(n + 1)]
        coeffs[-1] = -edge  # a negative leading digit
        f = MPoly(ST, {(i, n - i): c for i, c in enumerate(coeffs)})
        assert read_back(form_at(f, w), w, n) == f

    def test_forms_divisible_by_s_or_t(self):
        for f in (S**3 * T**2 * (S - T), -(T**6), S**5, 7 * S * T**4):
            w = digit_width(max(abs(c) for c in f.terms.values()))
            assert read_back(form_at(f, w), w, f.degree()) == f

    def test_zero(self):
        assert form_at(MPoly.zero(ST), 1) == 0
        assert read_back(0, 4, 7).is_zero()

    def test_value_is_the_form_at_a_power_of_two(self):
        f = 3 * S**2 - 5 * S * T + T**2
        assert form_at(f, 2) == f.eval((2**16, 1))


class TestLinearFactorOrders:
    @pytest.mark.parametrize(
        "f,at,want",
        [
            (S**17 * T**13, (0, 1), 17),
            (S**17 * T**13, (1, 1), 0),
            ((S - 2 * T) ** 3 * T, (2, 1), 3),
            (S**17 * T**13, (1, 0), 13),
            ((2 * S - 3 * T) ** 2 * (S + T), (Fraction(3, 2), 1), 2),
            ((2 * S - 3 * T) ** 2 * (S + T), (1, Fraction(2, 3)), 2),
            ((2 * S - 3 * T) ** 2 * (S + T), (Fraction(-1, 2), Fraction(1, 2)), 1),
            ((2 * S - 3 * T) ** 2 * (S + T), (Fraction(2, 3), 1), 0),
        ],
    )
    def test_examples(self, f, at, want):
        assert linear_factor_orders(f, at) == want

    def test_matches_explicit_division_loop(self):
        rng = random.Random(5)
        for _ in range(20):
            s0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            t0 = Fraction(rng.randint(1, 4))
            k = rng.randint(0, 3)
            form = linear_root_form((s0, t0))
            other = S**2 + T**2 if s0 else S + 3 * T
            f = form**k * other
            # largest j with form^j dividing f, by direct division attempts
            j = 0
            g = f
            while True:
                try:
                    g = exact_div(g, form)
                    j += 1
                except ExactDivisionError:
                    break
            assert j == k
            assert linear_factor_orders(f, (s0, t0)) == k

    def test_zero_form_is_infinite(self):
        with pytest.raises(InfiniteOrder):
            linear_factor_orders(MPoly.zero(ST), (1, 0))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        binary_forms(),
        st.one_of(
            st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (3, 2)]),
            st.tuples(FORM_COEFFS, FORM_COEFFS).filter(any),
        ),
    )
    def test_matches_mpoly_division_loop(self, f, at):
        assert linear_factor_orders(f, at) == orders_by_division(f, at)


class TestDenseHelpers:
    def test_primitive_ints(self):
        assert primitive_ints([4, -6, 0]) == ([2, -3, 0], 2)
        assert primitive_ints([4, -6], -6) == ([-2, 3], -2)
        ints, scale = primitive_ints([Fraction(-3, 2), -3], -1)
        assert (ints, scale) == ([1, 2], Fraction(-3, 2))

    def test_projective_ints(self):
        assert projective_ints((0, Fraction(-2, 3), 4)) == (0, 1, -6)
        with pytest.raises(PolyError):
            projective_ints((0, Fraction(0)))

    def test_split_linear_factors(self):
        f = -2 * (2 * S - 3 * T) * (S + T) * (S**2 + T**2) * S * T
        roots, rest = split_linear(f)
        assert [(r, str(form)) for r, form in roots] == [
            ((0, 1), "s"),
            ((1, -1), "s + t"),
            ((1, 0), "t"),
            ((3, 2), "2*s - 3*t"),
        ]
        assert str(rest) == "s^2 + t^2"

    def test_split_rest_is_canonical_after_a_negative_divisor(self):
        # dividing by the root (1 : -1) flips the sign of the dense rest
        roots, rest = split_linear((S + T) * (T**2 - 2 * S**2))
        assert [r for r, _ in roots] == [(1, -1)]
        assert str(rest) == "2*s^2 - t^2"
        assert split_linear(S - 4 * T) == ([((4, 1), S - 4 * T)], None)

    def test_exact_division_in_integers(self):
        assert poly._u_exact_div([-2, 1, 1], [-1, 1]) == [2, 1]
        with pytest.raises(ExactDivisionError):
            poly._u_exact_div([1, 0, 1], [-1, 1])
        with pytest.raises(ExactDivisionError):
            poly._u_exact_div([1, 3], [1, 2])


class TestCanonical:
    def test_content_and_sign(self):
        p = Fraction(-3, 2) * X**2 - 3 * Y**2
        canon, scale = p.canonical_with_scale()
        assert canon == X**2 + 2 * Y**2
        assert scale == Fraction(-3, 2)
        assert canon * scale == p

    def test_zero(self):
        z = MPoly.zero(XYZ)
        assert z.canonical() == z

    def test_printing(self):
        f = Y**2 * Z - X**3 - X**2 * Z
        assert str(f) == "-x^3 - x^2*z + y^2*z"
        assert str(MPoly.zero(XYZ)) == "0"
        assert str(MPoly.constant(XYZ, Fraction(3, 2))) == "3/2"
        assert str(X - Y) == "x - y"


def taylor_coefficients(f, q, n):
    """The partials of f of multi-index e at q over e!, for |e| <= n, in
    ``_jet_monomials`` order."""
    out = []
    for e in jet._jet_monomials(n)[0]:
        p = f
        for v, k in zip(XYZ, e):
            for _ in range(k):
                p = p.partial(v)
        out.append(p.eval(q) // (math.factorial(e[0]) * math.factorial(e[1]) * math.factorial(e[2])))
    return out


@st.composite
def jet_cases(draw):
    """(f, g, q, d, n, m): two integer forms of one degree d = 1..7 on
    random monomials, an integer point with any of its coordinates zero,
    and two orders 0..6."""
    d = draw(st.integers(1, 7))
    monomials = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    f, g = (
        MPoly(XYZ, draw(st.dictionaries(st.sampled_from(monomials), st.integers(-9, 9), min_size=1)))
        for _ in range(2)
    )
    q = draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(any))
    return f, g, q, d, draw(st.integers(0, 6)), draw(st.integers(0, 6))


class TestTaylorJet:
    """``TaylorJet`` against the partials of ``MPoly`` forms at the point."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(jet_cases())
    def test_ring_operations_and_partials(self, case):
        f, g, q, d, n, m = case
        a = TaylorJet.of(f.terms, d, q, n)
        b = TaylorJet.of(g.terms, d, q, m)
        assert a.coeffs == taylor_coefficients(f, q, n)
        low = min(n, m)
        assert (a * b).order == (a + b).order == low
        assert (a * b).coeffs == taylor_coefficients(f * g, q, low)
        assert (a - b).coeffs == taylor_coefficients(f - g, q, low)
        assert (3 * a).coeffs == taylor_coefficients(3 * f, q, n)
        assert TaylorJet.dot([(2, a, b), (-1, b, a)]).coeffs == taylor_coefficients(f * g, q, low)
        if n:
            for v in XYZ:
                assert a.partial(v).coeffs == taylor_coefficients(f.partial(v), q, n - 1)

    def test_a_jet_of_order_0_has_no_partials(self):
        with pytest.raises(PolyError):
            TaylorJet.of({(1, 0, 0): 1}, 1, (1, 0, 0), 0).partial("x")
