"""Core polynomial arithmetic: ring operations, determinants, binary forms."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from poly_reference import det_bareiss
from sextactic import poly
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
    binaryform_gcd,
    digit_width,
    exact_div,
    form_at,
    laplace_minors,
    linear_factor_orders,
    linear_root_form,
    primitive_ints,
    projective_ints,
    read_form,
    split_linear_factors,
    squarefree_decomp,
    veronese,
)


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
        a = TernaryForm.of(f.terms, 3, 12)
        assert a.rows == [[24, 0, 0, -9], [0, 0, 0], [2, 0], [0]]
        assert a.mpoly(12) == f
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
                    assert binaryform_gcd(p, p.partial("s")).degree() == 0
                for q, _ in factors[i + 1 :]:
                    assert binaryform_gcd(p, q).degree() == 0

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


def dense_list(f):
    """The dense integer list of a nonzero primitive-content-free form, as the
    ``_u_*`` helpers see it."""
    return poly._dense(f)[0]


class TestCoprimeCertificate:
    """``_u_gcd`` answers coprime operands from a gcd modulo a prime and
    leaves the rest to the primitive PRS, kept as ``_u_prs_gcd``."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(binary_forms(), binary_forms())
    def test_matches_bare_prs(self, f, g):
        a, b = dense_list(f), dense_list(g)
        assert poly._u_gcd(a, b) == poly._u_prs_gcd(a, b)
        assert poly._u_gcd(b, a) == poly._u_prs_gcd(b, a)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(binary_forms())
    def test_matches_bare_prs_on_the_derivative(self, f):
        # Yun's first gcd: repeated factors make it nontrivial
        u = dense_list(f)
        d = poly._u_deriv(u)
        assert poly._u_gcd(u, d) == poly._u_prs_gcd(u, d)

    def test_repeated_factor_is_not_certified(self):
        u = dense_list((S + 2 * T) ** 3 * (S - T))
        assert not poly._u_coprime_mod_p(u, poly._u_deriv(u))
        assert poly._u_gcd(u, poly._u_deriv(u)) == dense_list((S + 2 * T) ** 2)

    def test_constants_and_zero(self):
        assert poly._u_gcd([5], [0]) == [1]
        assert poly._u_gcd([0], [3, 1]) == [3, 1]
        assert poly._u_gcd([2, 4], [6]) == [1]

    def spy_prs(self, monkeypatch):
        calls = []
        prs = poly._u_prs_gcd

        def spy(a, b):
            calls.append((a, b))
            return prs(a, b)

        monkeypatch.setattr(poly, "_u_prs_gcd", spy)
        return calls

    def test_coprime_operands_skip_the_prs(self, monkeypatch):
        calls = self.spy_prs(monkeypatch)
        assert poly._u_gcd([1, 2, 3], [5, 0, 7]) == [1]
        assert calls == []

    def test_prime_dividing_one_leading_coefficient_uses_the_other(self, monkeypatch):
        calls = self.spy_prs(monkeypatch)
        p = poly._GCD_PRIMES[0]
        assert poly._u_gcd([1, 2, p], [3, 1]) == [1]
        assert calls == []

    def test_next_prime_when_the_first_divides_both(self, monkeypatch):
        calls = self.spy_prs(monkeypatch)
        p = poly._GCD_PRIMES[0]
        assert poly._u_gcd([1, 2, p], [3, 2 * p]) == [1]
        assert calls == []

    def test_fallback_when_every_prime_divides_both_leads(self, monkeypatch):
        calls = self.spy_prs(monkeypatch)
        lead = 1
        for p in poly._GCD_PRIMES:
            lead *= p
        a, b = [1, 0, lead], [3, lead]
        assert not poly._u_coprime_mod_p(a, b)
        assert poly._u_gcd(a, b) == [1]
        assert calls == [(a, b)]

    def test_prime_divides_the_leading_coefficient_of_a_common_factor(self):
        # modulo the first prime, (p*s + t) drops to t; both leading
        # coefficients are multiples of p, so the certificate takes the next
        # prime, sees the common factor there and leaves the gcd to the PRS
        p = poly._GCD_PRIMES[0]
        h = p * S + T
        f, g = h * (S + 2 * T), h * (S - 3 * T) ** 2
        assert binaryform_gcd(f, g) == h
        _, factors = squarefree_decomp(h**2 * (S - 3 * T))
        assert (h, 2) in factors and (S - 3 * T, 1) in factors


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
        assert read_form(form_at(f, w), w, n) == f

    def test_forms_divisible_by_s_or_t(self):
        for f in (S**3 * T**2 * (S - T), -(T**6), S**5, 7 * S * T**4):
            w = digit_width(max(abs(c) for c in f.terms.values()))
            assert read_form(form_at(f, w), w, f.degree()) == f

    def test_zero(self):
        assert form_at(MPoly.zero(ST), 1) == 0
        assert read_form(0, 4, 7).is_zero()

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
        roots, rest = split_linear_factors(f)
        assert [(r, str(form)) for r, form in roots] == [
            ((0, 1), "s"),
            ((1, -1), "s + t"),
            ((1, 0), "t"),
            ((3, 2), "2*s - 3*t"),
        ]
        assert str(rest) == "s^2 + t^2"

    def test_split_rest_is_canonical_after_a_negative_divisor(self):
        # dividing by the root (1 : -1) flips the sign of the dense rest
        roots, rest = split_linear_factors((S + T) * (T**2 - 2 * S**2))
        assert [r for r, _ in roots] == [(1, -1)]
        assert str(rest) == "2*s^2 - t^2"
        assert split_linear_factors(S - 4 * T) == ([((4, 1), S - 4 * T)], None)

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
