"""Truncated series arithmetic and truncation propagation."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sextactic.poly import kronecker_product
from sextactic.series import SeriesError, TruncSeries


def ts(coeffs, trunc):
    return TruncSeries(coeffs, trunc)


class TestConstruction:
    def test_rejects_exponent_at_truncation(self):
        with pytest.raises(SeriesError):
            ts({5: 1}, 5)

    def test_rejects_negative_exponent(self):
        with pytest.raises(SeriesError):
            ts({-1: 1}, 5)

    def test_drops_zero_coefficients(self):
        assert ts({2: 0, 3: 1}, 5).coeffs == {3: 1}

    def test_valuation(self):
        assert ts({2: 1, 6: 1}, 8).valuation() == 2
        assert ts({}, 8).valuation() is None


class TestArithmetic:
    def test_mul_by_unit(self):
        a = ts({2: 1, 6: 1}, 9)
        one = ts({0: 1}, 9)
        assert (a * one).coeffs == {2: 1, 6: 1}

    def test_square_of_monomial(self):
        a = ts({3: 1}, 9)
        sq = a * a
        assert sq.coeffs == {6: 1}
        assert sq.trunc == 12  # known up to 3 + 9

    def test_unit_times_series(self):
        # y * z for a branch (t^3 : a t^5 : 1): the product is a t^5 + unknown
        a = Fraction(7, 2)
        y = ts({5: a}, 11)
        z = ts({0: 1}, 11)
        prod = y * z
        assert prod.coeffs == {5: a}
        assert prod.trunc == 11

    def test_add_truncates_to_min(self):
        a = ts({1: 1}, 5)
        b = ts({2: 1, 6: 1}, 8)
        c = a + b
        assert c.trunc == 5
        assert c.coeffs == {1: 1, 2: 1}

    def test_mul_truncation_rule(self):
        # product knowledge ends where a factor's unknown tail can interfere
        a = ts({2: 1}, 5)   # t^2 + O(t^5)
        b = ts({3: 1}, 10)  # t^3 + O(t^10)
        c = a * b
        assert c.trunc == min(5 + 3, 10 + 2)
        assert c.coeffs == {5: 1}

    def test_mul_with_unknown_factor(self):
        a = ts({}, 4)       # O(t^4)
        b = ts({1: 1}, 10)
        c = a * b
        assert c.coeffs == {}
        assert c.trunc == 4 + 1

    def test_scalar_ops(self):
        a = ts({2: 1}, 6)
        assert (3 * a).coeffs == {2: 3}
        assert (a - a).coeffs == {}
        assert (-a).coeffs == {2: -1}

    def test_integral_sums_come_out_as_int(self):
        half = ts({0: Fraction(1, 2)}, 4)
        for total in (half + half, ts({0: Fraction(3, 2)}, 4) - half, half + Fraction(1, 2)):
            assert total.coeffs == {0: 1}
            assert type(total.coeffs[0]) is int

    def test_cancellation_keeps_truncation(self):
        a = ts({1: 1, 3: 1}, 6)
        b = ts({1: 1}, 6)
        c = a - b
        assert c.valuation() == 3
        assert c.trunc == 6


class TestPrinting:
    def test_str(self):
        assert str(ts({2: 1, 6: -1}, 9)) == "t^2 - t^6 + O(t^9)"
        assert str(ts({}, 4)) == "O(t^4)"
        assert str(ts({0: Fraction(1, 2)}, 3)) == "1/2 + O(t^3)"


# -- packed products against the double loop ----------------------------------


def loop_product(a, b):
    """(coefficients, truncation) of a * b by the plain double loop."""
    trunc = min(
        a.trunc + (min(b.coeffs) if b.coeffs else b.trunc),
        b.trunc + (min(a.coeffs) if a.coeffs else a.trunc),
    )
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            if e1 + e2 < trunc:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}, trunc


COEFFS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**20)),
)


@st.composite
def series_pairs(draw):
    """Two series with a shared shape: dense, sparse with wide gaps, single
    terms or empty, with a valuation and a truncation drawn independently."""

    def one():
        lo = draw(st.integers(0, 6))
        shape = draw(st.sampled_from(["dense", "sparse", "single", "empty"]))
        if shape == "empty":
            return TruncSeries({}, draw(st.integers(1, 30)))
        if shape == "single":
            exps = [lo]
        elif shape == "dense":
            exps = range(lo, lo + draw(st.integers(1, 30)))
        else:
            gaps = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=5))
            exps = [lo + sum(gaps[:i]) for i in range(len(gaps) + 1)]
        coeffs = {e: draw(COEFFS) for e in exps}
        return TruncSeries(coeffs, max(exps) + 1 + draw(st.integers(0, 5)))

    return one(), one()


class TestPackedProduct:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(series_pairs())
    @example((TruncSeries({0: 1, 1: 1, 2: 1}, 3), TruncSeries({0: 1, 1: -1}, 5)))
    def test_matches_double_loop(self, pair):
        a, b = pair
        want, trunc = loop_product(a, b)
        for prod in (a * b, b * a):
            assert prod.trunc == trunc
            assert prod.coeffs == want
            assert all(prod.coeffs.values())
        if a.coeffs and b.coeffs:
            packed = kronecker_product(a.coeffs, b.coeffs, end=trunc)
            assert packed is None or packed == want

    def test_cancelled_slots_are_absent(self):
        # (1/2 + t/3 + t^2/5)(1/2 - t/3) has no t^1 term
        a = ts({0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 5)}, 9)
        b = ts({0: Fraction(1, 2), 1: Fraction(-1, 3), 4: 7}, 9)
        packed = kronecker_product(a.coeffs, b.coeffs, end=9)
        assert packed == loop_product(a, b)[0]
        assert 1 not in packed and 2 in packed

    def test_truncation_edge(self):
        # 4x4 terms: products at t^6 and t^7 are kept, t^8 and up are not
        a = ts({e: Fraction(e + 1, 2) for e in range(4)}, 4)
        b = ts({e: -(2**70) for e in range(4, 8)}, 8)
        prod = a * b
        assert prod.trunc == 8
        assert max(prod.coeffs) == 7
        assert prod.coeffs == loop_product(a, b)[0]

    def test_dense_operands_pack_and_sparse_ones_do_not(self):
        dense = {e: Fraction(1, e + 1) for e in range(3, 9)}
        assert kronecker_product(dense, dense, end=20) is not None
        sparse = {3: 1, 40: 2, 90: 3}
        assert kronecker_product(sparse, dense, end=100) is None
        assert kronecker_product(dense, sparse, end=100) is None

    def test_integral_results_come_out_as_int(self):
        a = ts({e: Fraction(1, 2) for e in range(5)}, 5)
        prod = a * (2 * a)
        assert all(type(c) is int or c.denominator > 1 for c in prod.coeffs.values())
        assert prod.coeffs == {e: Fraction(e + 1, 2) for e in range(5)}
        # 2 x 1 terms take the loop, whose sums of Fractions can be integral
        prod = ts({0: Fraction(1, 2), 1: Fraction(1, 2)}, 4) * ts({0: 2}, 4)
        assert prod.coeffs == {0: 1, 1: 1}
        assert all(type(c) is int for c in prod.coeffs.values())
