"""Hessian bundle, trace/gradient covariants, the 12d-27 covariant, conics."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poly_reference import (
    bundle_fields,
    covariants_reference,
    gradient_form_bordered,
    hessian_reference,
    matmul,
    second_hessian_reference,
    sym3,
)
from sextactic.differential import (
    _DENSE_MIN_TERMS,
    VARIANTS,
    DegreeTooSmall,
    HessianVanishes,
    InflectionPoint,
    PointNotOnCurve,
    SingularPoint,
    covariants,
    hessian,
    osculating_conic,
    second_hessian,
)
from sextactic.poly import (
    XYZ,
    MPoly,
    NotHomogeneous,
    PolyMatrix,
    TernaryForm,
    fills_triangles,
)
from sextactic.rational import linear_factor_orders, pullback
from sextactic.parse import parse_param

X, Y, Z = (MPoly.variable(XYZ, v) for v in XYZ)

NODAL_CUBIC = Y**2 * Z - X**3 - X**2 * Z
QUARTIC = X**4 - X**3 * Y + Y**3 * Z
FERMAT = X**3 + Y**3 + Z**3


def dense_form(rng, degree):
    """Every monomial of the degree, coefficients in [-5, 5]."""
    return MPoly(
        XYZ,
        {
            (i, j, degree - i - j): rng.randint(-5, 5)
            for i in range(degree + 1)
            for j in range(degree + 1 - i)
        },
    )


def paired_trace(m, n):
    """Sum over all nine entries of m[i][j] * n[i][j]."""
    return sum(
        (a * b for ra, rb in zip(m, n) for a, b in zip(ra, rb)), MPoly.zero(XYZ)
    )


def direct_trace_grad_adj(bundle):
    """sum d_v(adj_f) * hess_H, entry by entry, for v = x, y, z."""
    return tuple(
        paired_trace(
            [[q.partial(v) for q in row] for row in sym3(bundle.adj_f).entries],
            sym3(bundle.hess_h).entries,
        )
        for v in XYZ
    )


def random_form(rng, degree, max_terms=5):
    terms = {}
    for _ in range(rng.randint(2, max_terms)):
        expo = [0, 0, 0]
        for _ in range(degree):
            expo[rng.randrange(3)] += 1
        terms[tuple(expo)] = rng.choice([v for v in range(-9, 10) if v])
    p = MPoly(XYZ, terms)
    return p if not p.is_zero() else MPoly(XYZ, {(degree, 0, 0): 1})


class TestHessian:
    def test_nodal_cubic(self):
        b = hessian(NODAL_CUBIC)
        assert b.H == 24 * X * Y**2 + 8 * Y**2 * Z - 8 * X**2 * Z

    def test_fermat_cubic(self):
        assert hessian(FERMAT).H == 216 * X * Y * Z

    def test_degree_is_3d_minus_6(self):
        assert hessian(QUARTIC).H.degree() == 3 * (4 - 2)

    def test_rejects_low_degree(self):
        with pytest.raises(DegreeTooSmall):
            hessian(X**2 + Y * Z)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(NotHomogeneous):
            hessian(X**3 + Y)

    def test_adjugate_identity_random(self):
        rng = random.Random(17)
        for _ in range(12):
            b = hessian(random_form(rng, rng.randint(3, 5)))
            prod = matmul(sym3(b.adj_f), sym3(b.hess_f))
            for i in range(3):
                for j in range(3):
                    want = b.H if i == j else MPoly.zero(XYZ)
                    assert prod.entries[i][j] == want


# (coefficients, highest degree, most terms): each kind up to the size its
# MPoly reference finishes in about a tenth of a second (a fifth for six
# Fraction terms at degree 5)
COEFFICIENTS = {
    "int": (st.integers(-9, 9), 7, 12),
    "fraction": (st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)), 7, 6),
    "huge": (
        st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([2**70, -(2**70), 2**70 - 1])),
        5,
        5,
    ),
}


def dense_size(d):
    """The fewest terms with which a form of degree d takes the dense chain."""
    return next(
        n for n in itertools.count(_DENSE_MIN_TERMS) if fills_triangles(n, d)
    )


@st.composite
def plane_curves(draw):
    """A nonzero form of degree 3..7 on a subset of its monomials, with
    small, mixed-denominator or 70-bit coefficients: either with any number
    of terms, or with enough to take the dense chain (``dense_size``)."""
    coeffs, top, most = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    dense = draw(st.booleans())
    d = draw(st.sampled_from([d for d in range(3, top + 1) if not dense or dense_size(d) <= most]))
    monomials = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
    least = dense_size(d) if dense else 1
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=least, max_size=most, unique=True))
    terms = {e: draw(coeffs) for e in chosen}
    if not any(terms.values()):
        terms[chosen[0]] = 1
    return MPoly(XYZ, terms)


def assert_chain_matches_reference(f, variants=VARIANTS):
    """hessian, covariants and second_hessian equal the MPoly formulas of
    ``poly_reference``, or raise as they do."""
    want = hessian_reference(f)
    got = hessian(f)
    assert bundle_fields(got) == want
    assert covariants(got) == covariants_reference(want)
    for variant in variants:
        if want.H.is_zero():
            with pytest.raises(HessianVanishes):
                second_hessian(f, variant)
        else:
            assert second_hessian(f, variant) == second_hessian_reference(f, variant)


class TestDenseChainAgainstMPoly:
    """The dense chain, with its scaling by the common denominator of F,
    against the same formulas on MPoly forms."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(plane_curves(), st.sampled_from(VARIANTS))
    def test_matches_reference(self, f, variant):
        assert_chain_matches_reference(f, [variant])

    @pytest.mark.parametrize("degree", [6, 7])
    def test_dense_curves(self, degree):
        assert_chain_matches_reference(dense_form(random.Random(f"chain/{degree}"), degree))

    @pytest.mark.parametrize(
        "f",
        [
            FERMAT + 3 * Y * Z**2,
            X**2 * Y + Y**2 * Z + Z**2 * X - Y**3,
            Fraction(1, 6) * X**4 - Fraction(3, 10) * Y**3 * Z + Fraction(5, 7) * Z**4
            + Fraction(1, 2) * Y**4,
            2**70 * X**5 - (2**70 - 1) * Y**4 * Z + 3 * Y**2 * Z**3 + 5 * Y**5
            - 7 * Z**5 + 11 * Y**3 * Z**2,
        ],
        ids=["fermat", "klein", "fractions", "2^70"],
    )
    def test_forms_with_empty_rows(self, f):
        # each fills its triangle but leaves whole rows of it (fixed powers
        # of x) empty
        assert isinstance(hessian(f).chain.f, TernaryForm)
        assert_chain_matches_reference(f)

    @pytest.mark.parametrize(
        "f",
        [
            FERMAT,
            X**2 * Y + Y**2 * Z + Z**2 * X,
            QUARTIC,
            Fraction(1, 6) * X**4 - Fraction(3, 10) * Y**3 * Z + Fraction(5, 7) * Z**4,
            2**70 * X**5 - (2**70 - 1) * Y**4 * Z + 3 * X * Y * Z**3,
            X**7 + Y**7 + Z**7 - 3 * X**2 * Y**2 * Z**3 + X * Y**6,
        ],
        ids=["fermat", "klein", "quartic", "fractions", "2^70", "septic"],
    )
    def test_sparse_forms_keep_mpoly_terms(self, f):
        # three terms, or too few to fill the triangle: the chain runs on
        # F's terms
        assert isinstance(hessian(f).chain.f, MPoly)
        assert_chain_matches_reference(f)

    def test_high_degree_sparse_curve_stays_small(self):
        # dense triangles of the chain of x^1000 + y^1000 + z^1000 would
        # hold millions of entries each; the sparse chain stores a few terms
        d = 1000
        f = X**d + Y**d + Z**d
        tracemalloc.start()
        try:
            bundle = hessian(f)
            h2 = second_hessian(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        c = d * (d - 1)
        assert bundle.H == c**3 * (X * Y * Z) ** (d - 2)
        assert h2.degree() == 12 * d - 27
        assert h2 == second_hessian_reference(f)

    @pytest.mark.parametrize("f", [X**3 - Y**3, X**4 + Y**4, Fraction(1, 3) * X**2 * Y])
    def test_hessian_vanishes(self, f):
        assert hessian(f).H.is_zero()
        assert_chain_matches_reference(f)
        with pytest.raises(HessianVanishes):
            second_hessian(f)

    @pytest.mark.parametrize(
        "f", [X**2 + Y * Z, MPoly.constant(XYZ, 5), MPoly.zero(XYZ), X - Y]
    )
    def test_degree_too_small(self, f):
        for run in (hessian, second_hessian, lambda F: osculating_conic(F, (0, 0, 1))):
            with pytest.raises(DegreeTooSmall):
                run(f)

    @pytest.mark.parametrize("f", [X**3 + Y, X**4 - Fraction(1, 2) * Y**3 + Z])
    def test_not_homogeneous(self, f):
        for run in (hessian, second_hessian, lambda F: osculating_conic(F, (0, 0, 1))):
            with pytest.raises(NotHomogeneous):
                run(f)

    def test_fraction_coefficients_scale_out(self):
        # F and lam * F share H2 up to lam^12
        f = QUARTIC + Fraction(1, 3) * X * Y * Z**2
        assert second_hessian(3 * f) == 3**12 * second_hessian(f)
        assert hessian(3 * f).H == 27 * hessian(f).H


class TestDerivativeCount:
    """Each form's first and second partials are taken once, on the dense
    forms of a curve that fills its triangle and on the MPoly forms of a
    sparse one."""

    @pytest.fixture
    def partial_calls(self, monkeypatch):
        calls = []
        for cls in (MPoly, TernaryForm):
            partial = cls.partial

            def spy(self, var, partial=partial):
                calls.append((type(self), var))
                return partial(self, var)

            monkeypatch.setattr(cls, "partial", spy)
        return calls

    # keyed by the degree of the dense curves, which the counts were first
    # pinned on, and by "sparse" and the degree for sparse ones
    CURVES = {
        "3": (dense_form(random.Random(3), 3), TernaryForm),
        "5": (dense_form(random.Random(5), 5), TernaryForm),
        "sparse4": (QUARTIC, MPoly),
        "sparse6": (X**6 + Y**6 + Z**6 - X * Y**4 * Z, MPoly),
    }

    @pytest.mark.parametrize("curve", sorted(CURVES))
    def test_hessian(self, partial_calls, curve):
        f, kind = self.CURVES[curve]
        hessian(f)
        # 3 + 6 partials for F, then 3 + 6 for H
        assert len(partial_calls) == 18
        assert {cls for cls, _ in partial_calls} == {kind}

    @pytest.mark.parametrize("curve", sorted(CURVES))
    def test_second_hessian(self, partial_calls, curve):
        f, kind = self.CURVES[curve]
        second_hessian(f)
        # the bundle's 18, 3 * 6 for d_v(hess_H), 3 for d_v(trace) and 3
        # for the gradient of the gradient form
        assert len(partial_calls) == 42
        assert {cls for cls, _ in partial_calls} == {kind}


class TestCovariants:
    def test_split_identity_quartic(self):
        b = hessian(QUARTIC)
        cov = covariants(b)
        assert cov.trace_grad_adj == direct_trace_grad_adj(b)
        for i, v in enumerate(XYZ):
            assert (
                cov.trace_product.partial(v)
                == cov.trace_grad_adj[i] + cov.trace_grad_hess[i]
            )

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_split_against_direct_formula_dense(self, degree):
        rng = random.Random(f"split/{degree}")
        for _ in range(2):
            b = hessian(dense_form(rng, degree))
            cov = covariants(b)
            assert cov.trace_grad_adj == direct_trace_grad_adj(b)
            assert cov.trace_product == paired_trace(
                sym3(b.adj_f).entries, sym3(b.hess_h).entries
            )

    def test_gradient_form_two_formulas(self):
        for f in (FERMAT, QUARTIC):
            b = hessian(f)
            assert covariants(b).gradient_form == gradient_form_bordered(b)

    def test_vanishing_hessian_is_computable(self):
        # a cone: the Hessian vanishes identically, covariants collapse to 0
        b = hessian(X**2 * Y)
        assert b.H.is_zero()
        cov = covariants(b)
        assert cov.trace_product.is_zero()
        assert cov.gradient_form.is_zero()


class TestSecondHessian:
    def test_quartic_golden(self):
        got = second_hessian(QUARTIC)
        want = (
            MPoly.constant(XYZ, -(2**7) * 3**11 * 5 * 7)
            * Y**18
            * (4 * X - Y)
            * (14 * X**2 - 7 * X * Y + 2 * Y**2)
        )
        assert got == want

    def test_variant_difference(self):
        d = 4
        b = hessian(QUARTIC)
        cov = covariants(b)
        jac = PolyMatrix(
            [QUARTIC.grad(), b.H.grad(), cov.gradient_form.grad()]
        ).det()
        diff = second_hessian(QUARTIC) - second_hessian(QUARTIC, "cayley1865")
        assert diff == 20 * (d - 2) ** 2 * jac

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_three_determinant_formula_dense(self, degree):
        rng = random.Random(f"h2/{degree}")
        f = dense_form(rng, degree)
        b = hessian(f)
        cov = covariants(b)
        jac_adj, jac_hess, jac_form = (
            PolyMatrix([f.grad(), b.H.grad(), r]).det()
            for r in (
                cov.trace_grad_adj,
                cov.trace_grad_hess,
                cov.gradient_form.grad(),
            )
        )
        d = degree
        for variant, kappa in (("corrected", 20), ("cayley1865", 40)):
            want = (
                (12 * d * d - 54 * d + 57) * b.H * jac_adj
                + (d - 2) * (12 * d - 27) * b.H * jac_hess
                - kappa * (d - 2) * (d - 2) * jac_form
            )
            assert second_hessian(f, variant) == want

    def test_degree_random(self):
        # sparse forms often factor into lines/conics, where the covariant
        # legitimately vanishes; perturbed Fermat forms stay non-degenerate
        rng = random.Random(23)
        for i in range(12):
            d = (3, 4, 5)[i % 3]
            terms = {(d, 0, 0): 1, (0, d, 0): 1, (0, 0, d): 1}
            for _ in range(3):
                expo = [0, 0, 0]
                for _ in range(d):
                    expo[rng.randrange(3)] += 1
                terms[tuple(expo)] = terms.get(tuple(expo), 0) + rng.randint(-5, 5)
            f = MPoly(XYZ, terms)
            h2 = second_hessian(f)
            assert not h2.is_zero()
            assert h2.degree() == 12 * d - 27

    def test_vanishing_hessian_rejected(self):
        with pytest.raises(HessianVanishes):
            second_hessian(X**3)

    def test_unknown_variant(self):
        with pytest.raises(Exception):
            second_hessian(QUARTIC, "classic")


class TestOsculatingConic:
    def test_nodal_cubic_golden(self):
        conic = osculating_conic(NODAL_CUBIC, (-1, 0, 1))
        assert conic == 2 * X**2 + Y**2 + Z**2 + 3 * X * Z

    def test_inflection_rejected(self):
        with pytest.raises(InflectionPoint):
            osculating_conic(NODAL_CUBIC, (0, 1, 0))

    def test_singular_rejected(self):
        with pytest.raises(SingularPoint):
            osculating_conic(NODAL_CUBIC, (0, 0, 1))

    def test_off_curve_rejected(self):
        with pytest.raises(PointNotOnCurve):
            osculating_conic(NODAL_CUBIC, (1, 1, 1))

    @pytest.mark.parametrize(
        "point, error",
        [((0, 1, 0), InflectionPoint), ((0, 0, 1), SingularPoint), ((1, 2, 1), PointNotOnCurve)],
    )
    def test_rejections_on_the_dense_chain(self, point, error):
        # four terms: the nodal cubic's checks on the dense chain
        f = NODAL_CUBIC + X * Y * Z
        assert isinstance(hessian(f).chain.f, TernaryForm)
        with pytest.raises(error):
            osculating_conic(f, point)

    def test_vanishes_at_the_point(self):
        conic = osculating_conic(NODAL_CUBIC, (-1, 0, 1))
        assert conic.eval((-1, 0, 1)) == 0

    def test_contact_order_at_least_five(self):
        # defining property, checked through the parametrization of the
        # nodal cubic: the conic pulled back has order >= 5 at the parameter
        param = parse_param("(s*t^2 - s^3 : t^3 - s^2*t : s^3)")
        f = NODAL_CUBIC
        h = hessian(f).H
        for at in [(1, 0), (1, 2), (1, 3), (2, 1), (3, 5), (1, -3)]:
            point = [Fraction(p.eval(at)) for p in param.phi]
            if f.eval(point) != 0:
                continue
            if not any(g.eval(point) for g in f.grad()):
                continue  # the node
            if h.eval(point) == 0:
                continue  # an inflection
            conic = osculating_conic(f, point)
            order = linear_factor_orders(pullback(conic, param), at)
            assert order >= 5
            if at == (1, 0):  # the distinguished point of excess contact
                assert order == 6
            else:
                assert order == 5

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_matches_symbolic_covariant_formula(self, degree):
        rng = random.Random(f"osc/{degree}")
        checked = 0
        while checked < 3:
            f = dense_form(rng, degree)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            f = f - MPoly.constant(XYZ, f.eval((a, b, 1))) * Z**degree
            point = (a, b, 1)
            bundle = hessian(f)
            grads = [g.eval(point) for g in f.grad()]
            h_at = bundle.H.eval(point)
            if not any(grads) or h_at == 0:
                continue
            assert osculating_conic(f, point) == symbolic_osculating_conic(
                bundle, point, grads, h_at
            )
            checked += 1

    def test_never_builds_covariants(self, monkeypatch):
        from sextactic import differential

        def refuse(bundle):
            raise AssertionError("osculating_conic built the covariants")

        monkeypatch.setattr(differential, "covariants", refuse)
        conic = osculating_conic(NODAL_CUBIC, (-1, 0, 1))
        assert conic == 2 * X**2 + Y**2 + Z**2 + 3 * X * Z

    def test_no_polynomial_product_outside_hessian(self, monkeypatch):
        # with the Hessian bundle precomputed, the conic is assembled from
        # values at the point as a 6-vector: neither an MPoly nor a dense
        # form is multiplied
        assert_no_product_outside_hessian(
            monkeypatch, NODAL_CUBIC, (-1, 0, 1), 2 * X**2 + Y**2 + Z**2 + 3 * X * Z
        )

    @pytest.mark.parametrize(
        "f, point, want",
        [
            (
                NODAL_CUBIC + X * Y * Z,
                (-1, 0, 1),
                9 * X**2 - 2 * X * Y + 10 * X * Z + 5 * Y**2 - 10 * Y * Z + Z**2,
            ),
            (
                QUARTIC,
                (1, -1, 2),
                2942 * X**2 + 2039 * X * Y + 629 * X * Z + 491 * Y**2
                + 1294 * Y * Z - 16 * Z**2,
            ),
        ],
        ids=["dense", "sparse"],
    )
    def test_no_polynomial_product_on_either_chain(self, monkeypatch, f, point, want):
        assert_no_product_outside_hessian(monkeypatch, f, point, want)


def assert_no_product_outside_hessian(monkeypatch, f, point, want):
    """osculating_conic(f, point) is want, and with ``hessian`` answered from
    a precomputed bundle it multiplies no MPoly and no TernaryForm."""
    from sextactic import differential

    bundle = hessian(f)
    products = []

    def spy_on(cls):
        mul = cls.__mul__

        def spy(self, other):
            products.append((self, other))
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", spy)
        monkeypatch.setattr(cls, "__rmul__", spy)

    monkeypatch.setattr(differential, "hessian", lambda F: bundle)
    spy_on(MPoly)
    spy_on(TernaryForm)
    conic = osculating_conic(f, point)
    assert products == []
    assert conic == want


def symbolic_osculating_conic(bundle, point, grads, h_at):
    """The osculating conic from the covariants evaluated at the point."""
    cov = covariants(bundle)
    lam = Fraction(
        -3 * Fraction(cov.trace_product.eval(point)) * h_at
        + 4 * Fraction(cov.gradient_form.eval(point)),
        9 * Fraction(h_at) ** 3,
    )
    df = sum((g * v for g, v in zip(grads, (X, Y, Z))), MPoly.zero(XYZ))
    dh = sum(
        (g.eval(point) * v for g, v in zip(bundle.H.grad(), (X, Y, Z))),
        MPoly.zero(XYZ),
    )
    hess_f = sym3(bundle.hess_f)
    d2f = sum(
        (
            hess_f.entries[i][j].eval(point) * u * v
            for i, u in enumerate((X, Y, Z))
            for j, v in enumerate((X, Y, Z))
        ),
        MPoly.zero(XYZ),
    )
    conic = d2f - (dh * Fraction(2, 3 * h_at) + df * lam) * df
    return conic.canonical()
