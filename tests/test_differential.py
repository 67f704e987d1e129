"""Hessian bundle, trace/gradient covariants, the 12d-27 covariant, conics."""

import random
from fractions import Fraction

import pytest

from poly_reference import matmul, sym3
from sextactic.differential import (
    DegreeTooSmall,
    HessianVanishes,
    InflectionPoint,
    PointNotOnCurve,
    SingularPoint,
    covariants,
    gradient_form_bordered,
    hessian,
    osculating_conic,
    second_hessian,
)
from sextactic.poly import XYZ, MPoly, NotHomogeneous, PolyMatrix
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


class TestDerivativeCount:
    """Each form's first and second partials are taken once."""

    @pytest.fixture
    def partial_calls(self, monkeypatch):
        calls = []
        partial = MPoly.partial

        def spy(self, var):
            calls.append(var)
            return partial(self, var)

        monkeypatch.setattr(MPoly, "partial", spy)
        return calls

    @pytest.mark.parametrize("degree", [3, 5])
    def test_hessian(self, partial_calls, degree):
        hessian(dense_form(random.Random(degree), degree))
        # 3 + 6 partials for F, then 3 + 6 for H
        assert len(partial_calls) == 18

    @pytest.mark.parametrize("degree", [3, 5])
    def test_second_hessian(self, partial_calls, degree):
        second_hessian(dense_form(random.Random(degree), degree))
        # the bundle's 18, 3 * 6 for d_v(hess_H), 3 for d_v(trace) and 3
        # for the gradient of the gradient form
        assert len(partial_calls) == 42


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
        # rationals as a 6-vector: no MPoly is multiplied
        from sextactic import differential

        bundle = hessian(NODAL_CUBIC)
        point = (-1, 0, 1)
        products = []
        mul = MPoly.__mul__

        def spy(self, other):
            products.append((self, other))
            return mul(self, other)

        monkeypatch.setattr(differential, "hessian", lambda F: bundle)
        monkeypatch.setattr(MPoly, "__mul__", spy)
        monkeypatch.setattr(MPoly, "__rmul__", spy)
        conic = osculating_conic(NODAL_CUBIC, point)
        assert products == []
        assert conic == 2 * X**2 + Y**2 + Z**2 + 3 * X * Z


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
