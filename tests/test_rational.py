"""Parametrized curves: conic family, Wronskian, pullbacks, local branches."""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from poly_reference import (
    dense_form,
    derivative_rows_reference,
    det_bareiss,
    eval_point_reference,
    local_branch_at_reference,
    gcd_form,
    param_veronese,
    read_back,
)
from sextactic import cli, fixtures, poly, rational
from sextactic.branch import hyperosculating_conic_at_branch, weight2
from sextactic.differential import (
    InflectionPoint,
    SingularPoint,
    hessian,
    osculating_conic,
    second_hessian,
)
from sextactic.parse import parse_branch, parse_param, parse_poly
from sextactic.poly import (
    CONIC_BASIS,
    ST,
    XYZ,
    MPoly,
    PolyMatrix,
    laplace_minors,
    projective_ints,
    squarefree_decomp,
)
from sextactic.rational import (
    CommonFactorError,
    DegenerateParam,
    RationalError,
    RationalParam,
    ZeroPullback,
    conic_wronskian,
    intersection_orders,
    local_branch_at,
    osculating_conic_family,
    pullback,
    weights_from_xi,
)

X, Y, Z = (MPoly.variable(XYZ, v) for v in XYZ)
S, T = (MPoly.variable(ST, v) for v in ST)

NODAL_PARAM = "(s*t^2 - s^3 : t^3 - s^2*t : s^3)"
QUARTIC_PARAM = "(s*t^3 : t^4 : s^3*t - s^4)"
QUINTIC_PARAM = "(s^5 : s^3*t^2 : s*t^4 + t^5)"
BINOMIAL_PARAM = "(s^5 : s^3*t^2 : t^5)"


class TestRationalParam:
    def test_validation(self):
        with pytest.raises(RationalError):
            RationalParam(MPoly.zero(ST), MPoly.zero(ST), MPoly.zero(ST))
        with pytest.raises(CommonFactorError):
            parse_param("(s^2 : s*t : s^2)")

    def test_veronese_row(self):
        p = parse_param(BINOMIAL_PARAM)
        row = param_veronese(p)
        assert row[0] == S**10
        assert row[3] == S**3 * T**7  # phi1 * phi2
        assert all(f.homogeneous_degree() == 10 for f in row)

    def test_eval_point(self):
        p = parse_param(QUINTIC_PARAM)
        assert p.eval_point((0, 1)) == (0, 0, 1)
        assert p.eval_point((1, 0)) == (1, 0, 0)
        assert p.eval_point((15, -8)) == (759375, 216000, 28672)

    def test_quartic_parameters_hit_known_points(self):
        # substitution oracle for the parameters used in the order tests
        p = parse_param(QUARTIC_PARAM)
        assert p.eval_point((1, 0)) == (0, 0, 1)   # the cusp
        assert p.eval_point((1, 2)) == (8, 16, 1)  # first inflection
        assert p.eval_point((0, 1)) == (0, 1, 0)   # second inflection
        assert p.eval_point((1, 4)) == (64, 256, 3)  # = (64/3 : 256/3 : 1)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_coprime_components_are_certified(self, d, monkeypatch):
        # no two components of these params share a factor other than a
        # power of s or t, which is split off before any gcd, so each gcd of
        # the components' fold is settled at the first point of poly._u_gcd,
        # by an integer gcd below half that point, without reading back
        # its digits; the second gcd has a constant operand.  At these sizes
        # the first point declines under about one param in eighty (the first
        # at seed 26, d = 4), and a wider point then answers
        def no_digits(n, w, k):
            raise AssertionError("the first point of the gcd declined")

        monkeypatch.setattr(poly, "_digits", no_digits)
        for seed in range(1, 21):
            try:
                parse_param(random_param_text(seed, d, 3))
            except CommonFactorError as e:
                # a shared power of s or t, split off before any gcd
                assert str(e).split("factor ", 1)[1].rstrip("^0123456789") in ("s", "t")

    def test_normalize_parameter(self):
        assert projective_ints((Fraction(-15, 8), 1)) == (15, -8)
        assert projective_ints((0, 5)) == (0, 1)


class TestConicFamily:
    def test_coefficient_forms_match_known_family(self):
        # all six coefficient forms of the nodal-cubic family agree with the
        # known expansion up to a single common scalar
        param = parse_param(NODAL_PARAM)
        co = dict(zip(CONIC_BASIS, osculating_conic_family(param)))
        known = {
            (2, 0, 0): 2 * S**10 + 5 * S**8 * T**2 + 60 * S**6 * T**4 + 45 * S**4 * T**6,
            (0, 2, 0): S**10 + 10 * S**8 * T**2 + 5 * S**6 * T**4,
            (0, 0, 2): S**10 - 5 * S**8 * T**2 + 10 * S**6 * T**4
            - 10 * S**4 * T**6 + 5 * S**2 * T**8 - T**10,
            (0, 1, 1): -8 * (5 * S**7 * T**3 + 6 * S**5 * T**5 + 5 * S**3 * T**7),
            (1, 0, 1): 3 * S**10 + 70 * S**6 * T**4 + 40 * S**4 * T**6 + 15 * S**2 * T**8,
            (1, 1, 0): -8 * (5 * S**7 * T**3 + 3 * S**5 * T**5),
        }
        scale = None
        for expo, form in known.items():
            mine = co[expo]
            lead = next(iter(form.terms))
            ratio = Fraction(mine.coefficient(lead), form.coefficient(lead))
            assert mine == form * ratio
            if scale is None:
                scale = ratio
            assert ratio == scale
        assert scale != 0

    def test_evaluated_conic(self):
        param = parse_param(NODAL_PARAM)
        conic = osculating_conic_family(param, at=(1, 0))
        assert conic == 2 * X**2 + Y**2 + Z**2 + 3 * X * Z

    def test_inflection_gives_doubled_tangent(self):
        param = parse_param(NODAL_PARAM)
        conic = osculating_conic_family(param, at=(0, 1))
        assert conic == Z**2  # tangent z = 0 at the point (0 : 1 : 0), squared

    def test_low_degree_rejected(self):
        with pytest.raises(RationalError):
            osculating_conic_family(parse_param("(s : t : t)"))

    def test_identically_zero_family(self):
        # the image lies on the line y = x + z, so the Veronese products obey
        # three linear relations and every 5x5 minor vanishes; the error is
        # the same with or without a parameter
        param = parse_param("(s^3 : s^3 + t^3 : t^3)")
        for at in (None, (1, 1), (1, 0)):
            with pytest.raises(DegenerateParam, match="^conic family is identically zero$"):
                osculating_conic_family(param, at=at)

    def test_family_vanishing_at_parameter(self):
        param = parse_param("(s^3 : s*t^2 : t^3)")
        with pytest.raises(DegenerateParam, match=r"^conic family vanishes at \(1 : 0\)$"):
            osculating_conic_family(param, at=(1, 0))
        assert any(osculating_conic_family(param))

    @pytest.mark.parametrize("seed", range(4))
    def test_family_is_six_forms_read_through_conic(self, seed):
        # six forms of degree 10d-20 in CONIC_BASIS order; their values at a
        # parameter, as a conic, are the evaluate-first conic there
        rng = random.Random(seed)
        for text in (NODAL_PARAM, QUARTIC_PARAM, QUINTIC_PARAM):
            param = parse_param(text)
            family = osculating_conic_family(param)
            assert isinstance(family, tuple) and len(family) == len(CONIC_BASIS)
            for form in family:
                assert form.variables == ST
                assert form.is_zero() or form.homogeneous_degree() == 10 * param.degree - 20
            while True:
                at = (rng.randint(-9, 9), rng.randint(1, 9))
                values = [form.eval(at) for form in family]
                if any(values):
                    break
            want = poly.conic(values).canonical()
            assert osculating_conic_family(param, at=at) == want


def random_param_text(seed, d, h):
    """The ROADMAP's "Random params" generator, as ``--param`` text: from
    ``Random(seed)``, randint(-h, h) for the coefficient of s^i t^(d-i),
    i = 0..d, form by form."""
    rng = random.Random(seed)
    forms = [MPoly(ST, {(i, d - i): rng.randint(-h, h) for i in range(d + 1)}) for _ in range(3)]
    return "(" + " : ".join(map(str, forms)) + ")"


class TestWronskian:
    def test_height_thirty_param_in_bounded_time(self, capsys):
        # xi's squarefree class has degree 18 and 53-bit end coefficients,
        # whose divisors the trial-division root finder searched for minutes
        argv = ["wronski", "--param", random_param_text(1, 4, 30)]
        start = time.perf_counter()
        assert cli.main(argv) == 0
        elapsed = time.perf_counter() - start
        assert "total_weight = 18" in capsys.readouterr().out.splitlines()
        assert elapsed < 1.0

    def test_binomial_quintic_golden(self):
        scan = conic_wronskian(parse_param(BINOMIAL_PARAM))
        assert scan.xi == MPoly(ST, {(17, 13): -(2**25) * 3**13 * 5**5 * 7**5})
        assert scan.content == -(2**25) * 3**13 * 5**5 * 7**5
        assert scan.total == 30

    def test_two_cusp_quintic_golden(self):
        scan = conic_wronskian(parse_param(QUINTIC_PARAM))
        cubic = 192 * S**3 + 1680 * S**2 * T + 5275 * S * T**2 + 5250 * T**3
        want = (
            MPoly.constant(ST, -(2**24) * 3**12 * 5**2 * 7**4)
            * S**17
            * T**10
            * cubic
        )
        assert scan.xi == want

    def test_degree_is_six_times_2d_minus_5(self):
        for text in (NODAL_PARAM, QUARTIC_PARAM, QUINTIC_PARAM, BINOMIAL_PARAM):
            param = parse_param(text)
            scan = conic_wronskian(param)
            assert scan.xi.degree() == 6 * (2 * param.degree - 5)
            assert scan.total == 6 * (2 * param.degree - 5)

    def test_weights_two_cusp_quintic(self):
        param = parse_param(QUINTIC_PARAM)
        entries = weights_from_xi(conic_wronskian(param), param)
        flat = []
        for e in entries:
            flat.extend([e.weight] * e.points)
        assert sorted(flat, reverse=True) == [17, 10, 1, 1, 1]
        by_weight = {e.weight: e for e in entries if e.points == 1 and e.weight > 1}
        assert by_weight[17].point == (0, 0, 1)
        assert by_weight[10].point == (1, 0, 0)

    def test_weights_binomial_quintic(self):
        param = parse_param(BINOMIAL_PARAM)
        entries = weights_from_xi(conic_wronskian(param), param)
        assert [(e.weight, e.points) for e in entries] == [(17, 1), (13, 1)]

    def test_conjugate_class_is_root_free(self):
        param = parse_param(QUINTIC_PARAM)
        scan = conic_wronskian(param)
        quad = [z for z in scan.classes if z.points == 2]
        assert len(quad) == 1
        assert quad[0].irreducible is True
        assert quad[0].factor == 24 * S**2 + 165 * S * T + 350 * T**2

    def test_degree_seven_param(self):
        # degree 6(2*7 - 5) = 54: classes s, t and one root-free factor of
        # degree 52, each a simple zero
        param = parse_param("(s^7 - 3*s^2*t^5 : s^4*t^3 + 2*t^7 : s*t^6 - s^6*t)")
        scan = conic_wronskian(param)
        got = [(z.factor.degree(), z.multiplicity, z.points, z.parameter) for z in scan.classes]
        assert got == [(1, 1, 1, (0, 1)), (1, 1, 1, (1, 0)), (52, 1, 52, None)]
        assert [str(z.factor) for z in scan.classes[:2]] == ["s", "t"]
        assert scan.total == 54

    def test_degenerate_rejected(self):
        # the triple parametrizes a conic twice; the Wronskian collapses
        with pytest.raises((DegenerateParam, RationalError)):
            conic_wronskian(parse_param("(s^4 : s^2*t^2 : t^4)"))

    def test_degree_two_rejected(self):
        with pytest.raises(RationalError):
            conic_wronskian(parse_param("(s^2 : s*t : t^2)"))

    def test_nodal_cubic_weights(self):
        # a non-cuspidal curve: six weight-1 zeros, three at inflections and
        # three at points of excess conic contact (one rational of each kind,
        # the rest conjugate); the conjugate packet mixes both kinds and is
        # split by its overlap with the pulled-back Hessian
        param = parse_param(NODAL_PARAM)
        scan = conic_wronskian(param)
        assert scan.total == 6
        assert all(z.multiplicity == 1 for z in scan.classes)
        cubic = parse_poly("y^2*z - x^3 - x^2*z")
        h_pull = pullback(hessian(cubic).H, param)
        seen = {"inflection": 0, "sextactic": 0}
        for entry in weights_from_xi(scan, param):
            if entry.parameter is None:
                on_h = gcd_form(entry.factor, h_pull).degree()
                seen["inflection"] += on_h
                seen["sextactic"] += entry.points - on_h
                continue
            b = local_branch_at(param, entry.parameter, 16)
            seen[weight2(b).classification] += 1
        assert seen == {"inflection": 3, "sextactic": 3}


class TestPullback:
    def test_curve_equation_pulls_to_zero(self):
        F = parse_poly("x^4 - x^3*y + y^3*z")
        assert pullback(F, parse_param(QUARTIC_PARAM)).is_zero()

    def test_coordinate_pullback(self):
        assert pullback(Z, parse_param(BINOMIAL_PARAM)) == T**5

    def test_degree_product(self):
        F = parse_poly("x^4 - x^3*y + y^3*z")
        H = hessian(F).H
        pb = pullback(H, parse_param(QUARTIC_PARAM))
        assert pb.degree() == H.degree() * 4

    def test_degree_product_random(self):
        rng = random.Random(31)
        param = parse_param(BINOMIAL_PARAM)
        for _ in range(15):
            d = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = [0, 0, 0]
                for _ in range(d):
                    e[rng.randrange(3)] += 1
                terms[tuple(e)] = rng.randint(-5, 5)
            G = MPoly(XYZ, terms)
            pb = pullback(G, param)
            assert pb.is_zero() or pb.degree() == G.degree() * param.degree


class TestIntersectionOrders:
    def test_quartic_hessian_orders(self):
        F = parse_poly("x^4 - x^3*y + y^3*z")
        param = parse_param(QUARTIC_PARAM)
        rep = intersection_orders(hessian(F).H, param, [(1, 0), (1, 2), (0, 1)])
        assert rep.orders == (22, 1, 1)
        assert rep.degree == 24
        assert rep.residual == 0

    def test_quartic_second_hessian_orders(self):
        F = parse_poly("x^4 - x^3*y + y^3*z")
        param = parse_param(QUARTIC_PARAM)
        rep = intersection_orders(second_hessian(F), param, [(1, 0), (1, 4)])
        assert rep.orders == (81, 1)
        assert rep.residual == 2  # the conjugate pair of excess-contact points

    def test_nodal_cubic_second_hessian_orders(self):
        # degree-3 coefficient regime of the excess-contact covariant: order
        # 1 at the rational sextactic parameter, 0 at the inflection, the
        # conjugate sextactic pair as 3s^2 + t^2, and the node absorbing
        # order 12 per branch (24 in total, its delta being 1)
        cubic = parse_poly("y^2*z - x^3 - x^2*z")
        param = parse_param(NODAL_PARAM)
        h2 = second_hessian(cubic)
        rep = intersection_orders(h2, param, [(1, 0), (0, 1), (1, 1), (1, -1)])
        assert rep.orders == (1, 0, 12, 12)
        assert rep.degree == 27
        assert rep.residual == 2
        _, factors = squarefree_decomp(pullback(h2, param))
        assert (3 * S**2 + T**2, 1) in [(p, m) for p, m in factors]

    def test_zero_pullback_rejected(self):
        F = parse_poly("x^4 - x^3*y + y^3*z")
        with pytest.raises(ZeroPullback):
            intersection_orders(F, parse_param(QUARTIC_PARAM), [(1, 0)])

    def test_bezout_bookkeeping(self):
        # every zero of the pulled-back Hessian is accounted for by the
        # squarefree split: sum(deg * mult) equals deg(H) * d
        for text in (QUARTIC_PARAM, QUINTIC_PARAM, BINOMIAL_PARAM):
            param = parse_param(text)
            F = {
                QUARTIC_PARAM: "x^4 - x^3*y + y^3*z",
                QUINTIC_PARAM: "y^5 + 2*x^2*y^2*z - x^3*z^2 - x*y^4",
                BINOMIAL_PARAM: "x^3*z^2 - y^5",
            }[text]
            F = parse_poly(F)
            for G in (hessian(F).H, second_hessian(F)):
                pb = pullback(G, param)
                _, factors = squarefree_decomp(pb)
                assert sum(p.degree() * m for p, m in factors) == pb.degree()
                assert pb.degree() == G.degree() * param.degree


class TestLocalBranch:
    def test_chart_at_s_axis(self):
        b = local_branch_at(parse_param(BINOMIAL_PARAM), (1, 0), 20)
        assert b.x.coeffs == {0: 1}
        assert b.y.coeffs == {2: 1}
        assert b.z.coeffs == {5: 1}

    def test_chart_at_t_axis(self):
        b = local_branch_at(parse_param(BINOMIAL_PARAM), (0, 1), 20)
        assert b.x.coeffs == {5: 1}
        assert b.y.coeffs == {3: 1}
        assert b.z.coeffs == {0: 1}

    @pytest.mark.parametrize("trunc", [0, -1, 2.5, True])
    def test_truncation_must_be_a_positive_int(self, trunc):
        with pytest.raises(RationalError, match=r"^truncation must be a positive integer, got "):
            local_branch_at(parse_param(BINOMIAL_PARAM), (1, 2), trunc)
        with pytest.raises(RationalError, match=r"^truncation must be a positive integer, got "):
            local_branch_at(parse_param(BINOMIAL_PARAM), (1, 0), trunc)

    def test_weights_match_wronskian_orders(self):
        # at every rational zero of the Wronskian, the local branch weight
        # equals the multiplicity of the zero
        for text in (QUARTIC_PARAM, QUINTIC_PARAM, BINOMIAL_PARAM):
            param = parse_param(text)
            scan = conic_wronskian(param)
            for entry in weights_from_xi(scan, param):
                if entry.parameter is None:
                    continue
                b = local_branch_at(param, entry.parameter, 4 * param.degree + 4)
                assert weight2(b).w2 == entry.weight

    def test_conic_family_order_at_parameter(self):
        # the evaluated family meets the curve with order >= 5 at its
        # parameter, and exactly 6 at a 1-sextactic parameter
        param = parse_param(NODAL_PARAM)
        for at, want in [((1, 2), 5), ((2, 1), 5), ((1, 0), 6)]:
            conic = osculating_conic_family(param, at=at)
            pb = pullback(conic, param)
            from sextactic.poly import linear_factor_orders

            assert linear_factor_orders(pb, at) == want


# -- the evaluate-first conic and the shared Laplace expansion ---------------

CHECK = settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def coprime_params(draw, d):
    coeffs = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)
    forms = [
        MPoly(ST, {(i, d - i): c for i, c in enumerate(draw(coeffs))})
        for _ in range(3)
    ]
    try:
        return RationalParam(*forms)
    except RationalError:
        assume(False)


parameters = st.one_of(
    st.sampled_from([(1, 0), (0, 1)]),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda p: p != (0, 0)),
)


def check_evaluated_conic(param, at):
    """The evaluate-first conic equals the symbolic family at ``at``."""
    try:
        family = osculating_conic_family(param)
    except DegenerateParam:
        with pytest.raises(DegenerateParam, match="identically zero"):
            osculating_conic_family(param, at=at)
        return
    co = dict(zip(CONIC_BASIS, family))
    conic = MPoly(XYZ, {expo: form.eval(at) for expo, form in co.items()})
    if conic.is_zero():
        with pytest.raises(DegenerateParam, match="vanishes at"):
            osculating_conic_family(param, at=at)
    else:
        assert osculating_conic_family(param, at=at) == conic.canonical()


DEGREES = pytest.mark.parametrize("d", range(3, 8))


class TestEvaluateFirst:
    @pytest.mark.parametrize(
        "text, at",
        [
            (NODAL_PARAM, (1, 0)),
            ("(s^3 : s^3 + t^3 : t^3)", (0, 1)),
            ("(s^3 : s*t^2 : t^3)", (1, 0)),
        ],
    )
    def test_evaluated_conic_on_known_cubics(self, text, at):
        check_evaluated_conic(parse_param(text), at)

    @DEGREES
    @CHECK
    @given(data=st.data())
    def test_evaluated_conic_matches_symbolic_family(self, d, data):
        check_evaluated_conic(data.draw(coprime_params(d)), data.draw(parameters))

    @DEGREES
    @CHECK
    @given(data=st.data())
    def test_shared_minors_match_bareiss(self, d, data):
        param = data.draw(coprime_params(d))
        rows = derivative_rows_reference(param_veronese(param), 4)
        for j, minor in enumerate(laplace_minors(rows)):
            sub = [[row[k] for k in range(6) if k != j] for row in rows]
            want = det_bareiss(PolyMatrix(sub))
            assert minor == (want if j % 2 == 0 else -want)

    @DEGREES
    @CHECK
    @given(data=st.data())
    def test_wronskian_det_matches_bareiss(self, d, data):
        param = data.draw(coprime_params(d))
        m = PolyMatrix(derivative_rows_reference(param_veronese(param), 5))
        assert m.det() == det_bareiss(m)


class TestDeterminantPath:
    """Guards on which determinant routine the rational pipeline reaches."""

    def test_omega_at_builds_no_symbolic_minor(self, monkeypatch, capsys):
        entry_kinds = []

        def counting(rows):
            entry_kinds.append(type(rows[0][0]).__name__)
            return laplace_minors(rows)

        def no_det(self):
            raise AssertionError("PolyMatrix.det reached")

        monkeypatch.setattr(rational, "laplace_minors", counting)
        monkeypatch.setattr(PolyMatrix, "det", no_det)
        argv = ["wronski", "--param", NODAL_PARAM, "--omega", "--at", "(1:2)"]
        assert cli.main(argv) == 0
        assert "O = " in capsys.readouterr().out
        assert len(entry_kinds) == 1
        assert entry_kinds[0] != "MPoly"

    def test_bareiss_unreached(self):
        # elimination lives only in the tests' reference module: the library
        # has one determinant path, which takes no method argument
        assert not hasattr(PolyMatrix, "_det_bareiss")
        with pytest.raises(TypeError):
            PolyMatrix([[MPoly.constant(ST, 1)]]).det("bareiss")
        for text in (NODAL_PARAM, QUINTIC_PARAM):
            param = parse_param(text)
            conic_wronskian(param)
            osculating_conic_family(param)
            osculating_conic_family(param, at=(1, 2))
        with pytest.raises(DegenerateParam):
            osculating_conic_family(parse_param("(s^3 : s*t^2 : t^3)"), at=(1, 0))


# -- binary forms evaluated at s = 2^(8w): family, Wronskian, pullback -------


def integer_minors(rows, degree):
    """``laplace_minors`` of integer binary-form rows taken over the integers
    at s = 2^(8w) and read back, as ``osculating_conic_family`` does."""
    w, ints = rational._evaluated_rows(dense_rows(rows))
    return [read_back(m, w, degree) for m in laplace_minors(ints)]


def dense_rows(rows):
    return [[dense_form(f) for f in row] for row in rows]


@st.composite
def ternary_forms(draw, degree):
    """A homogeneous ternary form with small rational coefficients."""
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    monomials = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    chosen = draw(st.lists(st.sampled_from(monomials), max_size=12, unique=True))
    return MPoly(XYZ, {e: draw(coeff) for e in chosen})


class TestKroneckerEvaluation:
    @DEGREES
    @CHECK
    @given(data=st.data())
    def test_family_matches_minors_of_polynomial_rows(self, d, data):
        param = data.draw(coprime_params(d))
        want = tuple(laplace_minors(derivative_rows_reference(param_veronese(param), 4)))
        if not any(want):
            with pytest.raises(DegenerateParam):
                osculating_conic_family(param)
        else:
            assert osculating_conic_family(param) == want

    @DEGREES
    @CHECK
    @given(data=st.data())
    def test_family_lists_are_the_family_terms(self, d, data):
        # the CLI prints the list core; the MPoly family is its form
        param = data.draw(coprime_params(d))
        at = data.draw(parameters)
        try:
            family = osculating_conic_family(param)
        except DegenerateParam:
            with pytest.raises(DegenerateParam, match="identically zero"):
                rational._conic_family(param)
            return
        lists = rational._conic_family(param)
        assert len(lists) == 6
        assert [padded(form, 10 * d - 20) for form in family] == lists
        try:
            conic = osculating_conic_family(param, at=at)
        except DegenerateParam:
            with pytest.raises(DegenerateParam, match="vanishes at"):
                rational._conic_family(param, at)
        else:
            assert rational._conic_family(param, at) == conic

    @DEGREES
    @CHECK
    @given(data=st.data())
    def test_wronskian_matches_polynomial_determinant(self, d, data):
        param = data.draw(coprime_params(d))
        want = PolyMatrix(derivative_rows_reference(param_veronese(param), 5)).det()
        if want.is_zero():
            with pytest.raises(DegenerateParam):
                conic_wronskian(param)
        else:
            assert conic_wronskian(param).xi == want

    @pytest.mark.parametrize("degree", range(7))
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_pullback_matches_compose(self, degree, data):
        G = data.draw(ternary_forms(degree))
        param = data.draw(coprime_params(data.draw(st.integers(3, 6))))
        assert pullback(G, param) == G.compose(param.phi)

    def test_pullback_of_a_sparse_two_hessian(self):
        # H2 of degree 69 has 46 terms: most of its rows hold one term, so
        # they stop short, and some are empty
        h2 = second_hessian(parse_poly("x^7*y + y^7*z + z^7*x"))
        param = parse_param(QUARTIC_PARAM)
        assert pullback(h2, param) == h2.compose(param.phi)

    def test_zero_minor_and_a_cancelling_slot(self):
        # columns 0 and 1 agree, so every minor keeping both is zero
        rows = [[S + T, S + T, T, S], [S - T, S - T, S, T], [S, S, T, 2 * S]]
        got = integer_minors(rows, 3)
        assert got == laplace_minors(rows)
        assert got[2].is_zero() and got[3].is_zero() and not got[0].is_zero()
        # the minor without column 2 is (s+t)*s - t*(s-t) = s^2 + t^2, whose
        # s*t slot cancels
        rows = [[S + T, T, S], [S - T, S, T]]
        got = integer_minors(rows, 2)
        assert got == laplace_minors(rows)
        assert got[2] == S**2 + T**2

    def test_minors_with_negative_leading_digits(self):
        rows = [[-(S**2) - 7 * T**2, 3 * S * T, -5 * S**2], [S - 2 * T, -S, 4 * T]]
        assert integer_minors(rows, 3) == laplace_minors(rows)

    def test_minor_at_the_bound(self):
        # the bound 2! * 129 * 127 = 32766 is met by the minor without column
        # 2, 129 s * 127 s + 129 s * 127 s, one below the 2-byte limit
        rows = [[129 * S, 129 * S, T], [-127 * S, 127 * S, T]]
        w, _ = rational._evaluated_rows(dense_rows(rows))
        assert w == 2
        got = integer_minors(rows, 2)
        assert got == laplace_minors(rows)
        assert got[2] == 32766 * S**2

    def test_zero_row(self):
        rows = [[MPoly.zero(ST)] * 3, [200 * S**2, S * T, T**2]]
        assert integer_minors(rows, 2) == [MPoly.zero(ST)] * 3

    @pytest.mark.parametrize("c, w", [(127, 1), (128, 2), (2**15 - 1, 2), (2**15, 4)])
    def test_pullback_coefficient_at_the_edge_of_the_width(self, c, w):
        # G = x pulls back to phi0 = c * s^3; the bound is c itself
        param = RationalParam(c * S**3, T**3, S**3 + T**3)
        assert poly.digit_width(c) == w
        assert pullback(X, param) == c * S**3
        assert pullback(X * Y - Z**2, param) == X.compose(param.phi) * T**3 - (S**3 + T**3) ** 2

    def test_pullback_along_forms_divisible_by_s_or_t(self):
        for text in (BINOMIAL_PARAM, QUINTIC_PARAM, "(s^4 : s*t^3 : t^4 - s^2*t^2)"):
            param = parse_param(text)
            for G in (X**3, X * Y * Z, Y**2 - Fraction(1, 3) * X * Z, Z):
                assert pullback(G, param) == G.compose(param.phi)

    def test_pullback_constant_and_zero(self):
        param = parse_param(NODAL_PARAM)
        assert pullback(MPoly.constant(XYZ, Fraction(-3, 4)), param) == MPoly.constant(ST, Fraction(-3, 4))
        assert pullback(MPoly.zero(XYZ), param) == MPoly.zero(ST)

    def test_pullback_keeps_its_errors(self):
        param = parse_param(NODAL_PARAM)
        with pytest.raises(RationalError, match="homogeneous"):
            pullback(X + Y**2, param)
        with pytest.raises(poly.VariableSetMismatch):
            pullback(MPoly.variable(ST, "s"), param)

    def test_wronskian_never_reaches_polymatrix_det(self, monkeypatch):
        def no_det(self):
            raise AssertionError("PolyMatrix.det reached")

        monkeypatch.setattr(PolyMatrix, "det", no_det)
        for text in (NODAL_PARAM, QUARTIC_PARAM, QUINTIC_PARAM, BINOMIAL_PARAM):
            param = parse_param(text)
            assert conic_wronskian(param).total == 6 * (2 * param.degree - 5)
        assert cli.main(["wronski", "--param", QUINTIC_PARAM]) == 0

    def test_pullback_never_reaches_compose(self, monkeypatch):
        G = second_hessian(parse_poly("x^4 - x^3*y + y^3*z"))
        param = parse_param(QUARTIC_PARAM)
        want = G.compose(param.phi)

        def no_compose(self, images):
            raise AssertionError("MPoly.compose reached")

        monkeypatch.setattr(MPoly, "compose", no_compose)
        assert pullback(G, param) == want
        argv = ["orders", "--param", QUARTIC_PARAM, "--poly", "x*y - z^2", "--at", "(1:0)"]
        assert cli.main(argv) == 0


# -- the dense lists against the MPoly chain they replaced --------------------


@st.composite
def params_with_zeros(draw, d, height=3):
    """A coprime param of degree d whose components may be zero."""
    coeffs = st.lists(st.integers(-height, height), min_size=d + 1, max_size=d + 1)
    lists = [draw(coeffs) for _ in range(3)]
    for i in draw(st.sets(st.integers(0, 2), max_size=1)):
        lists[i] = [0] * (d + 1)
    forms = [MPoly(ST, {(i, d - i): c for i, c in enumerate(u)}) for u in lists]
    try:
        return RationalParam(*forms)
    except RationalError:
        assume(False)


def padded(f: MPoly, n: int):
    """The dense list of length n + 1 of a binary form of degree n, or zero."""
    return [f.coefficient((i, n - i)) for i in range(n + 1)]


rational_points = st.one_of(
    st.sampled_from([(1, 0), (0, 1), (-3, 0), (0, Fraction(2, 5))]),
    st.tuples(st.fractions(-5, 5, max_denominator=4), st.fractions(-5, 5, max_denominator=4)).filter(any),
)


class TestDenseForms:
    @pytest.mark.parametrize("order", [4, 5])
    @pytest.mark.parametrize("d", range(3, 9))
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_derivative_rows_match_partials(self, order, d, data):
        # row r is the partials divided by (order - r)! r!
        param = data.draw(params_with_zeros(d))
        assert param.dense == tuple(padded(p, d) for p in param.phi)
        got = rational._derivative_rows(poly.veronese(*param.dense, times=poly._u_mul), order)
        want = derivative_rows_reference(param_veronese(param), order)
        scales = [math.factorial(order - r) * math.factorial(r) for r in range(order + 1)]
        assert [[[c * m for c in u] for u in row] for row, m in zip(got, scales)] == [
            [padded(f, 2 * d - order) for f in row] for row in want
        ]

    @pytest.mark.parametrize("order", [4, 5])
    @pytest.mark.parametrize("height", [1, 3, 30])
    @pytest.mark.parametrize("d", range(3, 9))
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_divided_rows_pack_narrower(self, order, height, d, data):
        # the factorial rows are the partials themselves; dividing them
        # divides the minors' bound by _row_divisor(order), about two bytes
        param = data.draw(params_with_zeros(d, height))
        rows = rational._derivative_rows(poly.veronese(*param.dense, times=poly._u_mul), order)
        divided, _ = rational._evaluated_rows(rows)
        rows = derivative_rows_reference(param_veronese(param), order)
        factorial, _ = rational._evaluated_rows([[padded(f, 2 * d - order) for f in row] for row in rows])
        assert divided <= factorial
        if factorial > 8:
            assert divided < factorial

    @pytest.mark.parametrize("d", range(3, 9))
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_local_branch_matches_compose(self, d, data):
        param = data.draw(params_with_zeros(d))
        at = data.draw(rational_points)
        trunc = data.draw(st.sampled_from([1, d, d + 1, d + 2, 3 * d]))
        got = local_branch_at(param, at, trunc)
        want = local_branch_at_reference(param, at, trunc)
        for a, b in zip(got.coords, want.coords):
            assert a.trunc == b.trunc == trunc
            assert a.coeffs == b.coeffs
            assert all(type(c) is int or c.denominator > 1 for c in a.coeffs.values())

    @pytest.mark.parametrize("d", range(3, 9))
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_local_branch_stores_what_its_file_does(self, d, data):
        param = data.draw(params_with_zeros(d))
        at = data.draw(rational_points)
        trunc = data.draw(st.sampled_from([1, d, d + 1, d + 2, 3 * d]))
        b = local_branch_at(param, at, trunc)
        text = {"truncation": trunc}
        for key, s in zip("xyz", local_branch_at_reference(param, at, trunc).coords):
            text[key] = [[Fraction(c).numerator, Fraction(c).denominator, e] for e, c in s.coeffs.items()]
        parsed = parse_branch(json.dumps(text))
        assert (b.den, b.truncs, b.ints) == (parsed.den, parsed.truncs, parsed.ints)

    def test_zero_parameter_refused_before_any_work(self, monkeypatch):
        def no_rows(forms, order):
            raise AssertionError("rows built")

        monkeypatch.setattr(rational, "_derivative_rows", no_rows)
        param = parse_param(NODAL_PARAM)
        message = r"^\(0, 0\) is not a projective parameter$"
        with pytest.raises(RationalError, match=message):
            osculating_conic_family(param, at=(0, 0))
        with pytest.raises(RationalError, match=message):
            local_branch_at(param, (0, 0), 8)
        with pytest.raises(RationalError, match=r"^parametrization vanishes at \(0 : 0\)$"):
            param.eval_point((0, 0))

    @pytest.mark.parametrize("d", range(3, 9))
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_eval_point_matches_mpoly_eval(self, d, data):
        param = data.draw(params_with_zeros(d))
        drawn = data.draw(rational_points)
        for at in ((1, 0), (0, 1), (Fraction(-2, 3), Fraction(5, 4)), drawn):
            assert param.eval_point(at) == eval_point_reference(param, at)

    def test_eval_point_and_weights_never_reach_mpoly_eval(self, monkeypatch):
        params = [parse_param(t) for t in (NODAL_PARAM, QUARTIC_PARAM, QUINTIC_PARAM, BINOMIAL_PARAM)]
        scans = [conic_wronskian(param) for param in params]
        ats = ((1, 0), (0, 1), (Fraction(-1, 3), 1), (Fraction(7, 2), Fraction(-5, 3)))
        want = [[eval_point_reference(param, at) for at in ats] for param in params]
        weights = [weights_from_xi(scan, param) for scan, param in zip(scans, params)]

        def no_eval(self, point):
            raise AssertionError("MPoly.eval reached")

        monkeypatch.setattr(MPoly, "eval", no_eval)
        assert [[param.eval_point(at) for at in ats] for param in params] == want
        assert [weights_from_xi(scan, param) for scan, param in zip(scans, params)] == weights
        assert any(e.point is not None for entries in weights for e in entries)

    def test_never_reaches_partial_or_compose(self, monkeypatch):
        def refuse(name):
            def method(self, *args):
                raise AssertionError(f"MPoly.{name} reached")

            return method

        monkeypatch.setattr(MPoly, "partial", refuse("partial"))
        monkeypatch.setattr(MPoly, "compose", refuse("compose"))
        G = X * Y - Z**2
        for text in (NODAL_PARAM, QUARTIC_PARAM, QUINTIC_PARAM, BINOMIAL_PARAM):
            param = parse_param(text)
            osculating_conic_family(param)
            osculating_conic_family(param, at=(1, 2))
            conic_wronskian(param)
            pullback(G, param)
            for at in ((1, 0), (0, 1), (Fraction(-1, 3), 1)):
                local_branch_at(param, at, 4 * param.degree + 4)


# -- where a binary form stops being a dense list -----------------------------


class TestFormEdges:
    """Inside the library a binary form is its dense list.  Only the exported
    ``MPoly`` functions convert a form in (``_dense``), and only they and the
    printed values build one (``_form``)."""

    @staticmethod
    def spy(monkeypatch):
        calls = {"_dense": 0, "_form": 0}
        for name in calls:
            real = getattr(poly, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            for module in (poly, rational):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        return calls

    def test_orders_job_converts_nothing(self, monkeypatch, capsys):
        calls = self.spy(monkeypatch)
        argv = ["orders", "--param", "(s^4:s^3*t:t^4)", "--poly", "x*z-y^2", "--at", "(1:0),(0:1),(1:1)"]
        assert cli.main(argv) == 0
        assert calls == {"_dense": 0, "_form": 0}
        assert "residual_degree = 1" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [QUINTIC_PARAM, NODAL_PARAM])
    def test_wronski_job_builds_xi_and_each_root_free_class(self, text, monkeypatch, capsys):
        root_free = sum(z.parameter is None for z in conic_wronskian(parse_param(text)).classes)
        assert root_free >= 1
        calls = self.spy(monkeypatch)
        assert cli.main(["wronski", "--param", text]) == 0
        assert calls == {"_dense": 0, "_form": 1 + root_free}

    @pytest.mark.parametrize(
        "text, message",
        [
            # one nonzero form is the common factor as given, not made primitive
            ("(2*s^2:0:0)", "CommonFactorError: components share the nontrivial factor 2*s^2"),
            ("(s*t^2:s^2*t:s*t*(s+t))", "CommonFactorError: components share the nontrivial factor s*t"),
            ("(2:0:0)", "RationalError: need degree >= 3, got 0"),
        ],
    )
    def test_coprimality_fold_error_texts(self, text, message, capsys):
        assert cli.main(["wronski", "--param", text]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestOneConicByThreeRoutes:
    """The osculating conic at a point of each bundled (param, implicit)
    pair, from F's Taylor jet, from the Wronskian minors of the
    parametrization and from the branch ladder: three routes, one conic."""

    # coprime (a : b) with |a| <= 9 and 0 <= b <= 9, (1 : 0) the one b = 0
    PARAMETERS = [(1, 0)] + [
        (a, b) for b in range(1, 10) for a in range(-9, 10) if math.gcd(a, b) == 1
    ]

    def test_three_routes_agree(self):
        agreed = refused = 0
        for curve in fixtures.CURVES.values():
            if "param" not in curve:
                continue
            F, param = parse_poly(curve["implicit"]), parse_param(curve["param"])
            for at in self.PARAMETERS:
                try:
                    want = osculating_conic(F, param.eval_point(at))
                except (SingularPoint, InflectionPoint):
                    refused += 1
                    continue
                assert osculating_conic_family(param, at=at) == want
                branch = local_branch_at(param, at, 4 * param.degree + 4)
                assert hyperosculating_conic_at_branch(branch)[1] == want
                agreed += 1
        assert (agreed, refused) == (438, 10)
