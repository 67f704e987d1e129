"""Counting formulas and profile validation."""

import pytest

from sextactic.branch import closed_form_ladder
from sextactic.census import (
    CensusError,
    CurveProfile,
    PointRecord,
    brill_segre_total,
    inflection_count,
    intersection_identities,
    predicted_hessian2_order,
    predicted_hessian_order,
    sextactic_count,
)


def quartic_profile():
    return CurveProfile.build(
        4,
        [
            PointRecord("cusp", 3, 4, ms=(3,)),
            PointRecord("inflection", 1, 3),
            PointRecord("inflection", 1, 3),
            PointRecord("smooth", 1, 2, c=6),
            PointRecord("smooth", 1, 2, c=6),
            PointRecord("smooth", 1, 2, c=6),
        ],
    )


def quintic_profile():
    return CurveProfile.build(
        5,
        [
            PointRecord("cusp", 3, 5, ms=(3, 2)),
            PointRecord("cusp", 2, 4, c=5, ms=(2, 2)),
            PointRecord("inflection", 1, 3),
            PointRecord("smooth", 1, 2, c=6),
            PointRecord("smooth", 1, 2, c=6),
        ],
    )


def binomial_profile():
    return CurveProfile.build(
        5,
        [
            PointRecord("cusp", 3, 5, ms=(3, 2)),
            PointRecord("cusp", 2, 5, ms=(2, 2)),
        ],
    )


def smooth_cubic_profile():
    return CurveProfile.build(
        3, [PointRecord("inflection", 1, 3) for _ in range(9)], g=1
    )


class TestRecords:
    def test_delta_from_sequence(self):
        assert PointRecord("cusp", 3, 5, ms=(3, 2)).delta == 4
        assert PointRecord("cusp", 2, 4, c=5, ms=(2, 2)).delta == 2
        assert PointRecord("cusp", 3, 4, ms=(3,)).delta == 3

    def test_weights(self):
        assert PointRecord("cusp", 3, 5, ms=(3, 2)).weight() == 17
        assert PointRecord("cusp", 2, 4, c=5, ms=(2, 2)).weight() == 10
        assert PointRecord("inflection", 1, 3).weight() == 1
        assert PointRecord("smooth", 1, 2, c=6).weight() == 1
        assert PointRecord("smooth", 1, 2, c=5).weight() == 0

    def test_weight_is_the_ladder_sum_less_15(self):
        # the census and the branch layer each carry the weight formula: the
        # record's closed form must be the sum of the six conic orders - 15
        checked = 0
        for m in range(1, 6):
            for l in range(m + 1, 3 * m + 3):
                role = "cusp" if m > 1 else "smooth" if l == 2 else "inflection"
                if l == 2 * m:
                    cs = [c for c in range(2 * m + 1, 6 * m + 1) if c not in (3 * m, 4 * m)]
                else:
                    cs = [None]
                for c in cs:
                    assert PointRecord(role, m, l, c).weight() == sum(closed_form_ladder(m, l, c)) - 15
                    checked += 1
        # 2m + 1 records with l != 2m and 4m - 2 values of c for each m
        assert checked == sum(6 * m - 1 for m in range(1, 6))

    def test_c_constraints(self):
        with pytest.raises(CensusError):
            PointRecord("cusp", 2, 4)  # l = 2m but no c
        with pytest.raises(CensusError):
            PointRecord("cusp", 2, 4, c=6)  # c = 3m
        with pytest.raises(CensusError):
            PointRecord("cusp", 2, 4, c=8)  # c = 4m
        with pytest.raises(CensusError):
            PointRecord("cusp", 2, 5, c=7)  # c given but l != 2m

    def test_role_constraints(self):
        with pytest.raises(CensusError):
            PointRecord("inflection", 2, 5)
        with pytest.raises(CensusError):
            PointRecord("cusp", 1, 2, c=5)
        with pytest.raises(CensusError):
            PointRecord("smooth", 1, 3)


class TestFieldTypes:
    """Every integer field refuses bools and non-integers, and a label is a
    string; each of these records was once accepted (the first with weight
    1, the third with weight 12.5)."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PointRecord("smooth", True, 2, c=6), "multiplicity must be a positive integer, got True"),
            (lambda: PointRecord("smooth", 1, 2.0, c=6), "tangent contact l must exceed m=1, got 2.0"),
            (lambda: PointRecord("cusp", 2, 3, ms=(2, True)), r"malformed multiplicity sequence \(2, True\)"),
            (lambda: PointRecord("cusp", 2, 4, c=7.5), "conic contact order c must be an integer, got 7.5"),
            (lambda: PointRecord("cusp", 2, 3, delta=1.5), "delta must be an integer, got 1.5"),
            (lambda: PointRecord("cusp", 2, 3, delta=True), "delta must be an integer, got True"),
            (lambda: PointRecord("inflection", 1, 3, label=5), "label must be a string, got 5"),
            (lambda: CurveProfile(4, True, ()), "need a non-negative integer genus, got True"),
            (lambda: CurveProfile(4.0, 3, ()), "need an integer degree d >= 3, got 4.0"),
        ],
        ids=["m-bool", "l-float", "ms-bool", "c-float", "delta-float", "delta-bool", "label-int", "g-bool", "d-float"],
    )
    def test_refused(self, build, message):
        with pytest.raises(CensusError, match=f"^{message}$"):
            build()

    def test_integers_and_strings_still_pass(self):
        assert PointRecord("smooth", 1, 2, c=6).weight() == 1
        assert PointRecord("cusp", 2, 3, delta=1, label="p").delta == 1
        assert CurveProfile(4, 0, ()).g == 0


class TestGenus:
    def test_clebsch(self):
        assert quintic_profile().g == 0
        assert quartic_profile().g == 0

    def test_conflict_detected(self):
        with pytest.raises(CensusError):
            CurveProfile.build(5, [PointRecord("cusp", 3, 5, ms=(3, 2))], g=1)

    def test_explicit_genus_honoured(self):
        assert smooth_cubic_profile().g == 1

    def test_underdetermined(self):
        with pytest.raises(CensusError):
            CurveProfile.build(5, [PointRecord("cusp", 2, 3)])  # no delta, no g


class TestCounts:
    def test_quintic(self):
        rep = sextactic_count(quintic_profile())
        assert rep.s == 2
        assert rep.total == 30

    def test_binomial(self):
        assert sextactic_count(binomial_profile()).s == 0

    def test_quartic(self):
        assert sextactic_count(quartic_profile()).s == 3

    def test_smooth_cubic(self):
        rep = sextactic_count(smooth_cubic_profile())
        assert rep.s == 27
        assert rep.total == 36

    def test_inflection_counts(self):
        assert inflection_count(quartic_profile()) == 2
        assert inflection_count(quintic_profile()) == 1
        assert inflection_count(binomial_profile()) == 0
        assert inflection_count(smooth_cubic_profile()) == 9  # 3d(d-2)

    def test_negative_count_rejected(self):
        profile = CurveProfile.build(
            3, [PointRecord("cusp", 2, 4, c=5, ms=(2,))]
        )
        with pytest.raises(CensusError):
            sextactic_count(profile)

    def test_brill_segre(self):
        assert brill_segre_total(5, 0) == 30
        assert brill_segre_total(3, 1) == 36
        assert brill_segre_total(3, 0) == 6


class TestIdentities:
    @pytest.mark.parametrize(
        "profile_fn",
        [quartic_profile, quintic_profile, binomial_profile, smooth_cubic_profile],
    )
    def test_residuals_vanish(self, profile_fn):
        profile = profile_fn()
        s = sextactic_count(profile).s
        rep = intersection_identities(profile, s)
        assert rep.ok
        assert (rep.residual1, rep.residual2) == (0, 0)

    def test_quartic_budget_values(self):
        profile = quartic_profile()
        rep = intersection_identities(profile, 3)
        assert (rep.lhs2, rep.rhs2) == (84, 84)
        assert rep.rhs2 == 3 + 24 * 3 + 9  # s + 24*delta + cusp term

    def test_cusp_without_delta_rejected(self):
        # the genus is stated, so the profile builds without the cusp's delta;
        # the identities need it, as the inflection count does
        profile = CurveProfile.build(5, [PointRecord("cusp", 2, 3)], g=5)
        with pytest.raises(CensusError, match="needs delta"):
            inflection_count(profile)
        with pytest.raises(CensusError, match="needs delta"):
            intersection_identities(profile, 0)


class TestPredictions:
    def test_second_hessian_orders(self):
        assert predicted_hessian2_order(PointRecord("cusp", 3, 4, ms=(3,))) == 81
        assert predicted_hessian2_order(PointRecord("cusp", 3, 5, ms=(3, 2))) == 108
        assert predicted_hessian2_order(PointRecord("cusp", 2, 4, c=5, ms=(2, 2))) == 55
        assert predicted_hessian2_order(PointRecord("cusp", 2, 5, ms=(2, 2))) == 57
        assert predicted_hessian2_order(PointRecord("smooth", 1, 2, c=6)) == 1
        assert predicted_hessian2_order(PointRecord("inflection", 1, 3)) == 0

    def test_hessian_orders(self):
        assert predicted_hessian_order(PointRecord("cusp", 3, 4, ms=(3,))) == 22
        assert predicted_hessian_order(PointRecord("cusp", 3, 5, ms=(3, 2))) == 29
        assert predicted_hessian_order(PointRecord("cusp", 2, 4, c=5, ms=(2, 2))) == 15
        assert predicted_hessian_order(PointRecord("cusp", 2, 5, ms=(2, 2))) == 16
        assert predicted_hessian_order(PointRecord("smooth", 1, 2, c=6)) == 0
        assert predicted_hessian_order(PointRecord("inflection", 1, 3)) == 1


class TestEndToEnd:
    @pytest.mark.parametrize(
        "param_text,implicit,profile_fn",
        [
            (
                "(s^5 : s^3*t^2 : s*t^4 + t^5)",
                "y^5 + 2*x^2*y^2*z - x^3*z^2 - x*y^4",
                quintic_profile,
            ),
            ("(s^5 : s^3*t^2 : t^5)", "x^3*z^2 - y^5", binomial_profile),
        ],
    )
    def test_wronskian_weights_match_counts(self, param_text, implicit, profile_fn):
        # total Wronskian weight is the weight budget, and the weight sitting
        # at smooth non-inflection parameters is the sextactic count
        from sextactic.branch import weight2
        from sextactic.differential import hessian
        from sextactic.parse import parse_param, parse_poly
        from sextactic.rational import (
            conic_wronskian,
            local_branch_at,
            pullback,
            weights_from_xi,
        )
        from sextactic.poly import exact_div, ExactDivisionError

        param = parse_param(param_text)
        profile = profile_fn()
        scan = conic_wronskian(param)
        assert scan.total == brill_segre_total(profile.d, profile.g)
        h_pull = pullback(hessian(parse_poly(implicit)).H, param)
        sextactic_weight = 0
        for entry in weights_from_xi(scan, param):
            if entry.parameter is not None:
                b = local_branch_at(param, entry.parameter, 4 * param.degree + 4)
                if weight2(b).classification == "sextactic":
                    sextactic_weight += entry.weight
            else:
                # a conjugate class is sextactic iff it misses the Hessian
                try:
                    exact_div(h_pull, entry.factor)
                    on_hessian = True
                except ExactDivisionError:
                    on_hessian = False
                if not on_hessian:
                    sextactic_weight += entry.weight * entry.points
        assert sextactic_weight == sextactic_count(profile).s


class TestPerBranch:
    def test_shared_labels(self):
        records = [
            PointRecord("cusp", 2, 3, delta=1, label="p"),
            PointRecord("inflection", 1, 3, label="p"),
        ]
        with pytest.raises(CensusError):
            CurveProfile.build(6, records, g=2)
        profile = CurveProfile.build(6, records, g=2, per_branch=True)
        rep = sextactic_count(profile, per_branch=True)
        assert rep.total == brill_segre_total(6, 2)

    def test_per_branch_requires_genus(self):
        records = [PointRecord("cusp", 2, 3, delta=1)]
        with pytest.raises(CensusError):
            CurveProfile.build(6, records, per_branch=True)

    def test_nodal_cubic_per_branch(self):
        # the node splits into two branches of trivial conic contact; they
        # enter the weight sums (with weight 0 here) because they share a label
        records = [
            PointRecord("smooth", 1, 2, c=5, label="node"),
            PointRecord("smooth", 1, 2, c=5, label="node"),
            PointRecord("inflection", 1, 3),
            PointRecord("inflection", 1, 3),
            PointRecord("inflection", 1, 3),
        ]
        profile = CurveProfile.build(3, records, g=0, per_branch=True)
        assert len(profile.set_J()) == 2
        rep = sextactic_count(profile, per_branch=True)
        assert rep.s == 3  # matches the Wronskian scan of the same curve
        assert rep.total == 6

    def test_excess_contact_branch_is_subtracted(self):
        # one branch of the double point has conic contact 6: its weight must
        # reduce the smooth sextactic budget
        records = [
            PointRecord("smooth", 1, 2, c=6, label="p"),
            PointRecord("smooth", 1, 2, c=5, label="p"),
        ]
        profile = CurveProfile.build(4, records, g=1, per_branch=True)
        rep = sextactic_count(profile, per_branch=True)
        assert rep.sum_J == 1
        assert rep.s == brill_segre_total(4, 1) - 1

    def test_unique_label_smooth_records_stay_out_of_the_sums(self):
        records = [
            PointRecord("smooth", 1, 2, c=6, label="a"),
            PointRecord("smooth", 1, 2, c=6, label="b"),
        ]
        profile = CurveProfile.build(3, records, g=1)
        assert profile.set_J() == ()
        assert sextactic_count(profile).s == brill_segre_total(3, 1)
