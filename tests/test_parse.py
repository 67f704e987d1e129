"""Expression grammar, tuple parsers, and the structured file readers."""

import json
import random

import pytest

from sextactic.branch import NonPrimitiveBranch
from sextactic.census import CensusError
from sextactic.parse import (
    ParseError,
    parse_branch,
    parse_param,
    parse_parameter,
    parse_parameter_list,
    parse_point,
    parse_poly,
    parse_profile,
)
from sextactic.poly import ST, XYZ, MPoly
from sextactic.rational import CommonFactorError, RationalError

X, Y, Z = (MPoly.variable(XYZ, v) for v in XYZ)
S, T = (MPoly.variable(ST, v) for v in ST)


class TestParsePoly:
    def test_quartic(self):
        assert parse_poly("x^4 - x^3*y + y^3*z") == X**4 - X**3 * Y + Y**3 * Z

    def test_zero(self):
        assert parse_poly("0").is_zero()

    def test_binomial_identity(self):
        assert parse_poly("(x+y)^2 - x^2 - 2*x*y - y^2").is_zero()

    def test_unary_minus(self):
        assert parse_poly("-x^2") == -(X**2)
        assert parse_poly("3 * -x") == -3 * X
        assert parse_poly("--x") == X

    def test_precedence(self):
        assert parse_poly("2*x^3") == 2 * X**3
        assert parse_poly("x + y * z ^ 2") == X + Y * Z**2

    def test_st_alphabet(self):
        assert parse_poly("s^3*t^2", "st") == S**3 * T**2

    @pytest.mark.parametrize(
        "text",
        ["x^4 - w", "x^-2", "x^y", "3 +", "x y", "s^3t^2", "(x+y", "x**2", "2^2^2"],
    )
    def test_syntax_errors(self, text):
        alphabet = "st" if "s" in text else "xyz"
        with pytest.raises(ParseError) as info:
            parse_poly(text, alphabet)
        span = info.value.span
        assert span is not None
        assert 0 <= span.begin <= span.end <= len(text)

    def test_error_span_points_at_token(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x^4 - x^3*w + y^3*z")
        assert (info.value.span.begin, info.value.span.end) == (10, 11)

    @pytest.mark.parametrize("text", ["x^²*y + z^3", "x^٣ + y^3 + z^3"])
    def test_non_ascii_digit_is_rejected_at_its_span(self, text):
        # str.isdigit accepts both; int() rejects "²" and reads "٣" as 3
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse_poly(text)
        assert (info.value.span.begin, info.value.span.end) == (2, 3)

    def test_roundtrip_random(self):
        # printing then reparsing is the identity on integer polynomials
        rng = random.Random(2024)
        for _ in range(1000):
            n = len(XYZ)
            terms = {}
            for _ in range(rng.randint(1, 20)):
                expo = [0] * n
                for _ in range(rng.randint(0, 8)):
                    expo[rng.randrange(n)] += 1
                terms[tuple(expo)] = rng.choice([v for v in range(-99, 100) if v])
            p = MPoly(XYZ, terms)
            assert parse_poly(str(p)) == p


class TestParseParam:
    def test_quintic(self):
        param = parse_param("(s^5 : s^3*t^2 : t^5)")
        assert param.degree == 5
        assert param.phi[0] == S**5

    def test_line(self):
        assert parse_param("(s : t : t)").degree == 1

    def test_common_factor_rejected(self):
        with pytest.raises(CommonFactorError):
            parse_param("(s^2 : s*t : s^2)")

    def test_unequal_degrees_rejected(self):
        with pytest.raises(RationalError):
            parse_param("(s^2 : t : t^2)")

    def test_inhomogeneous_rejected(self):
        with pytest.raises(Exception):
            parse_param("(s^2 + s : t^2 : s*t)")

    def test_zero_triple_rejected(self):
        with pytest.raises(RationalError):
            parse_param("(0 : 0 : 0)")

    def test_numeric_content_removed(self):
        a = parse_param("(2*s^3 : 2*t^3 : 2*s*t^2)")
        b = parse_param("(s^3 : t^3 : s*t^2)")
        assert a.phi == b.phi

    def test_constructed_rejection_families(self):
        rng = random.Random(9)
        for _ in range(20):
            k = rng.randint(1, 3)
            # triples sharing the factor (s + k t) must be rejected
            with pytest.raises(CommonFactorError):
                parse_param(
                    f"((s + {k}*t)*s^2 : (s + {k}*t)*t^2 : (s + {k}*t)*s*t)"
                )
            d1, d2 = rng.sample([1, 2, 3, 4], 2)
            with pytest.raises(RationalError):
                parse_param(f"(s^{d1} : t^{d2} : s^{d1})")


class TestTupleParsers:
    def test_point(self):
        from fractions import Fraction

        assert parse_point("(-1 : 0 : 1)") == (-1, 0, 1)
        assert parse_point("(64/3 : 256/3 : 1)") == (
            Fraction(64, 3),
            Fraction(256, 3),
            1,
        )

    def test_parameter_list(self):
        pairs = parse_parameter_list("(1:0),(1:4),(-15:8)")
        assert pairs == [(1, 0), (1, 4), (-15, 8)]

    def test_all_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_point("(0:0:0)")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_point("(1/0 : 1 : 1)")

    def test_non_ascii_digit_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_parameter("(1²:1)")
        assert (info.value.span.begin, info.value.span.end) == (2, 3)


BRANCH_OK = {
    "truncation": 11,
    "x": [[1, 1, 3]],
    "y": [[1, 1, 5]],
    "z": [[1, 1, 0]],
}


class TestBranchFiles:
    def test_ok(self):
        b = parse_branch(json.dumps(BRANCH_OK))
        assert b.x.valuation() == 3
        assert b.trunc == 11

    def test_rational_coefficients(self):
        data = dict(BRANCH_OK, y=[[3, 2, 5]])
        b = parse_branch(json.dumps(data))
        from fractions import Fraction

        assert b.y.coefficient(5) == Fraction(3, 2)

    def test_exponent_beyond_truncation(self):
        data = dict(BRANCH_OK, x=[[1, 1, 11]])
        with pytest.raises(ParseError):
            parse_branch(json.dumps(data))

    def test_no_unit_coordinate(self):
        data = dict(BRANCH_OK, z=[[1, 1, 2]])
        with pytest.raises(NonPrimitiveBranch):
            parse_branch(json.dumps(data))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_branch("{not json")

    def test_duplicate_exponent(self):
        data = dict(BRANCH_OK, x=[[1, 1, 3], [2, 1, 3]])
        with pytest.raises(ParseError):
            parse_branch(json.dumps(data))

    def test_missing_coordinate(self):
        data = {k: v for k, v in BRANCH_OK.items() if k != "y"}
        with pytest.raises(ParseError):
            parse_branch(json.dumps(data))


PROFILE_OK = {
    "d": 5,
    "points": [
        {"role": "cusp", "m": 3, "l": 5, "multiplicity_sequence": [3, 2]},
        {"role": "cusp", "m": 2, "l": 4, "c": 5, "multiplicity_sequence": [2, 2]},
        {"role": "inflection", "m": 1, "l": 3},
        {"role": "smooth_sextactic_candidate", "m": 1, "l": 2, "c": 6},
        {"role": "smooth_sextactic_candidate", "m": 1, "l": 2, "c": 6},
    ],
}


class TestProfileFiles:
    def test_ok(self):
        prof = parse_profile(json.dumps(PROFILE_OK))
        assert (prof.d, prof.g) == (5, 0)
        assert len(prof.set_I()) == 2
        assert len(prof.set_J()) == 1

    def test_missing_degree(self):
        with pytest.raises(ParseError):
            parse_profile(json.dumps({"points": []}))

    def test_missing_c_when_tangent_degenerate(self):
        data = {
            "d": 5,
            "g": 0,
            "points": [{"role": "cusp", "m": 2, "l": 4, "delta": 2}],
        }
        with pytest.raises(CensusError):
            parse_profile(json.dumps(data))

    def test_sequence_head_must_match_m(self):
        data = {
            "d": 5,
            "g": 0,
            "points": [{"role": "cusp", "m": 3, "l": 5, "multiplicity_sequence": [2, 2]}],
        }
        with pytest.raises(CensusError):
            parse_profile(json.dumps(data))

    def test_delta_sequence_conflict(self):
        data = {
            "d": 5,
            "g": 0,
            "points": [
                {
                    "role": "cusp",
                    "m": 3,
                    "l": 5,
                    "multiplicity_sequence": [3, 2],
                    "delta": 3,
                }
            ],
        }
        with pytest.raises(CensusError):
            parse_profile(json.dumps(data))

    def test_unknown_role(self):
        data = {"d": 4, "points": [{"role": "node", "m": 2, "l": 4}]}
        with pytest.raises(ParseError):
            parse_profile(json.dumps(data))

    @pytest.mark.parametrize(
        "field",
        [
            {"c": "6"},
            {"c": 6.0},
            {"delta": "1"},
            {"m": True},
            {"l": None, "m": "2"},
            {"multiplicity_sequence": 2},
            {"multiplicity_sequence": [2, True]},
            {"label": ["a"]},
            {"role": ["cusp"]},
        ],
    )
    def test_wrong_json_type_in_point(self, field):
        points = [
            {"role": "inflection", "m": 1, "l": 3},
            {"role": "cusp", "m": 2, "l": 4, "c": 5, "delta": 1},
        ]
        assert parse_profile(json.dumps({"d": 5, "points": points})).g == 5
        points[1].update(field)
        with pytest.raises(ParseError, match="^point #1"):
            parse_profile(json.dumps({"d": 5, "points": points}))

    @pytest.mark.parametrize("data", [{"d": 5.0}, {"d": 5, "g": True}, {"d": 5, "points": 5}])
    def test_wrong_json_type_at_top_level(self, data):
        with pytest.raises(ParseError):
            parse_profile(json.dumps(data))

    def test_shared_labels_need_per_branch(self):
        data = {
            "d": 6,
            "g": 0,
            "points": [
                {"role": "cusp", "label": "p", "m": 2, "l": 3, "delta": 1},
                {"role": "cusp", "label": "p", "m": 2, "l": 3, "delta": 1},
            ],
        }
        with pytest.raises(CensusError):
            parse_profile(json.dumps(data))
        prof = parse_profile(json.dumps(dict(data, g=4)), per_branch=True)
        assert prof.g == 4
