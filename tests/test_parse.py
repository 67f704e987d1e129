"""Expression grammar, tuple parsers, and the structured file readers."""

import functools
import json
import random
import re
import sys
import time

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poly_reference import (
    parse_param_reference,
    parse_parameter_list_reference,
    parse_parameter_reference,
    parse_point_reference,
    parse_poly_reference,
)
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


# Generated expressions carry their precedence level: 0 sum, 1 product,
# 2 unary minus, 3 power, 4 atom.  An operand below the level its position
# needs is put in parentheses, so the text and the sympy tree agree.
def _operand(node, level):
    text, expr, own = node
    return (text if own >= level else f"({text})"), expr


def _binary(args):
    lhs, op, rhs = args
    if op == "*":
        (a, ea), (b, eb) = _operand(lhs, 1), _operand(rhs, 2)
        return f"{a}*{b}", ea * eb, 1
    (a, ea), (b, eb) = _operand(lhs, 0), _operand(rhs, 1)
    return f"{a} {op} {b}", (ea + eb if op == "+" else ea - eb), 0


def _negate(node):
    a, ea = _operand(node, 2)
    return f"-{a}", -ea, 2


def _power(args):
    node, k = args
    a, ea = _operand(node, 4)
    return f"{a}^{k}", ea**k, 3


_LEAVES = st.one_of(
    st.integers(0, 12).map(lambda n: (str(n), sympy.Integer(n), 4)),
    st.sampled_from("xyz").map(lambda v: (v, sympy.Symbol(v), 4)),
)


def _expressions(depth):
    """Sums of products of factors; a factor is a leaf, or while depth lasts
    a nested expression, possibly raised to a power, negated or wrapped in
    redundant parentheses."""
    atom = _LEAVES if depth == 0 else st.one_of(_LEAVES, _expressions(depth - 1))
    factor = st.one_of(
        atom,
        st.tuples(atom, st.integers(0, 3)).map(_power),
        atom.map(_negate),
        atom.map(lambda n: (f"({n[0]})", n[1], 4)),
    )
    term = st.lists(factor, min_size=1, max_size=3).map(
        lambda fs: functools.reduce(lambda a, b: _binary((a, "*", b)), fs)
    )
    rest = st.lists(st.tuples(st.sampled_from("+-"), term), max_size=3)
    return st.tuples(term, rest).map(
        lambda tr: functools.reduce(lambda a, ot: _binary((a, *ot)), tr[1], tr[0])
    )


EXPRESSIONS = _expressions(2)


class TestAgainstSympy:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(EXPRESSIONS)
    def test_parse_poly_expands_like_sympy(self, node):
        text, expr, _ = node
        oracle = sympy.Poly(sympy.expand(expr), *sympy.symbols("x y z")).as_dict()
        assert parse_poly(text).terms == {e: int(c) for e, c in oracle.items()}, text


_TOKEN_TEXT = re.compile(r"[0-9]+|[A-Za-z]+|\S")
_BLANKS = st.sampled_from(["", "", "", " ", "  ", "\t", "\n "])
_LONG_EXPONENT = re.compile(r"\^\s*[0-9]{2}")


@st.composite
def _variants(draw, texts, inserts):
    """A text of ``texts`` with random blanks between its tokens; three in
    five are then edited by inserting, deleting or replacing one character.
    Exponents stay below 10, so that no power runs long."""
    tokens = _TOKEN_TEXT.findall(draw(texts))
    blanks = draw(st.lists(_BLANKS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = "".join(b + t for b, t in zip(blanks, tokens + [""]))
    edit = draw(st.sampled_from([None, None, "insert", "delete", "replace"]))
    if edit is not None:
        i = draw(st.integers(0, len(text)))
        char = "" if edit == "delete" else draw(st.sampled_from(inserts))
        text = text[:i] + char + text[i + (edit != "insert") :]
    assume(not _LONG_EXPONENT.search(text))
    return text


def _outcome(parse, *args):
    """The parsed value, or the error's type, message and span."""
    try:
        value = parse(*args)
    except Exception as e:
        span = getattr(e, "span", None)
        return type(e).__name__, str(e), span and (span.begin, span.end)
    return value.phi if hasattr(value, "phi") else value


_EXPRESSION_TEXTS = _expressions(1).map(lambda node: node[0])
_ST_TEXTS = _EXPRESSION_TEXTS.map(lambda t: t.translate(str.maketrans("xyz", "sts")))
_FORM_TEXTS = st.integers(0, 5).flatmap(
    lambda d: st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1).map(
        lambda cs: str(MPoly(ST, {(i, d - i): c for i, c in enumerate(cs)}))
    )
)
_PARAM_TEXTS = st.lists(st.one_of(_FORM_TEXTS, _ST_TEXTS), min_size=3, max_size=3).map(
    lambda forms: "(" + " : ".join(forms) + ")"
)
_RATIONAL_TEXTS = st.tuples(
    st.sampled_from(["", "-"]), st.integers(0, 99).map(str), st.sampled_from(["", "/0", "/1", "/3", "/12"])
).map("".join)


def _ratio_texts(n):
    return st.lists(_RATIONAL_TEXTS, min_size=n, max_size=n).map(lambda v: f"({':'.join(v)})")


class TestAgainstTokenParser:
    """The one-pass parser against the token-list parser it replaced
    (``poly_reference.TokenParser``): equal values for well-formed texts,
    and an equal error type, message and span for malformed ones."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_variants(_EXPRESSION_TEXTS, list("+-*^() xyzstw$²:/,")), st.sampled_from(["xyz", "st"]))
    def test_parse_poly(self, text, alphabet):
        if alphabet == "st":
            text = text.translate(str.maketrans("xyz", "sts"))
        want = _outcome(parse_poly_reference, text, alphabet)
        assert _outcome(parse_poly, text, alphabet) == want, text

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_variants(_PARAM_TEXTS, list("+-*^(): stx,")))
    def test_parse_param(self, text):
        assert _outcome(parse_param, text) == _outcome(parse_param_reference, text), text

    @pytest.mark.parametrize(
        "parse, reference, texts",
        [
            (parse_point, parse_point_reference, _ratio_texts(3)),
            (parse_parameter, parse_parameter_reference, _ratio_texts(2)),
            (
                parse_parameter_list,
                parse_parameter_list_reference,
                st.lists(_ratio_texts(2), min_size=1, max_size=4).map(",".join),
            ),
        ],
        ids=["point", "parameter", "parameter_list"],
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_tuple_parsers(self, parse, reference, texts, data):
        text = data.draw(_variants(texts, list("-/:(),0 7x$")))
        assert _outcome(parse, text) == _outcome(reference, text), text


def _branch(**fields):
    data = {"truncation": 11, "x": [[1, 1, 3]], "y": [[1, 1, 5]], "z": [[1, 1, 0]]}
    data.update(fields)
    return json.dumps({k: v for k, v in data.items() if v is not None})


def _profile(**fields):
    point = dict({"role": "cusp", "m": 2, "l": 4, "c": 5, "delta": 1}, **fields)
    return json.dumps({"d": 5, "points": [point]})


# (parser, text, message, span) for every place parse.py raises ParseError
ERROR_TABLE = [
    (parse_poly, "x + $", "unexpected character '$' at [4:5]", (4, 5)),
    (parse_poly, "x^²*y + z^3", "unexpected character '²' at [2:3]", (2, 3)),
    # the whole text is scanned before it is parsed, so a bad character
    # wins over an earlier grammar error
    (parse_poly, "w + $", "unexpected character '$' at [4:5]", (4, 5)),
    (parse_poly, "(x+y", "expected ')', found 'end of input' at [4:4]", (4, 4)),
    (parse_poly, "x^4 - w", "unknown variable 'w' (alphabet: x, y, z) at [6:7]", (6, 7)),
    (parse_poly, "x + w + y^-1", "unknown variable 'w' (alphabet: x, y, z) at [4:5]", (4, 5)),
    (parse_poly, "x^-2", "negative exponent at [2:3]", (2, 3)),
    (parse_poly, "x^y", "exponent must be an integer literal at [2:3]", (2, 3)),
    (parse_poly, "3 +", "expected a term, found 'end of input' at [3:3]", (3, 3)),
    (parse_poly, "", "expected a term, found 'end of input' at [0:0]", (0, 0)),
    (parse_poly, "x**2", "expected a term, found '*' at [2:3]", (2, 3)),
    (parse_poly, "x y", "trailing input 'y' at [2:3]", (2, 3)),
    (parse_poly, "2^2^2", "trailing input '^' at [3:4]", (3, 4)),
    (parse_poly, "+x", "expected a term, found '+' at [0:1]", (0, 1)),
    (parse_poly, "2x", "trailing input 'x' at [1:2]", (1, 2)),
    (parse_poly, "x*", "expected a term, found 'end of input' at [2:2]", (2, 2)),
    # 3^100000000 would have about 4.8e7 digits; it is refused unexpanded
    (
        parse_poly, "3^100000000*x",
        f"integer power over the limit of {sys.get_int_max_str_digits()} digits at [2:11]",
        (2, 11),
    ),
    (lambda t: parse_poly(t, "uvw"), "x", "unknown alphabet 'uvw'; use 'xyz' or 'st'", None),
    (parse_param, "s^3 : t^3 : s*t^2)", "expected '(', found 's' at [0:1]", (0, 1)),
    (parse_param, "(s^3 , t^3 : s*t^2)", "expected ':', found ',' at [5:6]", (5, 6)),
    (parse_param, "(s^3 : t^3 : s*t^2", "expected ')', found 'end of input' at [18:18]", (18, 18)),
    (parse_param, "(s : t : x)", "unknown variable 'x' (alphabet: s, t) at [9:10]", (9, 10)),
    (parse_param, "(s : t : t) s", "trailing input 's' at [12:13]", (12, 13)),
    (parse_point, "(1/0 : 1 : 1)", "zero denominator at [3:4]", (3, 4)),
    (parse_point, "(0:0:0)", "projective coordinates cannot all be zero", None),
    (parse_point, "(a : 1 : 1)", "expected an integer, found 'a' at [1:2]", (1, 2)),
    (parse_point, "(1/ : 1 : 1)", "expected a denominator, found ':' at [4:5]", (4, 5)),
    (parse_parameter, "(1:0) x", "trailing input 'x' at [6:7]", (6, 7)),
    (
        parse_parameter_list, "(1:0),(1:",
        "expected an integer, found 'end of input' at [9:9]", (9, 9),
    ),
    (
        parse_branch, "{not json",
        "malformed branch file: Expecting property name enclosed in double quotes at [1:2]",
        (1, 2),
    ),
    (parse_branch, "[1]", "branch file must contain a JSON object", None),
    (parse_branch, _branch(w=1), "unknown branch file keys ['w']", None),
    (
        parse_branch, _branch(truncation=0),
        "'truncation' must be a positive integer, got 0", None,
    ),
    (parse_branch, _branch(y=None), "missing coordinate 'y'", None),
    (
        parse_branch, _branch(x=5),
        "coordinate 'x' must be a list of [num, den, exp] triples", None,
    ),
    (parse_branch, _branch(x=[[1, 1]]), "bad entry [1, 1] in coordinate 'x'", None),
    (
        parse_branch, _branch(x=[[1, 0, 1]]),
        "denominator must be positive in [1, 0, 1] ('x')", None,
    ),
    (parse_branch, _branch(x=[[1, 1, -1]]), "negative exponent in [1, 1, -1] ('x')", None),
    (
        parse_branch, _branch(x=[[1, 1, 11]]),
        "exponent 11 in coordinate 'x' is not below the truncation 11", None,
    ),
    (
        parse_branch, _branch(x=[[1, 1, 3], [2, 1, 3]]),
        "duplicate exponent 3 in coordinate 'x'", None,
    ),
    # JSON true/false load as bool, a subclass of int, and are no integers here
    (
        parse_branch, _branch(truncation=True),
        "'truncation' must be a positive integer, got True", None,
    ),
    (parse_branch, _branch(x=[[True, 1, 2]]), "bad entry [True, 1, 2] in coordinate 'x'", None),
    (parse_branch, _branch(y=[[1, True, 5]]), "bad entry [1, True, 5] in coordinate 'y'", None),
    (parse_branch, _branch(z=[[1, 1, False]]), "bad entry [1, 1, False] in coordinate 'z'", None),
    (parse_branch, _branch(x=[[True, 1, 0]]), "bad entry [True, 1, 0] in coordinate 'x'", None),
    (parse_branch, _branch(y=[[1.5, 1, 5]]), "bad entry [1.5, 1, 5] in coordinate 'y'", None),
    (parse_profile, "[]", "profile file must contain a JSON object", None),
    (parse_profile, '{"d": 5, "q": 1}', "unknown profile file keys ['q']", None),
    (parse_profile, '{"points": []}', "profile is missing the degree key 'd'", None),
    (parse_profile, '{"d": 5.0}', "'d' must be an integer, got 5.0", None),
    (parse_profile, '{"d": 5, "points": 5}', "'points' must be a list, got 5", None),
    (parse_profile, '{"d": 5, "points": [3]}', "point #0 must be an object, got 3", None),
    (parse_profile, _profile(zz=1), "point #0 has unknown keys ['zz']", None),
    (parse_profile, _profile(m=True), "point #0: 'm' must be an integer, got True", None),
    (
        parse_profile, _profile(multiplicity_sequence=2),
        "point #0: 'multiplicity_sequence' must be a list of integers, got 2", None,
    ),
    (parse_profile, _profile(label=["a"]), "point #0: 'label' must be a string, got ['a']", None),
    (
        parse_profile, _profile(role="node"),
        "point #0: unknown role 'node'; expected cusp, inflection, or "
        "smooth_sextactic_candidate",
        None,
    ),
]


@pytest.mark.parametrize("parser,text,message,span", ERROR_TABLE)
def test_error_message_and_span(parser, text, message, span):
    with pytest.raises(ParseError) as info:
        parser(text)
    assert str(info.value) == message
    got = info.value.span
    assert (got if got is None else (got.begin, got.end)) == span


LONG = "1" * 5000  # over the interpreter's limit for int() of a decimal string
OVER_LIMIT = f"integer literal over the limit of {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize(
    "parser,text,span",
    [
        (parse_poly, f"{LONG}*x^3", (0, 5000)),
        (parse_poly, f"x^{LONG}", (2, 5002)),
        (parse_param, f"(s : {LONG}*t : t)", (5, 5005)),
        (parse_point, f"({LONG} : 1 : 1)", (1, 5001)),
        (parse_point, f"(1/{LONG} : 1 : 1)", (3, 5003)),
        (parse_branch, _branch(x="@").replace('"@"', f"[[{LONG}, 1, 3]]"), None),
        (parse_profile, _profile(delta="@").replace('"@"', LONG), None),
    ],
    ids=["coefficient", "exponent", "param", "numerator", "denominator", "branch", "profile"],
)
def test_over_long_integer_literal(parser, text, span):
    with pytest.raises(ParseError) as info:
        parser(text)
    if span is None:
        assert str(info.value).endswith(f"file: {OVER_LIMIT}")
        assert info.value.span is None
    else:
        assert str(info.value) == f"{OVER_LIMIT} at [{span[0]}:{span[1]}]"
        assert (info.value.span.begin, info.value.span.end) == span


class TestLiteralPowerBound:
    """A power of an integer literal whose value must pass the digit limit is
    refused at its exponent before it is computed."""

    @pytest.mark.parametrize(
        "text, span",
        [
            ("3^100000000*x", (2, 11)),
            ("x*-7 ^ 99999999 + y", (7, 15)),
            ("(x + y)*12^50000000", (11, 19)),
            ("x^2 - 2^1000000000000*z", (8, 21)),
            ("3^100000000*w", (2, 11)),
        ],
    )
    def test_refused_unexpanded(self, text, span):
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert time.perf_counter() - start < 0.5
        limit = sys.get_int_max_str_digits()
        assert str(info.value) == f"integer power over the limit of {limit} digits at [{span[0]}:{span[1]}]"
        assert (info.value.span.begin, info.value.span.end) == span

    def test_errors_keep_reading_order(self):
        with pytest.raises(ParseError, match="unknown variable 'w'"):
            parse_poly("w*3^100000000")

    @pytest.mark.parametrize("c", [2, 3, 10, 99, 2**64 + 1])
    def test_bound_trips_only_on_powers_over_the_limit(self, c):
        # the least k refused: 3 k (b - 1) >= 10 L, b the bit length of c
        limit = sys.get_int_max_str_digits()
        k = -(-10 * limit // (3 * (c.bit_length() - 1)))
        assert c**k >= 10**limit  # more than limit digits
        assert parse_poly(f"{c}^{k - 1}*x").terms == {(1, 0, 0): c ** (k - 1)}
        with pytest.raises(ParseError, match="integer power over the limit"):
            parse_poly(f"{c}^{k}*x")

    def test_units_and_zero_have_no_bound(self):
        assert parse_poly("1^99999999999*x - 0^99999999999 + -1^99999999999") == X - 1

    @pytest.mark.parametrize(
        "text, span",
        [("(3)^20000*x^3 + y^3 + z^3", (4, 9)), ("(-3*x)^20000 + y^3", (7, 12))],
    )
    def test_parenthesized_one_term_power_is_refused(self, text, span):
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert time.perf_counter() - start < 0.5
        limit = sys.get_int_max_str_digits()
        assert str(info.value) == f"integer power over the limit of {limit} digits at [{span[0]}:{span[1]}]"

    def test_parenthesized_base_takes_the_literal_bound(self):
        # the coefficient of a parenthesized one-term base is bounded like a
        # literal: 10^1500 cubed has 4501 digits, 10^1400 cubed 4201
        with pytest.raises(ParseError, match="integer power over the limit") as info:
            parse_poly(f"({10**1500}*x)^3")
        assert (info.value.span.begin, info.value.span.end) == (1506, 1507)
        assert parse_poly(f"({10**1400}*x)^3").terms == {(3, 0, 0): 10**4200}


class TestMonomialsBuiltInPlace:
    @pytest.fixture
    def no_products(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("MPoly product or power while parsing")

        for name in ("__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(MPoly, name, refuse)

    @pytest.mark.parametrize(
        "text, terms",
        [
            ("3*x^2*y - y^3*z", {(2, 1, 0): 3, (0, 3, 1): -1}),
            ("2*(3*x)^2*-y^0", {(2, 0, 0): -18}),
            ("(x*y)^3 + 0*z^5 - x^3*y^3", {}),
            ("0^0 + x^0", {(0, 0, 0): 2}),
        ],
    )
    def test_monomial_text_needs_no_products(self, no_products, text, terms):
        assert parse_poly(text).terms == terms

    def test_guard_catches_a_product_of_sums(self, no_products):
        with pytest.raises(AssertionError, match="while parsing"):
            parse_poly("(x + y)*(x - y)")


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

    @staticmethod
    def _error(changes):
        """The ParseError text for BRANCH_OK with the changes; a value of
        ``...`` drops the key."""
        data = {k: v for k, v in {**BRANCH_OK, **changes}.items() if v is not ...}
        with pytest.raises(ParseError) as e:
            parse_branch(json.dumps(data))
        return str(e.value)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"x": {"3": [1, 1]}}, "coordinate 'x' must be a list of [num, den, exp] triples"),
            ({"z": "1"}, "coordinate 'z' must be a list of [num, den, exp] triples"),
            ({"y": [5]}, "bad entry 5 in coordinate 'y'"),
            ({"y": [[True, 1, 5]]}, "bad entry [True, 1, 5] in coordinate 'y'"),
            ({"y": [[1, 1, False]]}, "bad entry [1, 1, False] in coordinate 'y'"),
            ({"y": [[1, 1.0, 5]]}, "bad entry [1, 1.0, 5] in coordinate 'y'"),
            ({"y": [[1, 1]]}, "bad entry [1, 1] in coordinate 'y'"),
            ({"y": [[1, 1, 5, 0]]}, "bad entry [1, 1, 5, 0] in coordinate 'y'"),
            ({"x": [[1, 0, 3]]}, "denominator must be positive in [1, 0, 3] ('x')"),
            ({"x": [[1, -2, 3]]}, "denominator must be positive in [1, -2, 3] ('x')"),
            ({"x": [[1, 1, -1]]}, "negative exponent in [1, 1, -1] ('x')"),
            ({"x": [[1, 1, 11]]}, "exponent 11 in coordinate 'x' is not below the truncation 11"),
            ({"x": [[1, 1, 3], [0, 1, 3]]}, "duplicate exponent 3 in coordinate 'x'"),
            ({"y": ...}, "missing coordinate 'y'"),
            ({"w": []}, "unknown branch file keys ['w']"),
            ({"truncation": 0}, "'truncation' must be a positive integer, got 0"),
            ({"truncation": True}, "'truncation' must be a positive integer, got True"),
            ({"truncation": 11.0}, "'truncation' must be a positive integer, got 11.0"),
            ({"truncation": ...}, "'truncation' must be a positive integer, got None"),
        ],
    )
    def test_error_text(self, changes, message):
        assert self._error(changes) == message

    @pytest.mark.parametrize(
        "changes, message",
        [
            # a later entry's error, and a later coordinate's, come second
            ({"x": [[1, 1, 3], [1, 0, 4]], "y": [[1, 1, 11]]}, "denominator must be positive in [1, 0, 4] ('x')"),
            ({"x": [[1, 1, 12], [1, 0, 4]]}, "exponent 12 in coordinate 'x' is not below the truncation 11"),
            ({"x": [[1, 1, 3], [1, 1, 3], [True, 1, 4]]}, "duplicate exponent 3 in coordinate 'x'"),
            ({"y": [[2, 1, 5], [1, 1, 5]], "z": [[1, 0, 0]]}, "duplicate exponent 5 in coordinate 'y'"),
            # inside an entry: the shape, the denominator, then the exponent
            ({"x": [[1, 0, -1]]}, "denominator must be positive in [1, 0, -1] ('x')"),
            ({"x": [[1, 1, -1, 0]]}, "bad entry [1, 1, -1, 0] in coordinate 'x'"),
            # the file's keys and its truncation before any coordinate
            ({"truncation": 0, "w": 1}, "unknown branch file keys ['w']"),
            ({"truncation": 0, "y": ...}, "'truncation' must be a positive integer, got 0"),
            ({"x": "no", "y": ...}, "coordinate 'x' must be a list of [num, den, exp] triples"),
            ({"y": ..., "z": [[1, 0, 0]]}, "missing coordinate 'y'"),
        ],
    )
    def test_first_error_in_reading_order(self, changes, message):
        assert self._error(changes) == message

    def test_zero_numerators_make_no_unit(self):
        data = dict(BRANCH_OK, z=[[0, 1, 0], [0, 7, 2]])
        with pytest.raises(NonPrimitiveBranch) as e:
            parse_branch(json.dumps(data))
        assert str(e.value) == "no coordinate is a unit: the branch is not primitive at t=0"


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
