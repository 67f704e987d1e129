"""Parsers for the textual inputs: polynomial expressions, parametrization
triples, projective points, and the JSON branch / profile files.

The expression grammar is deliberately small: integer literals, the
variables of the active alphabet, ``+ - * ^``, and parentheses.  ``^`` binds
tighter than ``*``, which binds tighter than ``+``/``-``; exponents are
non-negative integer literals; multiplication is always explicit (``s^3*t^2``,
never ``s^3t^2``).  Every syntax error carries the byte span of the
offending token.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .branch import BranchParam
from .census import CurveProfile, PointRecord
from .poly import ST, XYZ, MPoly
from .rational import RationalParam
from .series import TruncSeries

ALPHABETS = {"xyz": XYZ, "st": ST}


@dataclass(frozen=True)
class SourceSpan:
    begin: int
    end: int

    def __str__(self):
        return f"[{self.begin}:{self.end}]"


class ParseError(ValueError):
    def __init__(self, message: str, span: "SourceSpan | None" = None):
        self.span = span
        super().__init__(message if span is None else f"{message} at {span}")


# Every punctuation character the grammars use, with its token kind.
_PUNCTUATION = {
    "+": "OP", "-": "OP", "*": "OP", "^": "OP",
    "(": "LPAREN", ")": "RPAREN", ":": "COLON", "/": "SLASH", ",": "COMMA",
}
# ASCII digits and letters only: str.isdigit also takes "²", which int()
# rejects, and "٣", which int() reads as 3.  \s matches exactly str.isspace.
_LEXEME = re.compile(r"(?P<SPACE>\s+)|(?P<INT>[0-9]+)|(?P<VAR>[A-Za-z]+)|.", re.S)


def tokenize(text: str):
    """(kind, text, begin, end) tuples, the last of kind EOF."""
    tokens = []
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup or _PUNCTUATION.get(m.group())
        if kind is None:
            raise ParseError(f"unexpected character {m.group()!r}", SourceSpan(*m.span()))
        if kind != "SPACE":
            tokens.append((kind, m.group(), *m.span()))
    tokens.append(("EOF", "", len(text), len(text)))
    return tokens


def _over_limit_message() -> str:
    # int() refuses decimal strings longer than the interpreter's limit
    return f"integer literal over the limit of {sys.get_int_max_str_digits()} digits"


def _int_literal(tok) -> int:
    """The value of an INT token; an over-long literal is a ParseError."""
    try:
        return int(tok[1])
    except ValueError:
        raise ParseError(_over_limit_message(), SourceSpan(*tok[2:])) from None


class _Parser:
    """Recursive descent over the token list; expressions come back as
    expanded ``MPoly`` values, with monomials built directly."""

    def __init__(self, text: str, variables):
        self.tokens = tokenize(text)
        self.pos = 0
        self.variables = variables
        self.one = (0,) * len(variables)  # exponent vector of a constant
        self.units = {v: tuple(int(v == w) for w in variables) for v in variables}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"expected {what}, found {tok[1] or 'end of input'!r}", SourceSpan(*tok[2:])
            )
        return self.advance()

    def expect_eof(self):
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"trailing input {tok[1]!r}", SourceSpan(*tok[2:]))

    def _monomial(self, poly: MPoly):
        """(exponents, coefficient) of a polynomial with at most one term."""
        return next(iter(poly.terms.items()), (self.one, 0))

    # expr := term (('+' | '-') term)*
    def expr(self) -> MPoly:
        out = dict(self.term().terms)
        while (op := self.peek()[1]) in ("+", "-"):
            self.advance()
            sign = 1 if op == "+" else -1
            for e, c in self.term().terms.items():
                out[e] = out.get(e, 0) + sign * c
        return MPoly._make(self.variables, out)

    # term := unary ('*' unary)*
    def term(self) -> MPoly:
        coef, expo, sums = 1, self.one, []
        while True:
            factor = self.unary()
            if len(factor.terms) > 1:
                sums.append(factor)
            else:
                e, c = self._monomial(factor)
                coef *= c
                expo = tuple(map(add, expo, e))
            if self.peek()[1] != "*":
                break
            self.advance()
        if not sums:
            return MPoly._make(self.variables, {expo: coef})
        prod = sums[0]
        for factor in sums[1:]:
            prod = prod * factor
        return MPoly._make(
            self.variables, {tuple(map(add, e, expo)): coef * c for e, c in prod.terms.items()}
        )

    # unary := '-' unary | power
    def unary(self) -> MPoly:
        if self.peek()[1] == "-":
            self.advance()
            return -self.unary()
        return self.power()

    # power := atom ('^' INT)?
    def power(self) -> MPoly:
        base = self.atom()
        if self.peek()[1] != "^":
            return base
        self.advance()
        kind, text, begin, end = self.peek()
        if text == "-":
            raise ParseError("negative exponent", SourceSpan(begin, end))
        if kind != "INT":
            raise ParseError("exponent must be an integer literal", SourceSpan(begin, end))
        k = _int_literal(self.advance())
        if len(base.terms) > 1:
            return base**k
        e, c = self._monomial(base)
        return MPoly._make(self.variables, {tuple(v * k for v in e): c**k})

    def atom(self) -> MPoly:
        kind, text, begin, end = self.peek()
        if kind == "INT":
            return MPoly._make(self.variables, {self.one: _int_literal(self.advance())})
        if kind == "VAR":
            if text not in self.units:
                raise ParseError(
                    f"unknown variable {text!r} (alphabet: {', '.join(self.variables)})",
                    SourceSpan(begin, end),
                )
            self.advance()
            return MPoly._make(self.variables, {self.units[text]: 1})
        if kind == "LPAREN":
            self.advance()
            inner = self.expr()
            self.expect("RPAREN", "')'")
            return inner
        raise ParseError(
            f"expected a term, found {text or 'end of input'!r}", SourceSpan(begin, end)
        )

    # rational := '-'? INT ('/' INT)?
    def rational(self) -> Fraction:
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        num = _int_literal(self.expect("INT", "an integer"))
        if self.peek()[0] != "SLASH":
            return Fraction(sign * num)
        self.advance()
        tok = self.expect("INT", "a denominator")
        den = _int_literal(tok)
        if den == 0:
            raise ParseError("zero denominator", SourceSpan(*tok[2:]))
        return Fraction(sign * num, den)


def parse_poly(text: str, alphabet: str = "xyz") -> MPoly:
    """Parse and expand a polynomial expression over the given alphabet."""
    variables = ALPHABETS.get(alphabet)
    if variables is None:
        raise ParseError(f"unknown alphabet {alphabet!r}; use 'xyz' or 'st'")
    parser = _Parser(text, variables)
    poly = parser.expr()
    parser.expect_eof()
    return poly


def parse_param(text: str) -> RationalParam:
    """Parse a parametrization triple "(e0 : e1 : e2)" of forms in (s, t)."""
    parser = _Parser(text, ST)
    parser.expect("LPAREN", "'('")
    forms = [parser.expr()]
    for _ in range(2):
        parser.expect("COLON", "':'")
        forms.append(parser.expr())
    parser.expect("RPAREN", "')'")
    parser.expect_eof()
    return RationalParam(*forms)


def _parse_ratio_tuple(parser: _Parser, n: int):
    parser.expect("LPAREN", "'('")
    vals = [parser.rational()]
    for _ in range(n - 1):
        parser.expect("COLON", "':'")
        vals.append(parser.rational())
    parser.expect("RPAREN", "')'")
    if not any(vals):
        raise ParseError("projective coordinates cannot all be zero")
    return tuple(vals)


def parse_point(text: str):
    """Parse a projective point "(a : b : c)" with rational entries."""
    parser = _Parser(text, XYZ)
    point = _parse_ratio_tuple(parser, 3)
    parser.expect_eof()
    return point


def parse_parameter(text: str):
    """Parse a parameter value "(s0 : t0)" with rational entries."""
    parser = _Parser(text, ST)
    pair = _parse_ratio_tuple(parser, 2)
    parser.expect_eof()
    return pair


def parse_parameter_list(text: str):
    """Parse a comma-separated list of parameter values."""
    parser = _Parser(text, ST)
    pairs = [_parse_ratio_tuple(parser, 2)]
    while parser.peek()[0] == "COMMA":
        parser.advance()
        pairs.append(_parse_ratio_tuple(parser, 2))
    parser.expect_eof()
    return pairs


# -- structured files ---------------------------------------------------------


def _load_json(text: str, what: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed {what} file: {e.msg}", SourceSpan(e.pos, e.pos + 1)) from None
    except ValueError:
        # the one other ValueError json.loads raises comes from int()
        raise ParseError(f"malformed {what} file: {_over_limit_message()}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{what} file must contain a JSON object")
    return data


def _series_from_entries(entries, trunc: int, key: str) -> TruncSeries:
    if not isinstance(entries, list):
        raise ParseError(f"coordinate {key!r} must be a list of [num, den, exp] triples")
    coeffs = {}
    for item in entries:
        if (
            not isinstance(item, list)
            or len(item) != 3
            or not all(map(_is_int, item))
        ):
            raise ParseError(f"bad entry {item!r} in coordinate {key!r}")
        num, den, exp = item
        if den <= 0:
            raise ParseError(f"denominator must be positive in {item!r} ({key!r})")
        if exp < 0:
            raise ParseError(f"negative exponent in {item!r} ({key!r})")
        if exp >= trunc:
            raise ParseError(
                f"exponent {exp} in coordinate {key!r} is not below the "
                f"truncation {trunc}"
            )
        if exp in coeffs:
            raise ParseError(f"duplicate exponent {exp} in coordinate {key!r}")
        coeffs[exp] = Fraction(num, den)
    return TruncSeries(coeffs, trunc)


def parse_branch(text: str) -> BranchParam:
    """Parse a branch file: keys truncation, x, y, z."""
    data = _load_json(text, "branch")
    extra = set(data) - {"truncation", "x", "y", "z"}
    if extra:
        raise ParseError(f"unknown branch file keys {sorted(extra)}")
    trunc = data.get("truncation")
    if not _is_int(trunc) or trunc < 1:
        raise ParseError(f"'truncation' must be a positive integer, got {trunc!r}")
    coords = []
    for key in ("x", "y", "z"):
        if key not in data:
            raise ParseError(f"missing coordinate {key!r}")
        coords.append(_series_from_entries(data[key], trunc, key))
    return BranchParam(*coords)


_ROLE_MAP = {
    "cusp": "cusp",
    "inflection": "inflection",
    "smooth_sextactic_candidate": "smooth",
    "smooth": "smooth",
}


def _is_int(value) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def parse_profile(text: str, per_branch: bool = False) -> CurveProfile:
    """Parse a profile file: keys d, optional g, points."""
    data = _load_json(text, "profile")
    extra = set(data) - {"d", "g", "points"}
    if extra:
        raise ParseError(f"unknown profile file keys {sorted(extra)}")
    if "d" not in data:
        raise ParseError("profile is missing the degree key 'd'")
    d = data["d"]
    g = data.get("g")
    for key in ("d", "g"):
        if data.get(key) is not None and not _is_int(data[key]):
            raise ParseError(f"{key!r} must be an integer, got {data[key]!r}")
    points = data.get("points", [])
    if not isinstance(points, list):
        raise ParseError(f"'points' must be a list, got {points!r}")
    records = []
    for i, raw in enumerate(points):
        if not isinstance(raw, dict):
            raise ParseError(f"point #{i} must be an object, got {raw!r}")
        extra = set(raw) - {"role", "m", "l", "c", "multiplicity_sequence", "delta", "label"}
        if extra:
            raise ParseError(f"point #{i} has unknown keys {sorted(extra)}")
        for key in ("m", "l", "c", "delta"):
            if raw.get(key) is not None and not _is_int(raw[key]):
                raise ParseError(f"point #{i}: {key!r} must be an integer, got {raw[key]!r}")
        ms = raw.get("multiplicity_sequence")
        if ms is not None and not (isinstance(ms, list) and all(map(_is_int, ms))):
            raise ParseError(
                f"point #{i}: 'multiplicity_sequence' must be a list of integers, got {ms!r}"
            )
        if raw.get("label") is not None and not isinstance(raw["label"], str):
            raise ParseError(f"point #{i}: 'label' must be a string, got {raw['label']!r}")
        role = raw.get("role")
        role = _ROLE_MAP.get(role) if isinstance(role, str) else None
        if role is None:
            raise ParseError(
                f"point #{i}: unknown role {raw.get('role')!r}; expected "
                "cusp, inflection, or smooth_sextactic_candidate"
            )
        records.append(
            PointRecord(
                role,
                raw.get("m", 1),
                raw.get("l"),
                c=raw.get("c"),
                ms=tuple(ms) if ms is not None else None,
                delta=raw.get("delta"),
                label=raw.get("label"),
            )
        )
    return CurveProfile.build(d, records, g=g, per_branch=per_branch)
