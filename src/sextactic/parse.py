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


# Every character some lexeme takes: blanks (\s matches exactly
# str.isspace), ASCII digits and letters, and the punctuation of the
# grammars.  str.isdigit also takes "²", which int() rejects, and "٣", which
# int() reads as 3.
_BAD_CHARACTER = re.compile(r"[^\s0-9A-Za-z+\-*^():/,]")
_BLANKS = re.compile(r"\s*")
# The token at a non-blank position: an integer literal, a name, or one
# punctuation character; empty at the end of the text.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z]+|.|", re.S)
# A maximal product of powers of integer literals and names, negated or not,
# with the blanks around it; _POWER finds its powers as (literal, name,
# exponent) strings.
_ATOM = r"(?:[0-9]+|[A-Za-z]+)"
_PRODUCT = re.compile(
    rf"\s*(-)?\s*{_ATOM}(?:\s*\^\s*[0-9]+)?(?:\s*\*\s*{_ATOM}(?:\s*\^\s*[0-9]+)?)*\s*"
)
_POWER = re.compile(r"(?:([0-9]+)|([A-Za-z]+))(?:\s*\^\s*([0-9]+))?")


def _over_limit_message(what: str = "integer literal") -> str:
    # int() refuses decimal strings longer than the interpreter's limit
    return f"{what} over the limit of {sys.get_int_max_str_digits()} digits"


def _power_over_limit(c: int, k: int) -> bool:
    """Whether c^k must have more decimal digits than int() and str() take:
    |c|^k >= 2^(k (b - 1)), b the bit length of c, and 2^(10 L / 3) > 10^L."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    return limit > 0 and 3 * k * (abs(c).bit_length() - 1) >= 10 * limit


class _Parser:
    """Recursive descent straight over the text; ``pos`` is always at a
    non-blank character or at the end.  A product of powers of integer
    literals and variables, negated or not, is one match of _PRODUCT, folded
    into one (exponents, coefficient) pair; only parentheses, unary minus and
    powers of sums build an ``MPoly`` before ``poly`` builds one from its
    dict of terms."""

    def __init__(self, text: str, variables):
        bad = _BAD_CHARACTER.search(text)
        if bad:  # before any grammar error, however early
            raise ParseError(f"unexpected character {bad.group()!r}", SourceSpan(*bad.span()))
        self.text = text
        self.pos = _BLANKS.match(text).end()
        self.variables = variables
        self.one = (0,) * len(variables)  # exponent vector of a constant
        self.index = {v: i for i, v in enumerate(variables)}

    def peek(self) -> str:
        """The next character, '' at the end."""
        return self.text[self.pos : self.pos + 1]

    def skip_to(self, pos: int):
        if self.text[pos : pos + 1].isspace():
            pos = _BLANKS.match(self.text, pos).end()
        self.pos = pos

    def advance(self):
        self.skip_to(self.pos + 1)

    def token(self):
        """(text, begin, end) of the next token; text is '' at the end."""
        m = _TOKEN.match(self.text, self.pos)
        return m.group(), m.start(), m.end()

    def found(self, message: str):
        tok, begin, end = self.token()
        return ParseError(f"{message}, found {tok or 'end of input'!r}", SourceSpan(begin, end))

    def expect(self, char: str, what: str):
        if self.peek() != char:
            raise self.found(f"expected {what}")
        self.advance()

    def expect_eof(self):
        if self.pos < len(self.text):
            tok, begin, end = self.token()
            raise ParseError(f"trailing input {tok!r}", SourceSpan(begin, end))

    def integer(self, what: str):
        """(value, begin, end) of the integer literal that comes next."""
        tok, begin, end = self.token()
        if not tok[:1].isdigit():
            raise self.found(f"expected {what}")
        self.skip_to(end)
        return _literal(tok, begin, end), begin, end

    def poly(self) -> MPoly:
        return MPoly._make(self.variables, self.expr())

    # expr := term (('+' | '-') term)*
    def expr(self) -> dict:
        """The expression's terms; a cancelled term stays with coefficient 0.
        A term that is one match of _PRODUCT is read here, any other by
        ``term``."""
        out, sign, text, pos = {}, 1, self.text, self.pos
        while True:
            m = _PRODUCT.match(text, pos)
            end = pos if m is None else m.end()
            if m is not None and text[end : end + 1] not in ("*", "^"):
                e, c, _ = self.product(pos, end)
                out[e] = out.get(e, 0) + (-sign * c if m.group(1) else sign * c)
                pos = end
            else:
                self.skip_to(pos)
                self.term(out, sign)
                pos = self.pos
            op = text[pos : pos + 1]
            if op not in ("+", "-"):
                self.pos = pos
                return out
            sign = 1 if op == "+" else -1
            pos += 1

    # term := factor ('*' factor)*
    def term(self, out: dict, sign: int):
        """Add sign times the term to out."""
        expo, coef, sums = self.one, sign, []
        while True:
            factor = self.factor()
            if type(factor) is tuple:
                e, c = factor
                expo = tuple(map(add, expo, e))
                coef *= c
            else:
                sums.append(factor)
            if self.peek() != "*":
                break
            self.advance()
        if not sums:
            out[expo] = out.get(expo, 0) + coef
            return
        prod = sums[0]
        for factor in sums[1:]:
            prod = prod * factor
        for e, c in prod.terms.items():
            e = tuple(map(add, e, expo))
            out[e] = out.get(e, 0) + coef * c

    # factor := '-'? product of powers | unary
    def factor(self):
        """An (exponents, coefficient) pair, or an MPoly of two or more terms."""
        m = _PRODUCT.match(self.text, self.pos)
        if m is None:
            return self.unary()
        e, c, k = self.product(self.pos, m.end())
        self.pos = m.end()
        if not k and self.peek() == "^":
            # _PRODUCT takes every exponent that is an integer literal
            self.advance()
            self.exponent()
        return e, -c if m.group(1) else c

    def product(self, begin: int, end: int):
        """(exponents, coefficient, last exponent text) of the product of
        powers in text[begin:end]."""
        exps, coef, k = list(self.one), 1, ""
        try:
            for num, name, k in _POWER.findall(self.text, begin, end):
                if num:
                    c = int(num)
                    if k:
                        if _power_over_limit(c, int(k)):
                            raise ValueError  # product_error raises it at its span
                        c **= int(k)
                    coef *= c
                else:
                    exps[self.index[name]] += int(k) if k else 1
        except (KeyError, ValueError):
            self.product_error(begin, end)
        return tuple(exps), coef, k

    def product_error(self, begin: int, end: int):
        """Raise the first error in the products of powers in
        text[begin:end], in reading order: each atom, then its exponent."""
        for m in _POWER.finditer(self.text, begin, end):
            num, name, k = m.groups()
            if name is not None and name not in self.index:
                raise ParseError(
                    f"unknown variable {name!r} (alphabet: {', '.join(self.variables)})",
                    SourceSpan(*m.span(2)),
                )
            c = None if num is None else _literal(num, *m.span(1))
            if k is not None:
                k = _literal(k, *m.span(3))
                if c is not None and _power_over_limit(c, k):
                    raise ParseError(_over_limit_message("integer power"), SourceSpan(*m.span(3)))
        raise AssertionError(f"no error in {self.text[begin:end]!r}")

    # unary := '-' factor | '(' expr ')' ('^' INT)?
    def unary(self):
        char = self.peek()
        if char == "-":
            self.advance()
            factor = self.factor()
            return (factor[0], -factor[1]) if type(factor) is tuple else -factor
        if char != "(":
            raise self.found("expected a term")
        self.advance()
        terms = {e: c for e, c in self.expr().items() if c}
        self.expect(")", "')'")
        if len(terms) > 1:
            base = MPoly._make(self.variables, terms)
        else:
            base = next(iter(terms.items()), (self.one, 0))
        if self.peek() != "^":
            return base
        self.advance()
        span = SourceSpan(*self.token()[1:])
        k = self.exponent()
        if type(base) is not tuple:
            return base**k
        e, c = base
        if _power_over_limit(c, k):
            raise ParseError(_over_limit_message("integer power"), span)
        return tuple(v * k for v in e), c**k

    def exponent(self) -> int:
        """The integer literal after a '^'."""
        tok, begin, end = self.token()
        if tok == "-":
            raise ParseError("negative exponent", SourceSpan(begin, end))
        if not tok[:1].isdigit():
            raise ParseError("exponent must be an integer literal", SourceSpan(begin, end))
        self.skip_to(end)
        return _literal(tok, begin, end)

    # rational := '-'? INT ('/' INT)?
    def rational(self) -> Fraction:
        sign = 1
        if self.peek() == "-":
            self.advance()
            sign = -1
        num = self.integer("an integer")[0]
        if self.peek() != "/":
            return Fraction(sign * num)
        self.advance()
        den, begin, end = self.integer("a denominator")
        if den == 0:
            raise ParseError("zero denominator", SourceSpan(begin, end))
        return Fraction(sign * num, den)


def _literal(digits: str, begin: int, end: int) -> int:
    """The value of an integer literal; an over-long one is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(_over_limit_message(), SourceSpan(begin, end)) from None


def parse_poly(text: str, alphabet: str = "xyz") -> MPoly:
    """Parse and expand a polynomial expression over the given alphabet."""
    variables = ALPHABETS.get(alphabet)
    if variables is None:
        raise ParseError(f"unknown alphabet {alphabet!r}; use 'xyz' or 'st'")
    parser = _Parser(text, variables)
    poly = parser.poly()
    parser.expect_eof()
    return poly


def parse_param(text: str) -> RationalParam:
    """Parse a parametrization triple "(e0 : e1 : e2)" of forms in (s, t)."""
    parser = _Parser(text, ST)
    parser.expect("(", "'('")
    forms = [parser.poly()]
    for _ in range(2):
        parser.expect(":", "':'")
        forms.append(parser.poly())
    parser.expect(")", "')'")
    parser.expect_eof()
    return RationalParam(*forms)


def _parse_ratio_tuple(parser: _Parser, n: int):
    parser.expect("(", "'('")
    vals = [parser.rational()]
    for _ in range(n - 1):
        parser.expect(":", "':'")
        vals.append(parser.rational())
    parser.expect(")", "')'")
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
    while parser.peek() == ",":
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
        # ``type(v) is int`` refuses JSON's true and false, loaded as bool
        if not (
            isinstance(item, list)
            and len(item) == 3
            and type(item[0]) is int
            and type(item[1]) is int
            and type(item[2]) is int
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
        coeffs[exp] = num // den if num % den == 0 else Fraction(num, den)
    return TruncSeries._make({e: c for e, c in coeffs.items() if c}, trunc)


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
