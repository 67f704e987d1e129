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
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class Token:
    kind: str  # INT VAR OP LPAREN RPAREN COLON SLASH COMMA EOF
    text: str
    span: SourceSpan


def tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        # ASCII only: str.isdigit also takes "²", which int() rejects, and "٣",
        # which int() reads as 3
        if "0" <= ch <= "9":
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append(Token("INT", text[start:i], SourceSpan(start, i)))
        elif ch.isascii() and ch.isalpha():
            while i < n and text[i].isascii() and text[i].isalpha():
                i += 1
            tokens.append(Token("VAR", text[start:i], SourceSpan(start, i)))
        elif ch in "+-*^":
            i += 1
            tokens.append(Token("OP", ch, SourceSpan(start, i)))
        elif ch == "(":
            i += 1
            tokens.append(Token("LPAREN", ch, SourceSpan(start, i)))
        elif ch == ")":
            i += 1
            tokens.append(Token("RPAREN", ch, SourceSpan(start, i)))
        elif ch == ":":
            i += 1
            tokens.append(Token("COLON", ch, SourceSpan(start, i)))
        elif ch == "/":
            i += 1
            tokens.append(Token("SLASH", ch, SourceSpan(start, i)))
        elif ch == ",":
            i += 1
            tokens.append(Token("COMMA", ch, SourceSpan(start, i)))
        else:
            raise ParseError(f"unexpected character {ch!r}", SourceSpan(start, start + 1))
    tokens.append(Token("EOF", "", SourceSpan(n, n)))
    return tokens


@dataclass(frozen=True)
class ExprNode:
    """Expression tree node; ``kind`` is one of int, var, neg, add, sub, mul, pow."""

    kind: str
    value: "int | str | None"
    children: tuple
    span: SourceSpan


class _Parser:
    def __init__(self, text: str, alphabet):
        self.tokens = tokenize(text)
        self.pos = 0
        self.alphabet = alphabet

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"trailing input {tok.text!r}", tok.span)

    # expr := term (('+' | '-') term)*
    def expr(self) -> ExprNode:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance()
            rhs = self.term()
            kind = "add" if op.text == "+" else "sub"
            node = ExprNode(kind, None, (node, rhs), SourceSpan(node.span.begin, rhs.span.end))
        return node

    # term := unary ('*' unary)*
    def term(self) -> ExprNode:
        node = self.unary()
        while self.peek().kind == "OP" and self.peek().text == "*":
            self.advance()
            rhs = self.unary()
            node = ExprNode("mul", None, (node, rhs), SourceSpan(node.span.begin, rhs.span.end))
        return node

    # unary := '-' unary | power
    def unary(self) -> ExprNode:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            inner = self.unary()
            return ExprNode("neg", None, (inner,), SourceSpan(tok.span.begin, inner.span.end))
        return self.power()

    # power := atom ('^' INT)?
    def power(self) -> ExprNode:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind == "OP" and etok.text == "-":
                raise ParseError("negative exponent", etok.span)
            if etok.kind != "INT":
                raise ParseError("exponent must be an integer literal", etok.span)
            self.advance()
            node = ExprNode(
                "pow", int(etok.text), (node,), SourceSpan(node.span.begin, etok.span.end)
            )
        return node

    def atom(self) -> ExprNode:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return ExprNode("int", int(tok.text), (), tok.span)
        if tok.kind == "VAR":
            if tok.text not in self.alphabet:
                raise ParseError(
                    f"unknown variable {tok.text!r} (alphabet: {', '.join(self.alphabet)})",
                    tok.span,
                )
            self.advance()
            return ExprNode("var", tok.text, (), tok.span)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        raise ParseError(
            f"expected a term, found {tok.text or 'end of input'!r}", tok.span
        )

    # rational := '-'? INT ('/' INT)?
    def rational(self) -> Fraction:
        sign = 1
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            sign = -1
        num = self.expect("INT", "an integer")
        if self.peek().kind == "SLASH":
            self.advance()
            den = self.expect("INT", "a denominator")
            if int(den.text) == 0:
                raise ParseError("zero denominator", den.span)
            return Fraction(sign * int(num.text), int(den.text))
        return Fraction(sign * int(num.text))


def _eval_ast(node: ExprNode, variables) -> MPoly:
    if node.kind == "int":
        return MPoly.constant(variables, node.value)
    if node.kind == "var":
        return MPoly.variable(variables, node.value)
    if node.kind == "neg":
        return -_eval_ast(node.children[0], variables)
    if node.kind == "pow":
        return _eval_ast(node.children[0], variables) ** node.value
    lhs = _eval_ast(node.children[0], variables)
    rhs = _eval_ast(node.children[1], variables)
    if node.kind == "add":
        return lhs + rhs
    if node.kind == "sub":
        return lhs - rhs
    if node.kind == "mul":
        return lhs * rhs
    raise AssertionError(f"unhandled node kind {node.kind}")


def parse_poly(text: str, alphabet: str = "xyz") -> MPoly:
    """Parse and expand a polynomial expression over the given alphabet."""
    variables = ALPHABETS.get(alphabet)
    if variables is None:
        raise ParseError(f"unknown alphabet {alphabet!r}; use 'xyz' or 'st'")
    parser = _Parser(text, variables)
    node = parser.expr()
    parser.expect_eof()
    return _eval_ast(node, variables)


def parse_param(text: str) -> RationalParam:
    """Parse a parametrization triple "(e0 : e1 : e2)" of forms in (s, t)."""
    parser = _Parser(text, ST)
    parser.expect("LPAREN", "'('")
    parts = [parser.expr()]
    for _ in range(2):
        parser.expect("COLON", "':'")
        parts.append(parser.expr())
    parser.expect("RPAREN", "')'")
    parser.expect_eof()
    return RationalParam(*(_eval_ast(p, ST) for p in parts))


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
    while parser.peek().kind == "COMMA":
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
            or not all(isinstance(v, int) for v in item)
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
    if not isinstance(trunc, int) or trunc < 1:
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
