"""Textbook routines the tests use as independent references.

The library takes every determinant by Laplace expansion and never
multiplies two polynomial matrices; the matrix routines here take the other
road, so a cross-check against them does not share the code it checks.  The
library keeps a symmetric 3x3 matrix as the 6-vector of its entries in
``CONIC_BASIS`` order; ``sym3`` spreads one back into a full matrix.

The library computes the Hessian chain of a dense curve on dense
``TernaryForm``s; the ``*_reference`` functions compute the same formulas
on sparse ``MPoly`` forms, with rational coefficients and no scaling.

The library reads polynomial text in one pass, a product of powers of
literals and variables at a time; ``TokenParser`` is the token-list
recursive descent it replaced, which builds an ``MPoly`` for every atom.
The ``parse_*_reference`` functions run it.

The library reduces a branch's conic pullbacks to distinct valuations by
fraction-free elimination on integer series; ``reduce_to_distinct_reference``
is the exact rational elimination on ``TruncSeries`` it replaced, and the
``*_reference`` ladder and line orders run it.
"""

import re
import sys
from fractions import Fraction
from operator import add
from typing import NamedTuple

from sextactic.branch import NonPrimitiveBranch, TruncationInsufficient, ValuationLadder
from sextactic.differential import (
    VARIANTS,
    CovariantSet,
    DegreeTooSmall,
    DifferentialError,
    HessianVanishes,
)
from sextactic.parse import ALPHABETS, ParseError, SourceSpan
from sextactic.poly import (
    CONIC_BASIS,
    ST,
    XYZ,
    MPoly,
    NonSquareMatrix,
    PolyError,
    PolyMatrix,
    exact_div,
    veronese,
)
from sextactic.rational import RationalParam


def sym3(six) -> PolyMatrix:
    """The symmetric matrix whose (i, j) entry is the entry of ``six`` on the
    conic monomial x_i * x_j."""
    index = {expo: k for k, expo in enumerate(CONIC_BASIS)}
    return PolyMatrix(
        [
            [six[index[tuple((i == k) + (j == k) for k in range(3))]] for j in range(3)]
            for i in range(3)
        ]
    )


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The matrix product a * b."""
    if a.cols != b.rows:
        raise PolyError("dimension mismatch in matrix product")
    zero = MPoly.zero(a.variables)
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return PolyMatrix(out)


def det_bareiss(m: PolyMatrix) -> MPoly:
    """Determinant by fraction-free Gaussian elimination (Bareiss 1968);
    every interior division is exact."""
    if m.rows != m.cols:
        raise NonSquareMatrix(f"{m.rows}x{m.cols} matrix")
    n = m.rows
    a = [row[:] for row in m.entries]
    zero = MPoly.zero(m.variables)
    sign = 1
    prev = None
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = exact_div(num, prev) if prev is not None else num
            a[i][k] = zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign > 0 else -d


class ReferenceBundle(NamedTuple):
    """The fields of ``HessianBundle``, in the order ``bundle_fields`` reads
    them."""

    F: MPoly
    d: int
    H: MPoly
    hess_f: tuple
    hess_h: tuple
    adj_f: tuple
    grad_f: tuple
    grad_h: tuple


def bundle_fields(bundle) -> ReferenceBundle:
    """A ``HessianBundle``'s fields, each read as the library converts it."""
    return ReferenceBundle(*(getattr(bundle, name) for name in ReferenceBundle._fields))


def gradient_form_bordered(bundle) -> MPoly:
    """The gradient form as minus the bordered 4x4 determinant (cross-check)."""
    hx, hy, hz = bundle.grad_h
    zero = MPoly.zero(XYZ)
    a, b, c, f, g, h = bundle.hess_f
    m = PolyMatrix(
        [
            [zero, hx, hy, hz],
            [hx, a, h, g],
            [hy, h, b, f],
            [hz, g, f, c],
        ]
    )
    return -m.det()


def _derivatives(P: MPoly):
    px, py, pz = P.grad()
    return (px, py, pz), (
        px.partial("x"), py.partial("y"), pz.partial("z"),
        py.partial("z"), px.partial("z"), px.partial("y"),
    )


def _paired_trace(adj6, hess6):
    a2, b2, c2, f2, g2, h2 = hess6
    A, B, C, Fq, Gq, Hq = adj6
    return A * a2 + B * b2 + C * c2 + 2 * (Fq * f2 + Gq * g2 + Hq * h2)


def hessian_reference(F: MPoly) -> ReferenceBundle:
    """``hessian`` on MPoly forms: H expanded along the first row of hess_f."""
    if F.variables != XYZ:
        raise DifferentialError(f"expected a polynomial in {XYZ}")
    d = F.homogeneous_degree()
    if d is None or d < 3:
        raise DegreeTooSmall(f"need a form of degree >= 3, got degree {d}")
    grad_f, hess_f = _derivatives(F)
    a, b, c, f, g, h = hess_f
    adj_f = (
        b * c - f * f, a * c - g * g, a * b - h * h,
        h * g - a * f, h * f - b * g, f * g - h * c,
    )
    H = a * adj_f[0] + h * adj_f[5] + g * adj_f[4]
    grad_h, hess_h = _derivatives(H)
    return ReferenceBundle(F, d, H, hess_f, hess_h, adj_f, grad_f, grad_h)


def covariants_reference(bundle: ReferenceBundle) -> CovariantSet:
    """``covariants`` on MPoly forms, each split summand from its definition."""
    adj_f = bundle.adj_f
    trace = _paired_trace(adj_f, bundle.hess_h)
    grad_hess = tuple(
        _paired_trace(adj_f, [p.partial(v) for p in bundle.hess_h]) for v in XYZ
    )
    grad_adj = tuple(
        _paired_trace([p.partial(v) for p in adj_f], bundle.hess_h) for v in XYZ
    )
    gradient_form = _paired_trace(adj_f, veronese(*bundle.grad_h))
    return CovariantSet(trace, grad_adj, grad_hess, gradient_form)


def second_hessian_reference(F: MPoly, variant: str = "corrected") -> MPoly:
    """``second_hessian`` on MPoly forms, as the sum of three Jacobian
    determinants det(grad F, grad H, r)."""
    if variant not in VARIANTS:
        raise DifferentialError(f"variant must be one of {VARIANTS}")
    kappa = 20 if variant == "corrected" else 40
    bundle = hessian_reference(F)
    if bundle.H.is_zero():
        raise HessianVanishes("the Hessian vanishes identically")
    cov = covariants_reference(bundle)
    d = bundle.d
    jac_adj, jac_hess, jac_form = (
        PolyMatrix([bundle.grad_f, bundle.grad_h, r]).det()
        for r in (cov.trace_grad_adj, cov.trace_grad_hess, cov.gradient_form.grad())
    )
    return (
        (12 * d * d - 54 * d + 57) * bundle.H * jac_adj
        + (d - 2) * (12 * d - 27) * bundle.H * jac_hess
        - kappa * (d - 2) * (d - 2) * jac_form
    )


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


class TokenParser:
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


def parse_poly_reference(text: str, alphabet: str = "xyz") -> MPoly:
    """Parse and expand a polynomial expression over the given alphabet."""
    variables = ALPHABETS.get(alphabet)
    if variables is None:
        raise ParseError(f"unknown alphabet {alphabet!r}; use 'xyz' or 'st'")
    parser = TokenParser(text, variables)
    poly = parser.expr()
    parser.expect_eof()
    return poly


def parse_param_reference(text: str) -> RationalParam:
    """Parse a parametrization triple "(e0 : e1 : e2)" of forms in (s, t)."""
    parser = TokenParser(text, ST)
    parser.expect("LPAREN", "'('")
    forms = [parser.expr()]
    for _ in range(2):
        parser.expect("COLON", "':'")
        forms.append(parser.expr())
    parser.expect("RPAREN", "')'")
    parser.expect_eof()
    return RationalParam(*forms)


def _parse_ratio_tuple(parser: TokenParser, n: int):
    parser.expect("LPAREN", "'('")
    vals = [parser.rational()]
    for _ in range(n - 1):
        parser.expect("COLON", "':'")
        vals.append(parser.rational())
    parser.expect("RPAREN", "')'")
    if not any(vals):
        raise ParseError("projective coordinates cannot all be zero")
    return tuple(vals)


def parse_point_reference(text: str):
    """Parse a projective point "(a : b : c)" with rational entries."""
    parser = TokenParser(text, XYZ)
    point = _parse_ratio_tuple(parser, 3)
    parser.expect_eof()
    return point


def parse_parameter_reference(text: str):
    """Parse a parameter value "(s0 : t0)" with rational entries."""
    parser = TokenParser(text, ST)
    pair = _parse_ratio_tuple(parser, 2)
    parser.expect_eof()
    return pair


def parse_parameter_list_reference(text: str):
    """Parse a comma-separated list of parameter values."""
    parser = TokenParser(text, ST)
    pairs = [_parse_ratio_tuple(parser, 2)]
    while parser.peek()[0] == "COMMA":
        parser.advance()
        pairs.append(_parse_ratio_tuple(parser, 2))
    parser.expect_eof()
    return pairs


def reduce_to_distinct_reference(items, branch_trunc: int):
    """Gaussian elimination by leading exponent on a list of series; returns
    {valuation: (series, vector)} with distinct valuations, where the vector
    holds the coefficients of that series in the input items."""
    n = len(items)
    pivots = {}
    for i, series in enumerate(items):
        vec = tuple(Fraction(int(i == j)) for j in range(n))
        while True:
            v = series.valuation()
            if v is None:
                raise TruncationInsufficient(branch_trunc + 1, series.trunc)
            hit = pivots.get(v)
            if hit is None:
                pivots[v] = (series, vec)
                break
            ps, pvec = hit
            r = Fraction(series.coeffs[v]) / Fraction(ps.coeffs[v])
            series = series - ps * r
            vec = tuple(a - r * b for a, b in zip(vec, pvec))
    return pivots


def valuation_ladder_reference(b) -> ValuationLadder:
    pivots = reduce_to_distinct_reference(veronese(*b.coords), b.trunc)
    orders = tuple(sorted(pivots))
    return ValuationLadder(orders, tuple(pivots[v][1] for v in orders))


def line_orders_reference(b):
    v0, m, l = sorted(reduce_to_distinct_reference(b.coords, b.trunc))
    if v0 != 0:
        raise NonPrimitiveBranch("no linear form is a unit along the branch")
    return m, l
