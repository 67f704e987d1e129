"""Textbook routines the tests use as independent references.

The library takes every determinant by Laplace expansion and never
multiplies two polynomial matrices; the matrix routines here take the other
road, so a cross-check against them does not share the code it checks.  The
library keeps a symmetric 3x3 matrix as the 6-vector of its entries in
``CONIC_BASIS`` order; ``sym3`` spreads one back into a full matrix.

The library computes the Hessian chain of a dense curve on dense
``TernaryForm``s; the ``*_reference`` functions compute the same formulas
on sparse ``MPoly`` forms, with rational coefficients and no scaling.
The library multiplies ``TernaryForm``s row by row; ``padded_product`` is
the one two-dimensional Kronecker multiply it replaced.

The library reads polynomial text in one pass, a product of powers of
literals and variables at a time; ``TokenParser`` is the token-list
recursive descent it replaced, which builds an ``MPoly`` for every atom.
The ``parse_*_reference`` functions run it.

The library works on a rational curve's forms as dense integer lists;
``derivative_rows_reference`` is the ``MPoly.partial`` chain and
``local_branch_at_reference`` the ``MPoly.compose`` expansion they
replaced, ``eval_point_reference`` the ``MPoly.eval`` of the forms at a
rational parameter, and ``dense_form`` turns an ``MPoly`` binary form into
such a list.
``param_veronese`` is the ``MPoly`` form of the six Veronese products.

The library takes the gcd of binary forms modulo primes and checks it by
exact division; ``prs_gcd`` is the primitive pseudo-remainder sequence in
the integers it replaced.  The library finds rational roots modulo a small
prime and lifts them p-adically; ``rational_roots_by_division`` is the
trial division over the divisors of the end coefficients it replaced.

The library reduces a branch's conic pullbacks to distinct valuations by
fraction-free elimination on integer series; ``reduce_to_distinct_reference``
is the exact rational elimination on ``TruncSeries`` it replaced, and the
``*_reference`` ladder and line orders run it.  ``monomial_pullback`` pulls
one monomial back along a branch by ``TruncSeries`` products.  The library
eliminates on a dense branch's first coefficients, more of them only when
it runs out; ``whole_valuation_ladder`` and ``whole_line_orders`` are the
same fraction-free elimination on every coefficient below the truncation,
which it replaced.

The library stores a branch as D times each coordinate, built straight
from its triples; ``integer_coords_reference`` is the clearing of the
rational ``TruncSeries`` coordinates it replaced.

The library prints every sum of terms through one writer, ``_terms_str``;
``mpoly_str_reference`` and ``series_str_reference`` are the two printers,
one per type, that it replaced.  ``terms_str_reference`` is that writer
before its path for int coefficients, every coefficient through
``_coeff_str``.
"""

import re
import sys
from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm
from operator import add
from typing import NamedTuple

from sextactic.branch import BranchParam, NonPrimitiveBranch, TruncationInsufficient, ValuationLadder, _on_exponents
from sextactic.differential import (
    VARIANTS,
    CovariantSet,
    DegreeTooSmall,
    DifferentialError,
    HessianVanishes,
)
from sextactic.parse import ALPHABETS, ParseError, SourceSpan
from sextactic.poly import (
    _SLOTS_PER_TERM,
    CONIC_BASIS,
    ST,
    XYZ,
    MPoly,
    NonSquareMatrix,
    PolyError,
    PolyMatrix,
    TernaryForm,
    _coeff_str,
    _dense,
    _digits,
    _form,
    _pack,
    _triangle,
    _u_at,
    _u_trim,
    binaryform_gcd,
    digit_width,
    exact_div,
    primitive_ints,
    projective_ints,
    veronese,
)
from sextactic.rational import RationalError, RationalParam
from sextactic.series import TruncSeries


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


def padded_product(a: TernaryForm, b: TernaryForm) -> TernaryForm:
    """a * b by one Kronecker multiply in two dimensions: with R = D1 + D2 + 1
    the coefficient of x^i y^j z^k sits in slot i * R + j, every row of both
    operands padded with zeros to R digits, and j < R keeps every row of the
    product clear of the next.  A zero operand gives the zero form, as the
    pair loop that took it did."""
    top = a.degree + b.degree
    r = top + 1
    if a.is_zero() or b.is_zero():
        return TernaryForm(top, [[0] * (r - i) for i in range(r)])

    def padded(form):
        u = []
        for row in form.rows:
            u += row + [0] * (r - len(row))
        return u

    u, v = padded(a), padded(b)
    bound = max(max(u), -min(u)) * max(max(v), -min(v))
    # a coefficient of the product sums at most the terms of the
    # smaller-degree operand
    w = digit_width(bound * _triangle(min(a.degree, b.degree)))
    slots = _digits(_pack(u, w) * _pack(v, w), w, top * r + 1)
    return TernaryForm(top, [slots[i * r : (i + 1) * r - i] for i in range(r)])


def dense_form(f: MPoly):
    """The list u of a binary form with u[i] its coefficient of s^i t^(n-i),
    up to its highest power of s; [] for the zero form."""
    u = [0] * (max((e[0] + 1 for e in f.terms), default=0))
    for e, c in f.terms.items():
        u[e[0]] = c
    return u


def read_back(n, w, degree):
    """The binary form of the given degree whose value at (2^(8w), 1) is n,
    as an ``MPoly``: its dense list read back by ``_digits``."""
    return _form(_digits(n, w, degree + 1), 0, 0, ST)


def gcd_form(f: MPoly, g: MPoly) -> MPoly:
    """``binaryform_gcd`` of two nonzero binary forms, taken on their
    ``_split`` forms and read back as an ``MPoly``."""
    u, scale, a, b = binaryform_gcd(_dense(f), _dense(g))
    return _form(u, a, b, ST) * scale


def param_veronese(param: RationalParam):
    """The six degree-2 products of the param's ``MPoly`` forms, in
    ``CONIC_BASIS`` order."""
    return veronese(*param.phi)


def prs_gcd(a, b):
    """Primitive gcd, positive leading coefficient, of two trimmed dense lists.

    Primitive pseudo-remainder sequence in the integers (Collins 1967): each
    pseudo-remainder is reduced to its primitive part before the next step.
    """
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        n, lead = len(b) - 1, b[-1]
        r = list(a)
        for k in range(len(a) - 1 - n, -1, -1):
            c = r.pop()
            if c:
                g = gcd(c, lead)
                c, m = c // g, lead // g
                if m != 1:
                    r = [x * m for x in r]
                for i in range(n):
                    r[k + i] -= c * b[i]
        r = _u_trim(r)
        a, b = b, primitive_ints(r, r[-1])[0] if r[-1] else r
    return [1] if b[0] else primitive_ints(a, a[-1])[0]


def divisors(n: int):
    """The positive divisors of n > 0, ascending, by trial division up to
    sqrt(n)."""
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def rational_roots_by_division(u):
    """Roots of a squarefree primitive dense list u with u[0] != 0, sorted, as
    ``projective_ints`` pairs (p, q), p > 0: every p/q with p dividing the
    constant and |q| the leading coefficient is tried by Horner."""
    if len(u) == 2:
        return [projective_ints((-u[0], u[1]))]
    roots = []
    for p in divisors(abs(u[0])):
        for q in divisors(abs(u[-1])):
            if gcd(p, q) > 1:
                continue
            for den in (q, -q):
                # den^n * u(p/den)
                if _u_at(u, p, den) == 0:
                    roots.append((p, den))
    return sorted(roots)


def derivative_rows_reference(forms, order: int):
    """Rows r = 0..order of the mixed partials d^order / ds^(order-r) dt^r
    of ``MPoly`` binary forms, by repeated ``MPoly.partial``."""
    rows = []
    current = list(forms)
    for _ in range(order):
        current = [f.partial("s") for f in current]
    rows.append(current)
    prev = list(forms)
    for r in range(1, order + 1):
        prev = [f.partial("t") for f in prev]
        current = list(prev)
        for _ in range(order - r):
            current = [f.partial("s") for f in current]
        rows.append(current)
    return rows


def eval_point_reference(param: RationalParam, at):
    """Primitive integer coordinates of the curve point at (s0 : t0), by
    ``MPoly.eval`` of each form at the rational parameter."""
    s0, t0 = Fraction(at[0]), Fraction(at[1])
    vals = [p.eval((s0, t0)) for p in param.phi]
    if not any(vals):
        raise RationalError(f"parametrization vanishes at ({s0} : {t0})")
    return projective_ints(vals)


def local_branch_at_reference(param: RationalParam, at, trunc: int) -> BranchParam:
    """The branch at the parameter (s0 : t0) by composing each form with
    (u + s0/t0, 1), or with (1, u) at (1 : 0)."""
    s0, t0 = Fraction(at[0]), Fraction(at[1])
    if not s0 and not t0:
        raise RationalError("(0, 0) is not a projective parameter")
    u = MPoly.variable(("u",), "u")
    if t0:
        imgs = (u + s0 / t0, MPoly.constant(("u",), 1))
    else:
        imgs = (MPoly.constant(("u",), 1), u)
    coords = []
    for p in param.phi:
        expanded = p.compose(imgs)
        coeffs = {e[0]: c for e, c in expanded.terms.items() if e[0] < trunc}
        coords.append(TruncSeries(coeffs, trunc))
    return BranchParam(*coords)


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


def monomial_pullback(b: BranchParam, expo) -> TruncSeries:
    """Pull x^i y^j z^k back along the branch."""
    out = None
    for coord, e in zip(b.coords, expo):
        for _ in range(e):
            out = coord if out is None else out * coord
    if out is None:
        return TruncSeries({0: 1}, b.trunc)
    return out


def line_orders_reference(b):
    v0, m, l = sorted(reduce_to_distinct_reference(b.coords, b.trunc))
    if v0 != 0:
        raise NonPrimitiveBranch("no linear form is a unit along the branch")
    return m, l


def _whole_veronese_lists(coords):
    """The six Veronese products of dense int lists, each read back up to
    its truncation, as (int list, truncation) items."""
    w = digit_width(max(map(abs, chain(*coords))) ** 2 * max(map(len, coords)))
    cuts = [(len(u), next(compress(count(), u), len(u))) for u in coords]
    ends = veronese(*cuts, times=lambda a, b: min(a[0] + b[1], b[0] + a[1]))
    products = veronese(*[_pack(u, w) for u in coords])
    return [(_digits(p, w, end), end) for p, end in zip(products, ends)]


def _whole_reduce_to_distinct(items, at, branch_trunc: int):
    """Fraction-free elimination by leading exponent on whole (int list,
    truncation) items; {valuation: integer vector}."""
    n = len(items)
    pivots = {}
    vectors = {}
    for i, (series, trunc) in enumerate(items):
        vec = [0] * n
        vec[i] = 1
        while True:
            v = next(compress(count(), series), None)
            if v is None:
                raise TruncationInsufficient(branch_trunc + 1, trunc)
            hit = pivots.get(v)
            if hit is None:
                pivots[v] = (series, trunc)
                vectors[v] = vec
                break
            ps, ptrunc = hit
            a, b = ps[v], series[v]
            g = gcd(a, b)
            a, b = a // g, b // g
            trunc = min(trunc, ptrunc)
            series = [a * x - b * y for x, y in zip(series, ps)]
            vec = [a * x - b * y for x, y in zip(vec, vectors[v])]
    return {at[v]: vec for v, vec in vectors.items()}


def whole_valuation_ladder(b: BranchParam) -> ValuationLadder:
    coords = b.ints
    if type(coords[0]) is list:
        items = _whole_veronese_lists(coords)
        at = range(max(t for _, t in items))
    else:
        items, at = _on_exponents(veronese(*coords))
    vectors = _whole_reduce_to_distinct(items, at, b.trunc)
    orders = tuple(sorted(vectors))
    return ValuationLadder(orders, tuple(vectors[v] for v in orders))


def whole_line_orders(b: BranchParam):
    coords = b.ints
    if type(coords[0]) is list:
        items, at = [(u, len(u)) for u in coords], range(max(map(len, coords)))
    else:
        items, at = _on_exponents(coords)
    v0, m, l = sorted(_whole_reduce_to_distinct(items, at, b.trunc))
    if v0 != 0:
        raise NonPrimitiveBranch("no linear form is a unit along the branch")
    return m, l


def integer_coords_reference(b):
    """(D, coords): D the lcm of the coefficient denominators of the branch's
    rational coordinates ``b.coords``, and each coordinate times D; a dense
    int list, entry e the coefficient of t^e below the coordinate's
    truncation, when the three hold at least one stored term per
    _SLOTS_PER_TERM slots below their truncations, else an integer
    ``TruncSeries``."""
    coords = b.coords
    d = lcm(*[c.denominator for s in coords for c in s.coeffs.values()])
    dense = sum(s.trunc for s in coords) <= _SLOTS_PER_TERM * sum(len(s.coeffs) for s in coords)
    cleared = []
    for s in coords:
        if dense:
            u = [0] * s.trunc
            for e, c in s.coeffs.items():
                u[e] = c.numerator * (d // c.denominator)
        else:
            u = TruncSeries({e: c.numerator * (d // c.denominator) for e, c in s.coeffs.items()}, s.trunc)
        cleared.append(u)
    return d, cleared


def mpoly_str_reference(f: MPoly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for expo, c in f.sorted_terms():
        mono = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(f.variables, expo)
            if e
        )
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{_coeff_str(mag)}*{mono}"
        else:
            body = _coeff_str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def terms_str_reference(pairs) -> str:
    parts = []
    for c, mono in pairs:
        mag = abs(c)
        if not mono:
            body = _coeff_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_coeff_str(mag)}*{mono}"
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts)


def series_str_reference(a: TruncSeries) -> str:
    parts = []
    for e in sorted(a.coeffs):
        c = a.coeffs[e]
        mono = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
        if e == 0:
            body = _coeff_str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{_coeff_str(abs(c))}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    parts.append(f"+ O(t^{a.trunc})" if parts else f"O(t^{a.trunc})")
    return " ".join(parts)
