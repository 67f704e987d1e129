"""Exact sparse polynomial arithmetic over the rationals.

Everything downstream (Hessian covariants, Wronskians, local branch analysis)
is built on the types here: ``MPoly`` over a fixed ordered variable tuple,
polynomial matrices with cofactor determinants, the one primitive-content
normaliser ``primitive_ints``, and binary-form algorithms (gcd, squarefree
splitting, rational roots, root orders) on dense integer lists for forms in
(s, t).

Coefficients are arbitrary-precision rationals, stored as plain ``int``
whenever the denominator is 1.  The canonical term order is graded
lexicographic, descending, with x > y > z (resp. s > t); printing follows
that order and is byte-deterministic.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, compress, repeat
from math import comb, gcd, lcm, prod
from operator import add, mul, sub

XYZ = ("x", "y", "z")
ST = ("s", "t")
# the conic monomial basis, in the fixed order x^2, y^2, z^2, yz, xz, xy;
# a symmetric 3x3 matrix (a h g; h b f; g f c) is the 6-vector
# (a, b, c, f, g, h) in the same order
CONIC_BASIS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def veronese(u, v, w, times=mul):
    """The conic monomials of (u, v, w) in CONIC_BASIS order: any ring
    elements, multiplied by ``times``."""
    return (times(u, u), times(v, v), times(w, w), times(v, w), times(u, w), times(u, v))


class PolyError(ValueError):
    """Base class for polynomial-domain errors."""


class VariableSetMismatch(PolyError):
    pass


class UnknownVariable(PolyError):
    pass


class ExactDivisionError(PolyError):
    pass


class NonSquareMatrix(PolyError):
    pass


class ZeroFormError(PolyError):
    pass


class InfiniteOrder(PolyError):
    """Vanishing order requested for the zero form."""


class NotHomogeneous(PolyError):
    pass


class IntegerTooLong(PolyError):
    """A computed integer has more decimal digits than Python will print."""


def _norm(c):
    """Coerce a coefficient to int when integral, Fraction otherwise."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"bad coefficient type {type(c).__name__}")


def _is_int(value) -> bool:
    # bool is a subclass of int, and JSON true/false load as bool
    return isinstance(value, int) and not isinstance(value, bool)


def primitive_ints(values, sign=1):
    """Split rationals, not all zero, as scale * ints with the ints coprime.

    ``values`` is a sequence of ints and Fractions; it is read more than
    once.  The scale is positive when ``sign`` > 0 and negative otherwise, so
    a caller that needs one entry to come out positive passes that entry.
    Returns (ints, scale); the scale is an int when integral, else a Fraction.
    """
    num = gcd(*[c.numerator for c in values])
    den = lcm(*[c.denominator for c in values])
    if sign < 0:
        num = -num
    if den == 1:
        return [c.numerator // num for c in values], num
    return (
        [c.numerator * (den // c.denominator) // num for c in values],
        Fraction(num, den),
    )


def _ratio(a, b):
    return _norm(Fraction(a) / Fraction(b))


def _order_key(expo):
    # graded lex, used descending: higher total degree first, then higher
    # exponent on the earlier variable
    return (sum(expo), expo)


def _int_str(n: int) -> str:
    """Decimal text of an integer; every computed integer printed goes here."""
    try:
        return str(n)
    except ValueError:  # over sys.get_int_max_str_digits()
        raise IntegerTooLong(
            f"a computed integer of {n.bit_length()} bits is over the limit of "
            f"{sys.get_int_max_str_digits()} digits for printing"
        ) from None


def _coeff_str(c) -> str:
    """Text of a rational: an integer, or numerator/denominator."""
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{_int_str(c.numerator)}/{_int_str(c.denominator)}"
    return _int_str(int(c))


def _terms_str(pairs) -> str:
    """Text of a sum of terms, from (nonzero rational c, monomial text)
    pairs in printing order: "c*m", "m" when |c| = 1, and "c" for an empty
    monomial.  The first term carries only a "-"; later ones are joined by
    "+ " or "- ".  No pairs give the empty string."""
    parts = []
    for c, mono in pairs:
        if c > 0:
            sign = "+ " if parts else ""
        else:
            sign = "- " if parts else "-"
            c = -c
        try:
            parts.append((f"{sign}{mono}" if c == 1 else f"{sign}{c}*{mono}") if mono else f"{sign}{c}")
        except ValueError:  # an integer over the digit limit: _coeff_str names it
            _coeff_str(c)
            raise
    return " ".join(parts)


def _power_texts(v, d):
    """The texts "", "v*", "v^2*", ..., "v^d*" of v^0..v^d: a monomial's
    text is the concatenation of its powers less the last "*"."""
    return [""] + [f"{v}*" if e == 1 else f"{v}^{e}*" for e in range(1, d + 1)]


def _point_str(coords) -> str:
    """Text of a projective point of rational coordinates: (a : b : c)."""
    return "(" + " : ".join(_coeff_str(Fraction(c)) for c in coords) + ")"


# signed memoryview and array formats of the machine's 1-, 2-, 4- and 8-byte
# words, keyed by size; the packed fields are little-endian, so they are read
# through these only on a little-endian machine
_WORDS = (
    {memoryview(b"").cast(f).itemsize: f.lower() for f in "BHIQ"}
    if sys.byteorder == "little"
    else {}
)

# byte translation that flips the top bit: a w-byte field holding c in two's
# complement holds c + 2^(8w - 1) unsigned once the top bit of its last byte
# is flipped, and the other way round
_FLIP = bytes(range(128, 256)) + bytes(range(128))

# Only operands with at most _SLOTS_PER_TERM dense slots per stored term
# (``dense_enough``) pack, become ``TernaryForm``s or dense branch lists, so
# memory stays linear in the stored terms however sparse the input is.
_SLOTS_PER_TERM = 4

# _pack runs Horner up to _HORNER_MAX_DIGITS + 64 // w digits of w bytes.
# Measured on CPython 3.11, Horner time over bytes time is near 1 at about
# 96, 64, 48, 40 and 32 digits of 1, 2, 4, 8 and 32 bytes; at 120 digits of
# 8 to 32 bytes it is 2.8 to 4, and at 1000 digits 40.
_HORNER_MAX_DIGITS = 32

# A TernaryForm.dot whose pairs hold at most _LOOP_PAIRS_PER_SLOT pairs of
# nonzero terms per slot of the row kernel, one product of a packed row of a
# by one of b ((D1 + 1) (D2 + 1) per pair of degrees D1, D2), takes a loop
# over those pairs.  Dense forms hold (D1 + 1) (D2 + 1) (D1 + 2) (D2 + 2) / 4
# pairs, so the ratio grows with the degrees.  Measured on CPython 3.11, loop
# time over row-kernel time for one pair of dense forms of degrees (D1, D2),
# with 8-bit coefficients: 0.51 at (0, 3), 0.56 at (1, 1), 0.59 at (2, 2),
# 0.74 at (3, 3) (6.25 pairs per slot), 0.84 at (3, 4) (7.5), 0.95 at
# (4, 4) (9), 1.10 at (4, 5) (10.5) and 1.66 at (6, 6) (16); with 40-bit
# coefficients 0.39, 0.40, 0.52, 0.70, 0.81, 0.98, 1.14 and 1.59.  A sum of
# six such pairs shares one read-back, and the kernel catches up sooner:
# 0.93 at (2, 4) (6), 0.96 at (3, 3), 1.10 at (3, 4) and 1.25 at (4, 4)
# with 8-bit coefficients, 1.10, 1.20, 1.34 and 1.55 with 40-bit ones.
_LOOP_PAIRS_PER_SLOT = 8

# MPoly products of at least _PACK_MIN_PAIRS term pairs, with at least
# _PACK_MIN_TERMS terms in each operand, go through the kernel.  Measured on
# CPython 3.11 (BENCH_8.json), loop time over kernel time for dense ternary
# forms of n x n terms, n = 1, 3, 6, 10, 15, 21, 28, 36, 45: with int
# coefficients 0.14, 0.37, 0.81, 1.62, 2.37, 3.29, 3.81, 5.39, 6.69; with
# Fraction coefficients 0.39, 1.76, 3.03, 6.44, 9.19, 12.0, 15.2, 19.5, 19.5.
# Dense binary forms give 1.28 at 4x16, 1.5 at 8x8 and 4.16 at 19x19.
# Sixty-four pairs sits past the int crossover, between 6x6 and 10x10.
# Against a long form, a one-term operand gives 0.51 to 0.55 and a two-term
# one 0.86 to 0.99; three terms give 1.07 at 3x28 and 1.34 at 3x91.
_PACK_MIN_PAIRS = 64
_PACK_MIN_TERMS = 3


def dense_enough(slots, stored):
    """Whether ``stored`` terms fill ``slots`` dense slots densely enough
    to be kept as dense lists (_SLOTS_PER_TERM)."""
    return slots <= _SLOTS_PER_TERM * stored


def worth_packing(m, n):
    """Whether a product of operands of m and n stored terms packs rather
    than loops over term pairs (_PACK_MIN_PAIRS, _PACK_MIN_TERMS)."""
    return m * n >= _PACK_MIN_PAIRS and min(m, n) >= _PACK_MIN_TERMS


def _dense_ints(coeffs, lo, n):
    """(u, den) with u[i] = den * coeffs[lo + i] for i < n, den the least
    common denominator of all of ``coeffs``."""
    den = lcm(*[c.denominator for c in coeffs.values()])
    u = [0] * n
    end = lo + n
    for e, c in coeffs.items():
        if e < end:
            u[e - lo] = c.numerator * (den // c.denominator)
    return u, den


def _pack(u, w):
    """The integer sum u[i] * 2^(8*w*i) of signed digits with |u[i]| < 2^(8*w-1).

    Few digits go by integer Horner.  Past that, whose shifts copy ever
    longer integers, each digit is written as a w-byte two's complement
    field; with the top bit of every field flipped, the fields read back as
    one unsigned integer are the digits plus 2^(8*w-1) each, which
    ``_bias`` takes off again.
    """
    if len(u) <= _HORNER_MAX_DIGITS + 64 // w:
        bits = 8 * w
        p = 0
        for c in reversed(u):
            p = (p << bits) + c
        return p
    if w in _WORDS:
        raw = bytearray(array(_WORDS[w], u).tobytes())
    else:
        raw = bytearray(b"".join([c.to_bytes(w, "little", signed=True) for c in u]))
    raw[w - 1 :: w] = raw[w - 1 :: w].translate(_FLIP)
    return int.from_bytes(raw, "little") - _bias(w, len(u))


@lru_cache(maxsize=256)
def _bias(w, k):
    """The integer of k fields of w bytes, each holding 2^(8w - 1).  The
    same few (w, k) recur from call to call (338 pairs over the 7503 calls
    of a 144-job implicit benchmark list), so the last 256 are kept."""
    return int.from_bytes((1 << (8 * w - 1)).to_bytes(w, "little") * k, "little")


def digit_width(bound):
    """Bytes w of a digit field that holds every signed integer of magnitude
    at most ``bound`` with a sign bit: ``bound`` < 2^(8w - 1).  Up to 8 bytes,
    w is a machine word size, so that the digits pack and read back in one
    cast."""
    w = bound.bit_length() // 8 + 1
    if w <= 8:
        w = 1 << (w - 1).bit_length()
    return w


def _digits(n, w, k):
    """The k signed base-2^(8w) digits of n, lowest first, each of magnitude
    below 2^(8w - 1); n is read modulo 2^(8wk).

    Adding ``_bias`` makes each of the k digits c a field c + 2^(8w - 1) in
    [0, 2^(8w)) without a carry between them; the digits from k on only add
    a multiple of 2^(8wk), which the mask drops.  ``_fields`` reads the
    fields back.
    """
    total = (n + _bias(w, k)) & ((1 << (8 * w * k)) - 1)
    return _fields(bytearray(total.to_bytes(w * k, "little")), w)


def _digit_runs(values, w, lengths):
    """For each integer n of ``values`` and k of ``lengths``, the k signed
    base-2^(8w) digits of n, lowest first, each of magnitude below
    2^(8w - 1); n must have no more digits than k.

    n plus the ``_bias`` of its k digits is a run of k fields in [0, 2^(8w)),
    so the runs are joined end to end and read back in one ``_fields`` pass.
    """
    raw = bytearray().join([(n + _bias(w, k)).to_bytes(w * k, "little") for n, k in zip(values, lengths)])
    flat = _fields(raw, w)
    runs, end = [], 0
    for k in lengths:
        runs.append(flat[end : end + k])
        end += k
    return runs


def _fields(raw, w):
    """The digits c of the little-endian w-byte fields c + 2^(8w - 1) of
    ``raw``, a bytearray it may change.

    A field of a machine word size is read as c in two's complement once
    its top bit is flipped.  A wider one is spread over m 8-byte limbs, the
    last of which carries the bias, and put back together from them.
    """
    if w in _WORDS:
        raw[w - 1 :: w] = raw[w - 1 :: w].translate(_FLIP)
        return memoryview(raw).cast(_WORDS[w]).tolist()
    k = len(raw) // w
    m = -(-w // 8)
    wide = bytearray(8 * m * k)
    for i in range(w):
        wide[i :: 8 * m] = raw[i::w]
    limbs = array("Q", wide)
    if sys.byteorder == "big":
        limbs.byteswap()
    top = 1 << (8 * w - 1 - 64 * (m - 1))
    out = [c - top for c in limbs[m - 1 :: m]]
    for t in range(m - 2, -1, -1):
        out = [c << 64 | x for c, x in zip(out, limbs[t::m])]
    return out


def kronecker_product(a, b, end=None):
    """Nonzero coefficients of the product of two nonempty slot -> coefficient
    dicts, keyed by slot in ascending order and only below ``end`` (above
    min(a) + min(b)) when given; None when the operands are too sparse to
    pack (``dense_enough``).

    Kronecker substitution (Fateman 2005): each operand, over its common
    denominator, becomes the integer sum u[i] * 2^(bits*i) over its dense
    slots from the lowest to the highest stored one, and one big-integer
    product holds every coefficient of the product in its own slot.
    """
    lo_a, lo_b = min(a), min(b)
    na, nb = max(a) - lo_a + 1, max(b) - lo_b + 1
    k = na + nb - 1
    if end is not None:
        # operand slots at or past k cannot reach the kept part of the product
        k = min(k, end - lo_a - lo_b)
        na, nb = min(na, k), min(nb, k)
    if not dense_enough(na + nb, len(a) + len(b)):
        return None
    u, da = _dense_ints(a, lo_a, na)
    v, db = _dense_ints(b, lo_b, nb)
    # a slot sums at most min(na, nb) products
    w = digit_width(max(map(abs, u)) * max(map(abs, v)) * min(na, nb))
    slots = _digits(_pack(u, w) * _pack(v, w), w, min(k, na + nb - 1))
    den = da * db
    if den == 1:
        return {e: c for e, c in enumerate(slots, lo_a + lo_b) if c}
    out = {}
    for e, c in enumerate(slots, lo_a + lo_b):
        if c:
            out[e] = c // den if c % den == 0 else Fraction(c, den)
    return out


def _packed_mul(a, b, n):
    """Terms of the product of two binary or ternary forms, given as term
    dicts in n = 2 or 3 variables, packed into one big-integer multiply;
    None for any other operands or when they are too sparse to pack.

    A binary product is one ``kronecker_product``, with the slot of (i, j)
    its first exponent i.  A ternary product is one ``TernaryForm`` product
    of the two operands' monomial cofactors, when the triangles of the
    cofactors pass ``fills_triangles``.  Either way the terms come in
    ascending order of their exponents.
    """
    if n not in (2, 3):
        return None
    da, db = set(map(sum, a)), set(map(sum, b))
    if len(da) != 1 or len(db) != 1:
        return None
    da, db = da.pop(), db.pop()
    if n == 2:
        top = da + db
        out = kronecker_product(
            {e[0]: c for e, c in a.items()}, {e[0]: c for e, c in b.items()}
        )
        return None if out is None else {(s, top - s): c for s, c in out.items()}
    # x^m0 y^m1 z^m2, the largest monomial dividing every term, for each
    ma, mb = (tuple(map(min, zip(*t))) for t in (a, b))
    da, db = da - sum(ma), db - sum(mb)
    if not fills_triangles(len(a) + len(b), da, db):
        return None
    out = (TernaryForm.of(_cofactor(a, ma), da) * TernaryForm.of(_cofactor(b, mb), db)).terms()
    m = tuple(map(add, ma, mb))
    if any(m):
        out = {(i + m[0], j + m[1], k + m[2]): c for (i, j, k), c in out.items()}
    return out


def _cofactor(terms, m):
    """A ternary term dict divided by the monomial x^m0 y^m1 z^m2."""
    if not any(m):
        return terms
    return {(i - m[0], j - m[1], k - m[2]): c for (i, j, k), c in terms.items()}


def fills_triangles(stored, *degrees):
    """Whether ``stored`` terms fill ternary forms of these degrees densely
    enough (``dense_enough``) to keep them as ``TernaryForm``s."""
    return dense_enough(sum(map(_triangle, degrees)), stored)


def _triangle(d):
    """Monomials of degree d in three variables."""
    return (d + 1) * (d + 2) // 2


def _denominator(coeffs):
    """Least common denominator of rationals."""
    return lcm(*[c.denominator for c in coeffs])


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Immutable by convention: no method mutates ``terms`` after construction,
    so values can be shared freely.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        variables = tuple(variables)
        if not variables:
            raise PolyError("empty variable set")
        clean = {}
        for expo, c in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(variables):
                raise VariableSetMismatch(
                    f"exponent vector {expo} does not match variables {variables}"
                )
            if any(e < 0 for e in expo):
                raise PolyError(f"negative exponent in {expo}")
            c = _norm(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
            if c:
                clean[expo] = clean.get(expo, 0) + c
        self.variables = variables
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def _make(cls, variables, terms):
        # fast path: trusted exponent vectors, coefficients already normalized
        obj = object.__new__(cls)
        obj.variables = variables
        obj.terms = {e: c for e, c in terms.items() if c}
        return obj

    @classmethod
    def zero(cls, variables):
        return cls._make(tuple(variables), {})

    @classmethod
    def constant(cls, variables, c):
        variables = tuple(variables)
        c = _norm(c if isinstance(c, (int, Fraction)) else Fraction(c))
        if not c:
            return cls._make(variables, {})
        return cls._make(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariable(f"variable {name!r} not among {variables}")
        expo = tuple(1 if v == name else 0 for v in variables)
        return cls._make(variables, {expo: 1})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        """Degree of a homogeneous polynomial (None if zero).

        Raises NotHomogeneous when terms of different total degree occur.
        """
        degs = {sum(e) for e in self.terms}
        if len(degs) > 1:
            raise NotHomogeneous(f"mixed total degrees {sorted(degs)}")
        return degs.pop() if degs else None

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), 0)

    def sorted_terms(self):
        """Terms in canonical (graded-lex descending) order."""
        for expo in sorted(self.terms, key=_order_key, reverse=True):
            yield expo, self.terms[expo]

    def lead(self):
        """(exponent, coefficient) of the canonical leading term."""
        if not self.terms:
            raise ZeroFormError("zero polynomial has no leading term")
        expo = max(self.terms, key=_order_key)
        return expo, self.terms[expo]

    def _index(self, var) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise UnknownVariable(
                f"variable {var!r} not among {self.variables}"
            ) from None

    def _check_vars(self, other):
        if self.variables != other.variables:
            raise VariableSetMismatch(
                f"{self.variables} vs {other.variables}"
            )

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self.variables, other)
        self._check_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly._make(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._make(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _norm(other)
            if not c:
                return MPoly.zero(self.variables)
            return MPoly._make(
                self.variables, {e: _norm(k * c) for e, k in self.terms.items()}
            )
        self._check_vars(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return MPoly.zero(self.variables)
        terms = _packed_mul(a, b, len(self.variables)) if worth_packing(len(a), len(b)) else None
        if terms is None:
            if len(a) > len(b):
                a, b = b, a
            out = {}
            get = out.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
            terms = {e: c for e, c in out.items() if c}
        prod = object.__new__(MPoly)
        prod.variables = self.variables
        prod.terms = terms
        return prod

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise PolyError(f"exponent must be a non-negative integer, got {n!r}")
        result = MPoly.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None

    # -- calculus / evaluation -------------------------------------------

    def partial(self, var):
        """Formal partial derivative with respect to ``var``."""
        i = self._index(var)
        out = {}
        for expo, c in self.terms.items():
            e = expo[i]
            if e:
                ne = expo[:i] + (e - 1,) + expo[i + 1 :]
                out[ne] = _norm(c * e)
        return MPoly._make(self.variables, out)

    def grad(self):
        return tuple(self.partial(v) for v in self.variables)

    def eval(self, values):
        """Evaluate at a point given as one rational per variable: the exact
        sum of c * prod(v^e) over the terms, an int when integral."""
        values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
        if len(values) != len(self.variables):
            raise VariableSetMismatch(
                f"expected {len(self.variables)} values, got {len(values)}"
            )
        return _norm(sum(c * prod(map(pow, values, expo)) for expo, c in self.terms.items()))

    def compose(self, images):
        """Substitute one polynomial per variable; images share a variable set."""
        images = tuple(images)
        if len(images) != len(self.variables):
            raise VariableSetMismatch(
                f"expected {len(self.variables)} images, got {len(images)}"
            )
        tvars = images[0].variables
        for img in images:
            if img.variables != tvars:
                raise VariableSetMismatch("images use different variable sets")
        one = MPoly.constant(tvars, 1)
        powers = [[one] for _ in images]

        def power(i, e):
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * images[i])
            return cache[e]

        acc = MPoly.zero(tvars)
        for expo, c in self.terms.items():
            term = MPoly.constant(tvars, c)
            for i, e in enumerate(expo):
                if e:
                    term = term * power(i, e)
            acc = acc + term
        return acc

    # -- normal forms ------------------------------------------------------

    def canonical_with_scale(self):
        """(canonical, scale) with self = scale * canonical.

        Canonical means primitive integer coefficients and a positive
        coefficient on the canonical leading term.
        """
        if not self.terms:
            return self, Fraction(0)
        ints, scale = primitive_ints(self.terms.values(), self.lead()[1])
        return MPoly._make(self.variables, dict(zip(self.terms, ints))), scale

    def canonical(self):
        return self.canonical_with_scale()[0]

    # -- printing ----------------------------------------------------------

    def __str__(self):
        """Terms in graded-lex descending order, from two sorts of the
        exponents: descending, then stably by total degree, descending;
        each monomial's nonzero powers are joined by "*"."""
        expos = sorted(self.terms, reverse=True)
        expos.sort(key=sum, reverse=True)
        names = self.variables
        return _terms_str(
            (self.terms[expo], "*".join([v if e == 1 else f"{v}^{e}" for v, e in zip(names, expo) if e]))
            for expo in expos
        ) or "0"

    def __repr__(self):
        return f"MPoly({'/'.join(self.variables)}: {self})"


def conic(six) -> MPoly:
    """The conic sum six[i] * CONIC_BASIS[i] in (x, y, z), for six ints and
    Fractions; dual to ``veronese``: conic(six) at p is six paired with
    veronese(*p)."""
    return MPoly._make(XYZ, dict(zip(CONIC_BASIS, map(_norm, six))))


def canonical_conic(six) -> MPoly:
    """``conic(six).canonical()`` for a sequence of six ints and Fractions,
    the zero conic for six zeros.  The graded-lex order on CONIC_BASIS is
    x^2, xy, xz, y^2, yz, z^2, the indices 0, 5, 4, 1, 3, 2."""
    lead = next((c for i in (0, 5, 4, 1, 3, 2) if (c := six[i])), 0)
    return conic(primitive_ints(six, lead)[0] if lead else six)


def exact_div(f: MPoly, g: MPoly) -> MPoly:
    """Exact polynomial quotient f/g; raises ExactDivisionError otherwise."""
    f._check_vars(g)
    if g.is_zero():
        raise ExactDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    ge, gc = g.lead()
    quot = {}
    rem = dict(f.terms)
    while rem:
        fe = max(rem, key=_order_key)
        qe = tuple(a - b for a, b in zip(fe, ge))
        if any(x < 0 for x in qe):
            raise ExactDivisionError(f"{g} does not divide {f}")
        qc = _ratio(rem[fe], gc)
        quot[qe] = quot.get(qe, 0) + qc
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(qe, e2))
            nc = rem.get(e, 0) - qc * c2
            if nc:
                rem[e] = nc
            else:
                rem.pop(e, None)
    return MPoly._make(f.variables, quot)


class PolyMatrix:
    """Rectangular matrix of MPoly entries over one shared variable set."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise PolyError("empty matrix")
        cols = len(entries[0])
        variables = entries[0][0].variables
        for row in entries:
            if len(row) != cols:
                raise PolyError("ragged rows")
            for p in row:
                if p.variables != variables:
                    raise VariableSetMismatch("matrix entries mix variable sets")
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    @property
    def variables(self):
        return self.entries[0][0].variables

    def det(self) -> MPoly:
        """Determinant of a square matrix (``laplace_det``)."""
        if self.rows != self.cols:
            raise NonSquareMatrix(f"{self.rows}x{self.cols} matrix")
        return laplace_det(self.entries)


def laplace_det(rows):
    """Determinant of a square matrix of ints, Fractions or MPolys: Laplace
    expansion along the top row, against the ``laplace_minors`` of the rest;
    zero entries are skipped."""
    top, *rest = rows
    acc = top[0] * 0
    for e, minor in zip(top, laplace_minors(rest)):
        if e:
            acc = acc + e * minor
    return acc


def laplace_minors(rows):
    """Signed minors of a k x (k+1) matrix along a virtual top row.

    Entry j is (-1)^j times the determinant of ``rows`` with column j
    deleted, so sum(c[j] * minors[j]) is the determinant of [c] + rows.
    Entries may be MPoly or int/Fraction; a zero entry is skipped by
    truthiness.  The minors are built bottom-up: those of the last r rows,
    on every r-subset of the columns, expand along their top row into those
    of the last r - 1.
    """
    k = len(rows)
    if not k:
        return [1]
    zero = rows[0][0] * 0
    below = {(c,): e for c, e in enumerate(rows[-1])}
    for r in range(2, k + 1):
        row = rows[k - r]
        level = {}
        for cols in combinations(range(k + 1), r):
            acc = zero
            for idx, c in enumerate(cols):
                e = row[c]
                if e:
                    sub = e * below[cols[:idx] + cols[idx + 1 :]]
                    acc = acc - sub if idx % 2 else acc + sub
            level[cols] = acc
        below = level
    # the k-subsets come in the order that leaves out column k, ..., 0
    return [m if j % 2 == 0 else -m for j, m in enumerate(reversed(below.values()))]


# -- dense ternary forms in (x, y, z) ------------------------------------------


def _row_kernel(pairs, top):
    """The rows of sum(c * a * b) over the (c, a, b) of ``pairs``, nonzero
    ints c and nonzero TernaryForms a and b whose degrees sum to ``top``, by
    Kronecker substitution in y alone (Fateman 2005).

    Each row of each operand is packed on its own as one integer at a digit
    width w (``_pack``).  The product of rows i of a and k of b is then row
    i + k's share of a * b; the shares of every pair add up in one integer
    per row of the result, and the rows are read back together once
    (``_digit_runs``).  w holds the sum of |c| * max|a| * max|b| times the terms
    that meet in one coefficient, at most the triangle of the smaller
    degree.
    """
    bound = 0
    for c, a, b in pairs:
        bound += abs(c) * a._bound() * b._bound() * _triangle(min(a.degree, b.degree))
    w = digit_width(bound)
    out = [0] * (top + 1)
    for c, a, b in pairs:
        pb = [_pack(row, w) for row in b.rows]
        n = len(pb)
        for i, row in enumerate(a.rows):
            p = c * _pack(row, w)
            if p:
                out[i : i + n] = map(add, out[i : i + n], map(p.__mul__, pb))
    return _digit_runs(out, w, range(top + 1, 0, -1))


def _rows_at(rows, degree, x, y, z):
    """sum rows[a][b] x^a y^b z^(degree - a - b), a ternary form held as
    rows, at (x, y, z): Horner in y along each row, then in x over the rows,
    with the powers of z computed once.  A zero entry costs one product by
    y; a row may stop short, its missing entries zero."""
    zs = [1]
    for _ in range(degree):
        zs.append(zs[-1] * z)
    total = 0
    m = degree - len(rows)
    for row in reversed(rows):
        m += 1  # degree - a, the power of z of entry 0 of row a
        if row:
            k = m - len(row)
            acc = 0
            for c in reversed(row):
                k += 1
                acc = acc * y + c * zs[k] if c else acc * y
            total = total * x + acc
        else:
            total *= x
    return total


class TernaryForm:
    """Dense homogeneous form in (x, y, z) with rational coefficients.

    The form is rows / den, den a positive int: ``rows[i][j]`` is den times
    the coefficient of x^i y^j z^(degree - i - j), so row i is a binary form
    in (y, z) with degree - i + 1 entries; a zero form keeps its degree.
    Sums, integer multiples and partials are list operations that keep den.
    Every product goes through ``dot``, which sums integer multiples of
    products of pairs of forms in one pass: the row kernel
    (``_row_kernel``) packs each row of each operand into one integer,
    multiplies rows i and k into row i + k of the result, and reads each row
    of the result back once, so no row is padded.  Pairs with few pairs of
    nonzero terms (``_LOOP_PAIRS_PER_SLOT``) loop over those pairs instead.
    """

    __slots__ = ("degree", "rows", "den")

    def __init__(self, degree, rows, den=1):
        self.degree = degree
        self.rows = rows
        self.den = den

    @classmethod
    def of(cls, terms, degree):
        """The form sum(c * x^i y^j z^k), over the least common denominator of
        the c, of a term dict whose exponents all sum to ``degree``."""
        den = _denominator(terms.values())
        rows = [[0] * (degree + 1 - i) for i in range(degree + 1)]
        for (i, j, k), c in terms.items():
            if i + j + k != degree:
                raise NotHomogeneous(f"a term of degree {i + j + k} in a form of degree {degree}")
            rows[i][j] = c.numerator * (den // c.denominator)
        return cls(degree, rows, den)

    def terms(self):
        """The term dict of the form, in ascending order of exponents."""
        d, den = self.degree, self.den
        out = {}
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c:
                    if den != 1:
                        c = c // den if c % den == 0 else Fraction(c, den)
                    out[(i, j, d - i - j)] = c
        return out

    def mpoly(self) -> MPoly:
        """The form as an MPoly in (x, y, z)."""
        return MPoly._make(XYZ, self.terms())

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def __add__(self, other):
        return self._combine(add, other)

    def __sub__(self, other):
        return self._combine(sub, other)

    def _combine(self, op, other):
        if not isinstance(other, TernaryForm) or (other.degree, other.den) != (self.degree, self.den):
            raise PolyError(f"cannot combine {other!r} with a form of degree {self.degree} over {self.den}")
        rows = [list(map(op, r, s)) for r, s in zip(self.rows, other.rows)]
        return TernaryForm(self.degree, rows, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return TernaryForm(self.degree, [[c * other for c in row] for row in self.rows], self.den)
        if not isinstance(other, TernaryForm):
            return NotImplemented
        return TernaryForm.dot(((1, self, other),))

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs):
        """The form sum(c * a * b) over the (int c, form a, form b) of
        ``pairs``, a nonempty sequence whose products share one degree and
        one denominator, a.den * b.den, which is the result's.

        Pairs with c = 0 or a zero form drop out.  When the rest hold at most
        _LOOP_PAIRS_PER_SLOT pairs of nonzero terms per row product, a loop
        over those pairs adds them up; otherwise the row kernel does.
        """
        _, a, b = pairs[0]
        top, den = a.degree + b.degree, a.den * b.den
        live, work, rows = [], 0, 0
        for c, a, b in pairs:
            if a.degree + b.degree != top:
                raise PolyError(f"cannot add products of degrees {a.degree + b.degree} and {top}")
            if a.den * b.den != den:
                raise PolyError(f"cannot add products over {a.den * b.den} and {den}")
            term_pairs = a._stored() * b._stored()
            if c and term_pairs:
                live.append((c, a, b))
                work += term_pairs
                rows += (a.degree + 1) * (b.degree + 1)
        if work <= _LOOP_PAIRS_PER_SLOT * rows:
            out = [[0] * (top + 1 - i) for i in range(top + 1)]
            for c, a, b in live:
                others = list(b._nonzero())
                for i, j, x in a._nonzero():
                    x *= c
                    for k, l, y in others:
                        out[i + k][j + l] += x * y
            return TernaryForm(top, out, den)
        return TernaryForm(top, _row_kernel(live, top), den)

    def _stored(self):
        """The number of nonzero coefficients."""
        return _triangle(self.degree) - sum(map(list.count, self.rows, repeat(0)))

    def _bound(self):
        """The largest magnitude of a coefficient."""
        return max(max(map(max, self.rows)), -min(map(min, self.rows)))

    def _nonzero(self):
        """(i, j, c) for each nonzero coefficient c of x^i y^j z^k."""
        rows = self.rows
        return (
            (i, j, rows[i][j])
            for i in compress(range(len(rows)), map(any, rows))
            for j in compress(range(len(rows[i])), rows[i])
        )

    def partial(self, var):
        """Formal partial derivative with respect to "x", "y" or "z"."""
        d, rows = self.degree, self.rows
        if var == "x":
            rows = [[i * c for c in row] for i, row in enumerate(rows) if i]
        elif var == "y":
            rows = [list(map(mul, range(1, len(row)), row[1:])) for row in rows[:-1]]
        elif var == "z":
            rows = [list(map(mul, range(d - i, 0, -1), row)) for i, row in enumerate(rows[:-1])]
        else:
            raise UnknownVariable(f"variable {var!r} not among {XYZ}")
        return TernaryForm(d - 1, rows, self.den)

    def grad(self):
        return tuple(self.partial(v) for v in XYZ)

    def eval(self, point):
        """The exact value at an integer point (x, y, z)."""
        total = _rows_at(self.rows, self.degree, *point)
        return total if self.den == 1 else _ratio(total, self.den)

    def canonical_with_scale(self):
        """(canonical, scale) with self = scale * canonical, as
        ``MPoly.canonical_with_scale`` gives them for ``self.mpoly()``: the
        canonical form has coprime integer rows and a positive graded-lex
        leading entry, the last nonzero entry of the last nonzero row."""
        g = gcd(*chain.from_iterable(self.rows))
        if not g:
            return self, Fraction(0)
        if next(c for row in reversed(self.rows) for c in reversed(row) if c) < 0:
            g = -g
        rows = [[c // g for c in row] for row in self.rows]
        scale = g // self.den if g % self.den == 0 else Fraction(g, self.den)
        return TernaryForm(self.degree, rows), scale

    def __str__(self):
        """The text of ``self.mpoly()``: rows from x^degree down, each from
        its highest power of y down, is the graded-lex order."""
        d, den = self.degree, self.den
        xs, ys, zs = (_power_texts(v, d) for v in XYZ)
        pairs = (
            (c if den == 1 else _ratio(c, den), (xs[i] + ys[j] + zs[d - i - j])[:-1])
            for i in range(d, -1, -1)
            for j, c in zip(range(d - i, -1, -1), reversed(self.rows[i]))
            if c
        )
        return _terms_str(pairs) or "0"

    def __repr__(self):
        return f"TernaryForm({self.degree}: {self})"


# -- binary forms in (s, t) -------------------------------------------------
#
# A binary form of degree d is its dense list, entry i the coefficient of
# s^i t^(d-i).  The algorithms below see it ``_split``; the ``_u_*`` helpers
# work on the primitive int core.  Only functions that take or give an
# ``MPoly`` convert, on the way in (``_dense``) and out (``_form``).


def _split(u):
    """(core, scale, a, b) with the nonzero dense list u of a form equal to
    scale * s^a * t^b * sum core[i] s^i t^(n-i): neither s nor t divides the
    core, which is primitive with core[-1] > 0, so the scale carries the sign."""
    nonzero = [i for i, c in enumerate(u) if c]
    a, e = nonzero[0], nonzero[-1]
    core, scale = primitive_ints(u[a : e + 1], u[e])
    return core, scale, a, len(u) - 1 - e


def _dense(f: MPoly):
    """``_split`` of f's dense list; raises unless f is a nonzero
    homogeneous binary form."""
    if f.is_zero():
        raise ZeroFormError("zero form")
    d = f.homogeneous_degree()
    if len(f.variables) != 2:
        raise VariableSetMismatch(f"expected a binary form, got {f.variables}")
    return _split([f.terms.get((i, d - i), 0) for i in range(d + 1)])


def _form(u, a, b, variables) -> MPoly:
    """The MPoly s^a * t^b * sum u[i] s^i t^(n-i)."""
    n = len(u) - 1
    return MPoly._make(variables, {(i + a, n - i + b): c for i, c in enumerate(u)})


def _u_str(u, variables) -> str:
    """The text of ``_form(u, 0, 0, variables)``, written from the dense list:
    entry n down to 0 is the graded-lex order."""
    ss, ts = (_power_texts(v, len(u) - 1) for v in variables)
    monos = [(a + b)[:-1] for a, b in zip(reversed(ss), ts)]
    return _terms_str(compress(zip(reversed(u), monos), reversed(u))) or "0"


def _u_trim(u):
    while len(u) > 1 and not u[-1]:
        u.pop()
    return u


def _u_deriv(u):
    return [i * c for i, c in enumerate(u)][1:] or [0]


def _u_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] -= c
    return _u_trim(out)


def _u_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _u_at(u, p, q):
    """sum u[i] p^i q^(n-i): the form at the integer point (p, q), by Horner."""
    acc, qpow = 0, 1
    for c in reversed(u):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def _u_shift(u, a, b):
    """b^n u(v + a/b) in v, for u of degree n: the Taylor shift by the
    rational a/b, b > 0, whose entry e is sum_i u[i] C(i, e) a^(i-e) b^(n-i+e)."""
    n = len(u) - 1
    return [
        sum(u[i] * comb(i, e) * a ** (i - e) * b ** (n - i + e) for i in range(e, n + 1))
        for e in range(n + 1)
    ]


def _u_exact_div(a, b):
    """Quotient a / b in the integers, for a trimmed nonzero primitive b.

    By Gauss's lemma every quotient coefficient is an integer when b divides
    a, so a step that does not divide evenly, or a nonzero remainder, raises
    ExactDivisionError.
    """
    n, lead = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(len(a) - n, 1)
    for k in range(len(a) - 1 - n, -1, -1):
        c, rem = divmod(r[k + n], lead)
        if rem:
            raise ExactDivisionError("univariate division not exact")
        if c:
            q[k] = c
            for i in range(n):
                r[k + i] -= c * b[i]
    if any(r[:n]):
        raise ExactDivisionError("univariate division not exact")
    return q


# ``_u_gcd`` doubles its digit width until a width past _GCD_MAX_BITS bits
# has failed, then gives up.  110503 is the exponent of the largest Mersenne
# prime of the modular gcd it replaced, so no pair that gcd answered is
# refused.
_GCD_MAX_BITS = 110503


def _u_gcd(a, b):
    """Primitive gcd, positive leading coefficient, of two trimmed lists, not
    both zero: the heuristic gcd of Char, Geddes and Gonnet (1989) on the
    packed digits of ``_pack`` and ``_digits``.

    A nonzero constant operand leaves gcd 1.  Otherwise let m be the largest
    |coefficient| of either operand, w = ``digit_width``(m + 1) and
    xi = 2^(8w), so xi > 2m + 2.  Every root z of a nonzero operand u has
    |z| < 1 + m (Cauchy), so u(xi) != 0, and |u(xi)| < xi^len(u) / 2.  Hence
    gamma = gcd(a(xi), b(xi)) is nonzero and its len(u) + 1 signed base-xi
    digits G, u the shorter nonzero operand, hold it: G(xi) = gamma.  The gcd
    g has g(xi) dividing gamma, and a nonconstant g has
    |g(xi)| > (xi - 1 - m)^deg g >= xi/2, so 2 gamma < xi (one digit) leaves
    g = 1.  Otherwise pp(G), the primitive part of G with a positive lead, is
    returned once it divides both operands (``_u_exact_div``), for then it is
    g: write g = pp(G) h; h(xi) divides cont(G) < xi/2, and a nonconstant h
    has |h(xi)| > xi/2 as g does, so h = +-1.  A pp(G) that does not divide
    both doubles w; once a width past _GCD_MAX_BITS bits has failed,
    IntegerTooLong is raised.
    """
    if len(a) == 1 and a[0] or len(b) == 1 and b[0]:
        return [1]
    w = digit_width(max(map(abs, chain(a, b))) + 1)
    k = (min(len(a), len(b)) if a[-1] and b[-1] else max(len(a), len(b))) + 1
    while True:
        gamma = gcd(_pack(a, w), _pack(b, w))
        if gamma.bit_length() < 8 * w:
            return [1]
        g = _u_trim(_digits(gamma, w, k))
        g = primitive_ints(g, g[-1])[0]
        try:
            _u_exact_div(a, g)
            _u_exact_div(b, g)
            return g
        except ExactDivisionError:
            if 8 * w > _GCD_MAX_BITS:
                raise IntegerTooLong("binary-form gcd: no digit width up to the cap reads the gcd back") from None
        w *= 2


def _u_squarefree(u):
    """Yun's squarefree split (Yun 1976) of a nonconstant primitive u with
    positive leading coefficient.

    Returns [(factor, multiplicity)]: primitive factors with positive leading
    coefficients, squarefree and pairwise coprime, whose product is u.
    """
    d1 = _u_deriv(u)
    g = _u_gcd(u, d1)
    if len(g) == 1:
        return [(u, 1)]
    c = _u_exact_div(u, g)
    d = _u_sub(_u_exact_div(d1, g), _u_deriv(c))
    out = []
    i = 1
    while len(c) > 1:
        p = _u_gcd(c, d)
        if len(p) > 1:
            out.append((p, i))
        c = _u_exact_div(c, p)
        d = _u_sub(_u_exact_div(d, p), _u_deriv(c))
        i += 1
    return out


# the primes of ``_rational_roots``, tried in turn.  u is evaluated at every
# residue of each prime tried, so the primes are small.  On the 32
# squarefree factors of the seed-1 and seed-11 ``wronski`` params (degree 17
# and 18) that took 5.3 ms in all, where gcd(u, x^p - x) and equal-degree
# splitting took 10.5 ms and trial division 100 ms; on factors of degree 29
# to 114 (height-3 params, d = 5..12) evaluation was as fast or faster again
# (best of 5, CPython 3.11).  2 and 3 divide 34 of the 50 leading
# coefficients of those factors, 5 and 7 about 15, so the list starts at 11.
_ROOT_PRIMES = (
    11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
    89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163,
    167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241,
    251,
)


def _u_at_mod(u, x, m):
    """sum u[i] x^i modulo m, by Horner."""
    acc = 0
    for c in reversed(u):
        acc = (acc * x + c) % m
    return acc


def _simple_roots_mod(u, du, p):
    """The roots of u modulo the prime p, or None when u' = du vanishes at one
    of them: that root is then a multiple root of u mod p."""
    roots = [r for r in range(p) if not _u_at_mod(u, r, p)]
    return None if any(not _u_at_mod(du, r, p) for r in roots) else roots


def _rational_roots(u):
    """Roots of a squarefree primitive u with u[0] != 0, sorted.

    Each root x = a/b of u(x) = sum u[i] x^i is returned as the coprime pair
    (a, b) with a > 0: the parameter (a : b) in ``projective_ints`` form.

    The roots come from one prime p of ``_ROOT_PRIMES`` (the linear-factor
    case of Zassenhaus; Loos, SIAM J. Comput. 1983): the first one that does
    not divide lead = u[-1] and at which every root r of u mod p has
    u'(r) != 0 mod p (``_simple_roots_mod``).  No rational root can be
    missed: b divides lead and p does not, so a/b is a root of u mod p, and
    it is a simple one, so Newton's iteration lifts it to the one p-adic root
    above it.  Every root of u mod p is lifted until the modulus m exceeds
    2 |lead| B, B = 1 + max |u[i] / lead| the Cauchy bound.  Then
    |lead * a/b| < |lead| B < m/2, so the integer (lead / b) a is the
    symmetric residue of lead * root mod m, and a/b is that residue over
    lead.  A candidate is kept only if it is an exact root (``_u_at``).
    Raises IntegerTooLong when u has a multiple root modulo every prime of the
    list: every one of them then divides lead * disc u, so that is over 2^327.
    """
    if len(u) == 2:
        return [projective_ints((-u[0], u[1]))]
    lead, du = u[-1], _u_deriv(u)
    for p in _ROOT_PRIMES:
        if lead % p and (residues := _simple_roots_mod(u, du, p)) is not None:
            break
    else:
        raise IntegerTooLong("rational roots: the form has a multiple root modulo every prime of the list")
    bound = 2 * (abs(lead) + max(map(abs, u[:-1])))
    roots = []
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _u_at_mod(u, r, m) * pow(_u_at_mod(du, r, m), -1, m)) % m
        s = lead * r % m
        a, b = projective_ints((s - m if s > m // 2 else s, lead))
        if _u_at(u, a, b) == 0:
            roots.append((a, b))
    return sorted(roots)


def binaryform_gcd(f, g):
    """Gcd of two ``_split`` forms, as a ``_split`` form of scale 1."""
    return _u_gcd(f[0], g[0]), 1, min(f[2], g[2]), min(f[3], g[3])


def _squarefree(u):
    """``_u_squarefree`` of a primitive u with u[-1] > 0, none when u is
    constant.  Raises AssertionError if the factors do not rebuild u."""
    split = _u_squarefree(u) if len(u) > 1 else []
    prod = [1]
    for p, m in split:
        for _ in range(m):
            prod = _u_mul(prod, p)
    if prod != u:
        raise AssertionError("squarefree factors do not rebuild the form")
    return split


def squarefree_decomp(f: MPoly):
    """Split a nonzero binary form as content * prod(factor_i ** mult_i).

    Factors are primitive with positive leading coefficient, squarefree and
    pairwise coprime, listed in a deterministic order (degree, then canonical
    string); the rational content carries the sign.  Raises AssertionError
    if the factors do not rebuild the form exactly.
    """
    u, content, a, b = _dense(f)
    factors = [(MPoly.variable(f.variables, v), m) for v, m in zip(f.variables, (a, b)) if m]
    factors += [(_form(p, 0, 0, f.variables), m) for p, m in _squarefree(u)]
    factors.sort(key=lambda fm: (fm[0].degree(), str(fm[0])))
    return Fraction(content), factors


def split_linear_factors(u):
    """Rational linear factors of a squarefree primitive u whose first and
    last entries are nonzero, so that neither s nor t divides it.

    Returns (roots, rest).  ``roots`` lists each rational zero of u as a
    ``projective_ints`` pair (s0, t0), sorted; ``rest`` is u over the
    product of their linear forms, primitive with a positive last entry, or
    None when that quotient is constant.
    """
    roots = _rational_roots(u) if len(u) > 1 else []
    for p, q in roots:
        u = _u_exact_div(u, [-p, q])
    if len(u) == 1:
        return roots, None
    return roots, u if u[-1] > 0 else [-c for c in u]


def projective_ints(values):
    """Coprime integer coordinates of a projective point given by rationals,
    first nonzero coordinate positive."""
    first = next((v for v in values if v), 0)
    if not first:
        raise PolyError(f"({', '.join('0' * len(values))}) is not a projective point")
    return tuple(primitive_ints(values, first)[0])


def linear_root_form(at) -> MPoly:
    """Primitive linear form vanishing at the parameter (s0 : t0)."""
    cs, ct = projective_ints((Fraction(at[1]), -Fraction(at[0])))
    return MPoly._make(ST, {(1, 0): cs, (0, 1): ct})


def _root_order(split, at) -> int:
    """Multiplicity of the linear form through (s0 : t0) in the form of the
    ``_split`` form ``split``.

    With (s0 : t0) = (p : q) in ``projective_ints`` form, this counts exact
    integer divisions of the core by q*s - p*t; at (1 : 0) and (0 : 1) it is
    the split-off power of t or s.
    """
    u, _, a, b = split
    p, q = projective_ints((Fraction(at[0]), Fraction(at[1])))
    if not q:
        return b
    if not p:
        return a
    k = 0
    try:
        while True:
            u = _u_exact_div(u, [-p, q])
            k += 1
    except ExactDivisionError:
        return k


def linear_factor_orders(f: MPoly, at) -> int:
    """Multiplicity of the linear form through (s0 : t0) in f, by
    ``_root_order``; raises InfiniteOrder on the zero form."""
    if f.is_zero():
        raise InfiniteOrder("the zero form vanishes to infinite order")
    return _root_order(_dense(f), at)
