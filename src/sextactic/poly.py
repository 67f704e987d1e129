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
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, mul, sub

XYZ = ("x", "y", "z")
ST = ("s", "t")
# the conic monomial basis, in the fixed order x^2, y^2, z^2, yz, xz, xy;
# a symmetric 3x3 matrix (a h g; h b f; g f c) is the 6-vector
# (a, b, c, f, g, h) in the same order
CONIC_BASIS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def veronese(u, v, w):
    """The conic monomials of (u, v, w) in CONIC_BASIS order; any ring elements."""
    return (u * u, v * v, w * w, v * w, u * w, u * v)


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

# The kernel packs two operands only when their dense slots number at most
# _SLOTS_PER_TERM times their stored terms, so its memory stays linear in the
# input however sparse the operands are; ternary forms become
# ``TernaryForm``s only when their triangles pass the same test
# (``fills_triangles``).
_SLOTS_PER_TERM = 4

# _pack runs Horner up to _HORNER_MAX_DIGITS + 64 // w digits of w bytes.
# Measured on CPython 3.11, Horner time over bytes time is near 1 at about
# 96, 64, 48, 40 and 32 digits of 1, 2, 4, 8 and 32 bytes; at 120 digits of
# 8 to 32 bytes it is 2.8 to 4, and at 1000 digits 40.
_HORNER_MAX_DIGITS = 32

# A TernaryForm product of degree D whose operands have at most
# _LOOP_PAIRS_PER_SLOT * (D + 1)^2 pairs of nonzero terms takes a loop over
# those pairs; the kernel packs and reads back about 2 (D + 1)^2 digits
# whatever the operands hold.  Measured on CPython 3.11, loop time over
# kernel time for dense forms of degrees (D1, D2), with 8-bit coefficients:
# 0.71 at (0, 3), 0.80 at (1, 1), 0.91 at (2, 4), 0.88 at (3, 3), 1.18 at
# (3, 4), 1.25 at (4, 4) and 2.06 at (6, 6); with 40-bit coefficients, whose
# product digits are wider than a machine word: 0.50, 0.52, 0.69, 0.85,
# 0.73, 0.76 and 1.06.
_LOOP_PAIRS_PER_SLOT = 2

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


def _bias(w, k):
    """The integer of k fields of w bytes, each holding 2^(8w - 1)."""
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
    a multiple of 2^(8wk), which the mask drops.  A field of a machine word
    size is read as c in two's complement once its top bit is flipped.  A
    wider one is spread over m 8-byte limbs, the last of which carries the
    bias, and put back together from them.
    """
    total = (n + _bias(w, k)) & ((1 << (8 * w * k)) - 1)
    raw = bytearray(total.to_bytes(w * k, "little"))
    if w in _WORDS:
        raw[w - 1 :: w] = raw[w - 1 :: w].translate(_FLIP)
        return memoryview(raw).cast(_WORDS[w]).tolist()
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


def form_at(f, w):
    """The integer f(2^(8w), 1) of a binary form f whose integer coefficients
    are below 2^(8w - 1) in magnitude."""
    if not f.terms:
        return 0
    u = [0] * (max(e[0] for e in f.terms) + 1)
    for e, c in f.terms.items():
        u[e[0]] = c
    return _pack(u, w)


def read_form(n, w, degree):
    """The binary form in (s, t) of the given degree whose value at
    (2^(8w), 1) is n, for coefficients below 2^(8w - 1) in magnitude: the
    inverse of ``form_at``."""
    return _form(_digits(n, w, degree + 1), 0, 0, ST)


def kronecker_product(a, b, end=None):
    """Nonzero coefficients of the product of two nonempty slot -> coefficient
    dicts, keyed by slot in ascending order and only below ``end`` (above
    min(a) + min(b)) when given; None when the operands are too sparse to
    pack, with over _SLOTS_PER_TERM dense slots per stored term.

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
    if na + nb > _SLOTS_PER_TERM * (len(a) + len(b)):
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
    of the two operands' monomial cofactors over their common denominators,
    when the triangles of the cofactors pass ``fills_triangles``.  Either
    way the terms come in ascending order of their exponents.
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
    a, b = _cofactor(a, ma), _cofactor(b, mb)
    den_a, den_b = _denominator(a.values()), _denominator(b.values())
    out = (TernaryForm.of(a, da, den_a) * TernaryForm.of(b, db, den_b)).terms(den_a * den_b)
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
    enough to keep them as ``TernaryForm``s: their triangles have at most
    _SLOTS_PER_TERM entries per stored term, so the dense lists stay linear
    in the terms."""
    return sum(map(_triangle, degrees)) <= _SLOTS_PER_TERM * stored


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
        terms = None
        if len(a) * len(b) >= _PACK_MIN_PAIRS and min(len(a), len(b)) >= _PACK_MIN_TERMS:
            terms = _packed_mul(a, b, len(self.variables))
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
        """Evaluate at a point given as one rational per variable.

        The sum is taken in the integers: with the point as nums / den and
        the coefficients over their common denominator, each term of total
        degree k is scaled by den^(top - k), and one division at the end
        gives the value, an int when integral.
        """
        values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
        if len(values) != len(self.variables):
            raise VariableSetMismatch(
                f"expected {len(self.variables)} values, got {len(values)}"
            )
        den = lcm(*[v.denominator for v in values])
        nums = [v.numerator * (den // v.denominator) for v in values]
        cden = lcm(*[c.denominator for c in self.terms.values()])
        top = max(map(sum, self.terms), default=0)
        total = 0
        for expo, c in self.terms.items():
            term = c.numerator * (cden // c.denominator)
            k = top
            for n, e in zip(nums, expo):
                if e:
                    term *= n**e
                    k -= e
            total += term * den**k if k else term
        scale = cden * den**top
        if total % scale:
            return Fraction(total, scale)
        return total // scale

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
        if not self.terms:
            return "0"
        parts = []
        for expo, c in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, expo)
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

    def __repr__(self):
        return f"MPoly({'/'.join(self.variables)}: {self})"


def conic(six) -> MPoly:
    """The conic sum six[i] * CONIC_BASIS[i] in (x, y, z), for rational six;
    dual to ``veronese``: conic(six) at p is six paired with veronese(*p)."""
    return MPoly(XYZ, dict(zip(CONIC_BASIS, six)))


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
        """Determinant of a square matrix: Laplace expansion along the top
        row, the minors sharing their lower sub-minors (``laplace_minors``)."""
        if self.rows != self.cols:
            raise NonSquareMatrix(f"{self.rows}x{self.cols} matrix")
        top, *rest = self.entries
        acc = MPoly.zero(self.variables)
        for e, minor in zip(top, laplace_minors(rest)):
            if e:
                acc = acc + e * minor
        return acc


def laplace_minors(rows):
    """Signed minors of a k x (k+1) matrix along a virtual top row.

    Entry j is (-1)^j times the determinant of ``rows`` with column j
    deleted, so sum(c[j] * minors[j]) is the determinant of [c] + rows.
    Entries may be MPoly or int/Fraction; a zero entry is skipped by
    truthiness.  All k+1 minors share one memo of their lower sub-minors.
    """
    k = len(rows)
    if not k:
        return [1]
    zero = rows[0][0] * 0
    memo = {}

    def minor(cols):
        row = rows[k - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        acc = zero
        for idx, c in enumerate(cols):
            e = row[c]
            if not e:
                continue
            sub = e * minor(cols[:idx] + cols[idx + 1 :])
            acc = acc + sub if idx % 2 == 0 else acc - sub
        memo[cols] = acc
        return acc

    full = tuple(range(k + 1))
    minors = []
    for j in full:
        m = minor(full[:j] + full[j + 1 :])
        minors.append(m if j % 2 == 0 else -m)
    return minors


# -- dense ternary forms in (x, y, z) ------------------------------------------


class TernaryForm:
    """Dense homogeneous form in (x, y, z) with integer coefficients.

    ``rows[i][j]`` is the coefficient of x^i y^j z^(degree - i - j), so row i
    has degree - i + 1 entries; a zero form keeps its degree.  Sums, integer
    multiples and partials are list operations.  A product of forms of
    degrees D1 and D2 is one Kronecker multiply (``_pack``, ``_digits``): with
    R = D1 + D2 + 1, the coefficient of x^i y^j z^k sits in slot i * R + j,
    and j < R keeps every row of the product clear of the next.  Operands
    with few pairs of nonzero terms (``_LOOP_PAIRS_PER_SLOT``) loop over
    those pairs instead.
    """

    __slots__ = ("degree", "rows")

    def __init__(self, degree, rows):
        self.degree = degree
        self.rows = rows

    @classmethod
    def of(cls, terms, degree, scale=1):
        """The form scale * sum(c * x^i y^j z^k) of a term dict whose exponents
        all sum to ``degree``; ``scale`` must clear every denominator."""
        rows = [[0] * (degree + 1 - i) for i in range(degree + 1)]
        for (i, j, k), c in terms.items():
            if i + j + k != degree:
                raise NotHomogeneous(f"a term of degree {i + j + k} in a form of degree {degree}")
            rows[i][j] = c.numerator * (scale // c.denominator)
        return cls(degree, rows)

    def terms(self, divisor=1):
        """The term dict of self / divisor, in ascending order of exponents."""
        d = self.degree
        out = {}
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c:
                    if divisor != 1:
                        c = c // divisor if c % divisor == 0 else Fraction(c, divisor)
                    out[(i, j, d - i - j)] = c
        return out

    def mpoly(self, divisor=1) -> MPoly:
        """The MPoly self / divisor in (x, y, z), for a positive int divisor."""
        return MPoly._make(XYZ, self.terms(divisor))

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def __add__(self, other):
        self._check_degree(other)
        return TernaryForm(self.degree, [list(map(add, r, s)) for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check_degree(other)
        return TernaryForm(self.degree, [list(map(sub, r, s)) for r, s in zip(self.rows, other.rows)])

    def _check_degree(self, other):
        if not isinstance(other, TernaryForm) or other.degree != self.degree:
            raise PolyError(f"cannot combine {other!r} with a ternary form of degree {self.degree}")

    def __mul__(self, other):
        if isinstance(other, int):
            return TernaryForm(self.degree, [[c * other for c in row] for row in self.rows])
        if not isinstance(other, TernaryForm):
            return NotImplemented
        top = self.degree + other.degree
        r = top + 1
        if self._stored() * other._stored() <= _LOOP_PAIRS_PER_SLOT * r * r:
            out = [[0] * (r - i) for i in range(r)]
            others = list(other._nonzero())
            for i, j, c in self._nonzero():
                for k, l, e in others:
                    out[i + k][j + l] += c * e
            return TernaryForm(top, out)
        u, v = self._padded(r), other._padded(r)
        bound = max(max(u), -min(u)) * max(max(v), -min(v))
        # a coefficient of the product sums at most the terms of the
        # smaller-degree operand
        w = digit_width(bound * _triangle(min(self.degree, other.degree)))
        slots = _digits(_pack(u, w) * _pack(v, w), w, top * r + 1)
        return TernaryForm(top, [slots[i * r : (i + 1) * r - i] for i in range(r)])

    __rmul__ = __mul__

    def _stored(self):
        """The number of nonzero coefficients."""
        return _triangle(self.degree) - sum(map(list.count, self.rows, repeat(0)))

    def _nonzero(self):
        """(i, j, c) for each nonzero coefficient c of x^i y^j z^k."""
        rows = self.rows
        return (
            (i, j, rows[i][j])
            for i in compress(range(len(rows)), map(any, rows))
            for j in compress(range(len(rows[i])), rows[i])
        )

    def _padded(self, r):
        """The rows end to end, each padded with zeros to r entries."""
        u = []
        pad = [0] * r
        for row in self.rows:
            u += row
            u += pad[len(row) :]
        return u

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
        return TernaryForm(d - 1, rows)

    def grad(self):
        return tuple(self.partial(v) for v in XYZ)

    def eval(self, point):
        """The value at an integer point (x, y, z): Horner in y and z along
        each row, then in x over the rows."""
        x, y, z = point
        d = self.degree
        zpow = [1]
        for _ in range(d):
            zpow.append(zpow[-1] * z)
        total = 0
        for i in range(d, -1, -1):
            row, n = self.rows[i], d - i
            acc = 0
            for j in range(n, -1, -1):
                acc = acc * y + row[j] * zpow[n - j]
            total = total * x + acc
        return total

    def __repr__(self):
        return f"TernaryForm({self.degree}: {self.mpoly()})"


# -- binary forms in (s, t) -------------------------------------------------
#
# The algorithms below see one representation of a form s^a * t^b * h: the
# dense int list u with u[i] the coefficient of s^i t^(n-i) in h, where
# neither s nor t divides h.  The ``_u_*`` helpers work in the integers; the
# public functions convert once on the way in (``_dense``) and out (``_form``).


def _dense(f: MPoly):
    """(u, scale, a, b) with f = scale * s^a * t^b * sum u[i] s^i t^(n-i).

    u is primitive with u[-1] > 0, so the rational scale carries the sign.
    Raises unless f is a nonzero homogeneous binary form.
    """
    if f.is_zero():
        raise ZeroFormError("zero form")
    d = f.homogeneous_degree()
    if len(f.variables) != 2:
        raise VariableSetMismatch(f"expected a binary form, got {f.variables}")
    a = min(e[0] for e in f.terms)
    b = min(e[1] for e in f.terms)
    u = [0] * (d - a - b + 1)
    for (es, _et), c in f.terms.items():
        u[es - a] = c
    u, scale = primitive_ints(u, u[-1])
    return u, scale, a, b


def _form(u, a, b, variables) -> MPoly:
    """The MPoly s^a * t^b * sum u[i] s^i t^(n-i)."""
    n = len(u) - 1
    return MPoly._make(variables, {(i + a, n - i + b): c for i, c in enumerate(u)})


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


# the primes of the coprimality certificate in ``_u_gcd``, tried in turn.  Below
# 2^30 a residue is one CPython digit: against p = 2^61 - 1 the certificate
# took a fifth less time at degree 4 and half the time at degree 114
# (CPython 3.11).
_GCD_PRIMES = (2**30 - 35, 2**30 - 41, 2**30 - 83)


def _u_coprime_mod_p(a, b):
    """True when two trimmed lists are certified coprime: gcd(a mod p, b mod p)
    is a nonzero constant for a prime p of _GCD_PRIMES that does not divide
    the leading coefficient of one of them.

    A nonconstant common factor h over the integers divides both modulo p,
    and its leading coefficient divides that leading coefficient, so h mod p
    keeps its degree and the gcd mod p is not constant.  False means no
    certificate, not a common factor: the prime may be unlucky.
    """
    p = next((p for p in _GCD_PRIMES if a[-1] % p or b[-1] % p), None)
    if p is None:
        return False
    a = _u_trim([c % p for c in a])
    b = _u_trim([c % p for c in b])
    if len(a) < len(b):
        a, b = b, a
    while b[-1]:
        # a <- a mod b over F_p, with b made monic, then swap
        n = len(b) - 1
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        r = list(a)
        for k in range(len(a) - 1 - n, -1, -1):
            c = r.pop()
            if c:
                r[k:] = [(x - c * y) % p for x, y in zip(r[k:], b)]
        a, b = b, _u_trim(r or [0])
    return len(a) == 1


def _u_gcd(a, b):
    """Primitive gcd, positive leading coefficient, of two trimmed lists.

    Coprime operands, the common case, are certified by ``_u_coprime_mod_p``;
    the others go through ``_u_prs_gcd``.
    """
    if _u_coprime_mod_p(a, b):
        return [1]
    return _u_prs_gcd(a, b)


def _u_prs_gcd(a, b):
    """Primitive gcd, positive leading coefficient, of two trimmed lists.

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


def _divisors(n: int):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _rational_roots(u):
    """Roots of a squarefree primitive u with u[0] != 0, sorted.

    Each root x = p/q of u(x) = sum u[i] x^i is returned as the coprime pair
    (p, q) with p > 0: the parameter (p : q) in ``projective_ints`` form.
    """
    if len(u) == 2:
        return [projective_ints((-u[0], u[1]))]
    roots = []
    for p in _divisors(abs(u[0])):
        for q in _divisors(abs(u[-1])):
            if gcd(p, q) > 1:
                continue
            for den in (q, -q):
                # den^n * u(p/den) = sum u_i p^i den^(n-i), by Horner in integers
                acc, dpow = 0, 1
                for c in reversed(u):
                    acc = acc * p + c * dpow
                    dpow *= den
                if acc == 0:
                    roots.append((p, den))
    return sorted(roots)


def binaryform_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Gcd of two nonzero binary forms, primitive with positive leading term."""
    uf, _, af, bf = _dense(f)
    ug, _, ag, bg = _dense(g)
    return _form(_u_gcd(uf, ug), min(af, ag), min(bf, bg), f.variables)


def squarefree_decomp(f: MPoly):
    """Split a nonzero binary form as content * prod(factor_i ** mult_i).

    Factors are primitive with positive leading coefficient, squarefree and
    pairwise coprime, listed in a deterministic order (degree, then canonical
    string); the rational content carries the sign.  Raises AssertionError
    if the factors do not rebuild the form exactly.
    """
    u, content, a, b = _dense(f)
    variables = f.variables
    factors = []
    if a:
        factors.append((MPoly.variable(variables, variables[0]), a))
    if b:
        factors.append((MPoly.variable(variables, variables[1]), b))
    if len(u) > 1:
        split = _u_squarefree(u)
        prod = [1]
        for p, m in split:
            for _ in range(m):
                prod = _u_mul(prod, p)
        if prod != u:
            raise AssertionError("squarefree factors do not rebuild the form")
        factors.extend((_form(p, 0, 0, variables), m) for p, m in split)
    factors.sort(key=lambda fm: (fm[0].degree(), str(fm[0])))
    return Fraction(content), factors


def split_linear_factors(f: MPoly):
    """Rational linear factors of a squarefree binary form.

    Returns (roots, rest).  ``roots`` lists each rational zero of f as a
    ``projective_ints`` pair (s0, t0), sorted, with its linear form from
    ``linear_root_form``; ``rest`` is f over the product of those forms in
    canonical form, or None when that quotient is constant.
    """
    u, _, a, b = _dense(f)
    roots = [(0, 1)] * (a > 0) + [(1, 0)] * (b > 0)
    if len(u) > 1:
        found = _rational_roots(u)
        for p, q in found:
            u = _u_exact_div(u, [-p, q])
        roots = sorted(roots + found)
    rest = None
    if len(u) > 1:
        rest = _form(u if u[-1] > 0 else [-c for c in u], 0, 0, f.variables)
    return [(r, linear_root_form(r, f.variables)) for r in roots], rest


def projective_ints(values):
    """Coprime integer coordinates of a projective point given by rationals,
    first nonzero coordinate positive."""
    first = next((v for v in values if v), 0)
    if not first:
        raise PolyError(f"({', '.join('0' * len(values))}) is not a projective point")
    return tuple(primitive_ints(values, first)[0])


def linear_root_form(at, variables=ST) -> MPoly:
    """Primitive linear form vanishing at the parameter (s0 : t0)."""
    cs, ct = projective_ints((Fraction(at[1]), -Fraction(at[0])))
    return MPoly._make(tuple(variables), {(1, 0): cs, (0, 1): ct})


def linear_factor_orders(f: MPoly, at) -> int:
    """Multiplicity of the linear form through (s0 : t0) in f.

    With (s0 : t0) = (p : q) in ``projective_ints`` form, this counts exact
    integer divisions of the dense form by q*s - p*t; at (1 : 0) and (0 : 1)
    it is the split-off power of t or s.  Raises InfiniteOrder on the zero
    form, whose order of vanishing is unbounded.
    """
    if f.is_zero():
        raise InfiniteOrder("the zero form vanishes to infinite order")
    u, _, a, b = _dense(f)
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
