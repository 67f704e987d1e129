"""Truncated power series in one local parameter.

A ``TruncSeries`` stores exact rational coefficients for exponents below its
truncation order; everything from the truncation order on is unknown, not
zero.  Arithmetic propagates the truncation pessimistically, so a series
never claims knowledge it does not have.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import _is_int, _norm, _terms_str, kronecker_product, worth_packing


class SeriesError(ValueError):
    pass


class TruncSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc: int):
        if not _is_int(trunc) or trunc < 1:
            raise SeriesError(f"truncation order must be a positive integer, got {trunc!r}")
        clean = {}
        for e, c in (coeffs or {}).items():
            if not _is_int(e):
                raise SeriesError(f"exponent must be an integer, got {e!r}")
            if e < 0:
                raise SeriesError(f"negative exponent {e}")
            if e >= trunc:
                raise SeriesError(
                    f"exponent {e} is not below the truncation order {trunc}"
                )
            c = _norm(c if isinstance(c, (int, Fraction)) else Fraction(c))
            if c:
                clean[e] = c
        self.coeffs = clean
        self.trunc = trunc

    @classmethod
    def _make(cls, coeffs, trunc):
        # fast path: the caller keeps only nonzero coefficients below trunc
        obj = object.__new__(cls)
        obj.coeffs = coeffs
        obj.trunc = trunc
        return obj

    def valuation(self):
        """Smallest known exponent, or None when only O(t^trunc) is known."""
        return min(self.coeffs) if self.coeffs else None

    def coefficient(self, e: int):
        if e >= self.trunc:
            raise SeriesError(f"coefficient of t^{e} is beyond the truncation {self.trunc}")
        return self.coeffs.get(e, 0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries._make({0: _norm(other)}, self.trunc)
        trunc = min(self.trunc, other.trunc)
        out = {e: c for e, c in self.coeffs.items() if e < trunc}
        for e, c in other.coeffs.items():
            if e < trunc:
                out[e] = out.get(e, 0) + c
        return TruncSeries._make({e: _norm(c) for e, c in out.items() if c}, trunc)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._make({e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries._make({0: _norm(other)}, self.trunc)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _norm(other)
            if not c:
                return TruncSeries._make({}, self.trunc)
            return TruncSeries._make(
                {e: _norm(k * c) for e, k in self.coeffs.items()}, self.trunc
            )
        a, b = self.coeffs, other.coeffs
        # unknown tails limit the product: a tail times the other factor's
        # lowest term is the first coefficient we cannot determine
        trunc = min(
            self.trunc + (min(b) if b else other.trunc),
            other.trunc + (min(a) if a else self.trunc),
        )
        out = kronecker_product(a, b, trunc) if worth_packing(len(a), len(b)) else None
        if out is None:
            acc = {}
            get = acc.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    if e < trunc:
                        acc[e] = get(e, 0) + c1 * c2
            out = {e: _norm(c) for e, c in acc.items() if c}
        return TruncSeries._make(out, trunc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self):
        terms = _terms_str(
            (self.coeffs[e], "" if e == 0 else "t" if e == 1 else f"t^{e}")
            for e in sorted(self.coeffs)
        )
        return f"{terms} + O(t^{self.trunc})" if terms else f"O(t^{self.trunc})"

    def __repr__(self):
        return f"TruncSeries({self})"
