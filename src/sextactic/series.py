"""Truncated power series in one local parameter.

A ``TruncSeries`` stores exact rational coefficients for exponents below its
truncation order; everything from the truncation order on is unknown, not
zero.  Arithmetic propagates the truncation pessimistically, so a series
never claims knowledge it does not have.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import _coeff_str, _norm, kronecker_product

# A product of two series runs the plain double loop up to _LOOP_MAX_PAIRS
# term pairs, or when the operands are too sparse for the kernel (more than
# poly._SLOTS_PER_TERM dense slots per stored term); otherwise the exponents
# are the slots of one ``poly.kronecker_product``.
# Measured on CPython 3.11 (BENCH_7.json), loop time over packed time for
# dense operands with numerators up to 3: with Fraction coefficients 0.7 at
# 1x1 terms, 1.4 at 2x2, 3.1 at 4x4 and 50 at 40x40; with int coefficients
# 0.16 at 2x2, 0.9 at 8x8 and 4.1 at 40x40.  Four pairs splits the two
# crossovers.  Spread out, 40x40 int operands fall to 1.75 at a span of 4x
# their term count and 0.9 at 8x, while the dense slots grow with the span.
_LOOP_MAX_PAIRS = 4


class SeriesError(ValueError):
    pass


class TruncSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc: int):
        if not isinstance(trunc, int) or trunc < 1:
            raise SeriesError(f"truncation order must be a positive integer, got {trunc!r}")
        clean = {}
        for e, c in (coeffs or {}).items():
            e = int(e)
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
        obj = object.__new__(cls)
        obj.coeffs = {e: c for e, c in coeffs.items() if c}
        obj.trunc = trunc
        return obj

    def valuation(self):
        """Smallest known exponent, or None when only O(t^trunc) is known."""
        return min(self.coeffs) if self.coeffs else None

    def coefficient(self, e: int):
        if e >= self.trunc:
            raise SeriesError(f"coefficient of t^{e} is beyond the truncation {self.trunc}")
        return self.coeffs.get(e, 0)

    def _val_bound(self) -> int:
        # lower bound on the valuation, usable even when nothing is stored
        v = self.valuation()
        return self.trunc if v is None else v

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries._make({0: _norm(other)}, self.trunc)
        trunc = min(self.trunc, other.trunc)
        out = {e: c for e, c in self.coeffs.items() if e < trunc}
        for e, c in other.coeffs.items():
            if e < trunc:
                out[e] = out.get(e, 0) + c
        return TruncSeries._make(out, trunc)

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
        # unknown tails limit the product: a tail times the other factor's
        # lowest term is the first coefficient we cannot determine
        trunc = min(
            self.trunc + other._val_bound(),
            other.trunc + self._val_bound(),
        )
        a, b = self.coeffs, other.coeffs
        out = kronecker_product(a, b, trunc) if len(a) * len(b) > _LOOP_MAX_PAIRS else None
        if out is None:
            out = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    if e < trunc:
                        out[e] = out.get(e, 0) + c1 * c2
        return TruncSeries._make(out, trunc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self):
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
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
        parts.append(f"+ O(t^{self.trunc})" if parts else f"O(t^{self.trunc})")
        return " ".join(parts)

    def __repr__(self):
        return f"TruncSeries({self})"
