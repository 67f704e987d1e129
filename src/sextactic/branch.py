"""Local analysis at a unibranched curve point.

A branch is given by three truncated power series in a local parameter.  The
central computation reduces the pulled-back conic monomial basis to six
series with pairwise distinct valuations; those valuations are the orders a
conic can attain against the branch, and they determine the conic-contact
weight of the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

# CONIC_BASIS is re-exported: the ladder's witnesses are written in its order
from .poly import CONIC_BASIS, MPoly, conic, veronese
from .series import TruncSeries


class BranchError(ValueError):
    pass


class NonPrimitiveBranch(BranchError):
    pass


class TruncationInsufficient(BranchError):
    """Raised when distinct valuations cannot be resolved within the data.

    ``needed`` is the smallest input truncation that could possibly resolve
    the stall: one more than what was supplied (deeper coefficients may push
    the requirement further still).
    """

    def __init__(self, needed: int, stalled_at: int):
        self.needed = needed
        self.stalled_at = stalled_at
        super().__init__(
            f"series data exhausted at order {stalled_at}; "
            f"re-supply the branch with truncation >= {needed}"
        )


class BranchParam:
    """Primitive branch (x(t) : y(t) : z(t)) with a common usable truncation.

    Immutable by convention: its integer coordinates are computed once.
    """

    __slots__ = ("x", "y", "z", "_cleared")

    def __init__(self, x: TruncSeries, y: TruncSeries, z: TruncSeries):
        if not any(c.valuation() == 0 for c in (x, y, z)):
            raise NonPrimitiveBranch(
                "no coordinate is a unit: the branch is not primitive at t=0"
            )
        self.x = x
        self.y = y
        self.z = z
        self._cleared = None

    @property
    def coords(self):
        return (self.x, self.y, self.z)

    @property
    def trunc(self) -> int:
        return min(c.trunc for c in self.coords)

    def monomial_pullback(self, expo) -> TruncSeries:
        """Pull x^i y^j z^k back along the branch."""
        out = None
        for coord, e in zip(self.coords, expo):
            for _ in range(e):
                out = coord if out is None else out * coord
        if out is None:
            t = self.trunc
            return TruncSeries({0: 1}, t)
        return out

    def _integer_coords(self):
        """The coordinates times D, the lcm of all their coefficient
        denominators, as integer series, computed once; (Dx : Dy : Dz) is
        the same projective branch."""
        if self._cleared is None:
            d = lcm(*[c.denominator for s in self.coords for c in s.coeffs.values()])
            self._cleared = [
                TruncSeries._make({e: c.numerator * (d // c.denominator) for e, c in s.coeffs.items()}, s.trunc)
                for s in self.coords
            ]
        return self._cleared

    def __repr__(self):
        return f"BranchParam(x={self.x}, y={self.y}, z={self.z})"


class ValuationLadder:
    """Attainable conic contact orders at a branch, with witnesses.

    ``orders`` is strictly increasing; ``witnesses[i]`` is a primitive
    integer conic whose pullback along the branch has valuation exactly
    ``orders[i]``.  The ladder keeps each witness as a rational 6-vector in
    ``CONIC_BASIS`` order, any nonzero multiple of it, and builds the conic
    only when it is read.
    """

    __slots__ = ("orders", "_vectors", "_witnesses")

    def __init__(self, orders, vectors):
        self.orders = orders
        self._vectors = vectors
        self._witnesses = None

    @property
    def witnesses(self) -> tuple:
        if self._witnesses is None:
            self._witnesses = tuple(map(_witness, self._vectors))
        return self._witnesses

    def witness_for(self, order: int) -> MPoly:
        return _witness(self._vectors[self.orders.index(order)])

    def __eq__(self, other):
        if not isinstance(other, ValuationLadder):
            return NotImplemented
        return self.orders == other.orders and self.witnesses == other.witnesses

    __hash__ = None

    def __repr__(self):
        return f"ValuationLadder(orders={self.orders!r}, witnesses={self.witnesses!r})"


def _witness(vec) -> MPoly:
    return conic(vec).canonical()


@dataclass(frozen=True)
class WeightReport:
    w2: int
    ladder: ValuationLadder
    classification: str
    m: int
    l: int
    c: "int | None"
    sextactic_order: "int | None"


def _reduce_to_distinct(items, branch_trunc: int):
    """Gaussian elimination by leading exponent on a list of integer series;
    returns {valuation: vector} with distinct valuations, where the vector
    holds the integer coefficients of the reduced series in the input items.

    Fraction-free (Bareiss 1968): a series that meets a pivot at its
    valuation v becomes a * series - b * pivot, with a = pivot[v] and
    b = series[v] over their gcd, and its vector takes the same step.  Each
    series and vector is a nonzero multiple of the one exact rational
    elimination (series - (b/a) * pivot) builds, so the valuations, the
    truncations and the witnesses are the same.
    """
    n = len(items)
    pivots = {}
    vectors = {}
    for i, item in enumerate(items):
        series, trunc = item.coeffs, item.trunc
        vec = [0] * n
        vec[i] = 1
        while True:
            if not series:
                raise TruncationInsufficient(branch_trunc + 1, trunc)
            v = min(series)
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
            out = {e: a * c for e, c in series.items() if e < trunc}
            get = out.get
            for e, c in ps.items():
                if e < trunc:
                    out[e] = get(e, 0) - b * c
            series = {e: c for e, c in out.items() if c}
            vec = [a * x - b * y for x, y in zip(vec, vectors[v])]
    return vectors


def valuation_ladder(b: BranchParam) -> ValuationLadder:
    """The six conic contact orders attainable at the branch, with witnesses."""
    vectors = _reduce_to_distinct(veronese(*b._integer_coords()), b.trunc)
    orders = tuple(sorted(vectors))
    return ValuationLadder(orders, tuple(vectors[v] for v in orders))


def line_orders(b: BranchParam):
    """(m, l): branch multiplicity and tangent contact order.

    These are the two nonzero valuations attainable by linear forms.
    """
    v0, m, l = sorted(_reduce_to_distinct(b._integer_coords(), b.trunc))
    if v0 != 0:
        raise NonPrimitiveBranch("no linear form is a unit along the branch")
    return m, l


def _special_order(orders, m: int):
    """For a branch with l = 2m the ladder is {0, m, 2m, 3m, 4m, c}; pick c."""
    plain = {0, m, 2 * m, 3 * m, 4 * m}
    extra = [v for v in orders if v not in plain]
    if len(extra) != 1:
        raise BranchError(
            f"ladder {orders} is not of the tangent-degenerate shape for m={m}"
        )
    return extra[0]


def weight2(b: BranchParam) -> WeightReport:
    """Conic contact weight and classification of the branch point."""
    ladder = valuation_ladder(b)
    m, l = line_orders(b)
    w2 = sum(ladder.orders) - 15
    c = None
    sextactic_order = None
    if l == 2 * m:
        c = _special_order(ladder.orders, m)
    if m > 1:
        classification = "cusp"
    elif l > 2:
        classification = "inflection"
    elif c == 5:
        classification = "smooth_ordinary"
    else:
        classification = "sextactic"
        sextactic_order = c - 5
    return WeightReport(w2, ladder, classification, m, l, c, sextactic_order)


def closed_form_ladder(m: int, l: int, c=None):
    """The six attainable conic orders from the branch invariants alone.

    For l != 2m the orders are {0, m, l, 2m, m+l, 2l}; for l = 2m they are
    {0, m, 2m, 3m, 4m, c} and c must satisfy c > 2m, c not in {3m, 4m}.
    Returned sorted ascending.
    """
    if not (isinstance(m, int) and isinstance(l, int) and m >= 1 and l > m):
        raise BranchError(f"need integers l > m >= 1, got m={m!r}, l={l!r}")
    if l != 2 * m:
        if c is not None:
            raise BranchError("c is only meaningful when l = 2m")
        return tuple(sorted({0, m, l, 2 * m, m + l, 2 * l}))
    if c is None:
        raise BranchError("l = 2m requires the conic contact order c")
    if not (isinstance(c, int) and c > 2 * m and c not in (3 * m, 4 * m)):
        raise BranchError(
            f"c must satisfy c > {2*m} and c != {3*m}, {4*m}; got {c!r}"
        )
    return tuple(sorted({0, m, 2 * m, 3 * m, 4 * m, c}))


def hyperosculating_conic_at_branch(b: BranchParam) -> MPoly:
    """The distinguished conic of maximal special contact at the branch.

    For tangent-degenerate branches (l = 2m) this is a conic of contact
    order c, which is irreducible; otherwise it is the conic of maximal
    contact 2l (the doubled tangent line).
    """
    return _hyperosculating(b)[1]


def _hyperosculating(b: BranchParam):
    """(contact order, conic) of `hyperosculating_conic_at_branch`."""
    ladder = valuation_ladder(b)
    m, l = line_orders(b)
    target = _special_order(ladder.orders, m) if l == 2 * m else ladder.orders[-1]
    return target, ladder.witness_for(target)


@dataclass(frozen=True)
class ContactReport:
    ok: bool
    messages: tuple
    feasible_l: tuple  # (value, witnessing k) pairs, increasing in k
    feasible_c: "tuple | None"  # None when the c-constraint does not apply


def cusp_contact_constraints(ms, d: int, l=None, c=None) -> ContactReport:
    """Check tangent/conic contact orders against a cusp multiplicity sequence.

    The attainable orders have the form k*m + m_k where the first k entries
    of the sequence are all equal to m; l is additionally bounded by d and c
    by 2d, with c > 2m and c != 3m, 4m.  When l or c is not supplied, the
    feasible values are reported instead of checked.
    """
    ms = list(ms)
    if not ms or any(not isinstance(v, int) or v < 1 for v in ms):
        raise BranchError(f"malformed multiplicity sequence {ms!r}")
    if any(a < b for a, b in zip(ms, ms[1:])):
        raise BranchError(f"multiplicity sequence must be non-increasing: {ms!r}")
    if not isinstance(d, int) or d < 3:
        raise BranchError(f"need an integer curve degree d >= 3, got {d!r}")
    m = ms[0]
    ext = ms + [1]
    candidates = []  # (k, k*m + m_k) while the prefix stays constant
    for k in range(1, len(ext)):
        if any(v != m for v in ext[:k]):
            break
        candidates.append((k, k * m + ext[k]))

    messages = []
    ok = True
    feasible_l = tuple((val, k) for k, val in candidates if val <= d)
    if not feasible_l:
        ok = False
        messages.append(f"no tangent contact order fits within degree {d}")
    if l is not None:
        if all(val != l for val, _k in feasible_l):
            ok = False
            messages.append(
                f"l={l} is not attainable; feasible: {[v for v, _ in feasible_l]}"
            )
        else:
            k = next(k for val, k in feasible_l if val == l)
            messages.append(f"l={l} realized with k={k}")

    feasible_c = None
    if l is not None and l == 2 * m:
        feasible_c = tuple(
            (val, k)
            for k, val in candidates
            if k >= 2 and 2 * m < val <= 2 * d and val not in (3 * m, 4 * m)
        )
        if not feasible_c:
            ok = False
            messages.append("no conic contact order is available for l = 2m")
        if c is not None:
            if all(val != c for val, _k in feasible_c):
                ok = False
                messages.append(
                    f"c={c} is not attainable; feasible: "
                    f"{[v for v, _ in feasible_c]}"
                )
            else:
                k = next(k for val, k in feasible_c if val == c)
                messages.append(f"c={c} realized with k={k}")
    elif c is not None:
        ok = False
        messages.append("c was supplied but l != 2m, so no conic constraint applies")

    return ContactReport(ok, tuple(messages), feasible_l, feasible_c)
