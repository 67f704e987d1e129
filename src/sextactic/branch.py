"""Local analysis at a unibranched curve point.

A branch is given by three truncated power series in a local parameter.  The
central computation reduces the pulled-back conic monomial basis to six
series with pairwise distinct valuations; those valuations are the orders a
conic can attain against the branch, and they determine the conic-contact
weight of the point.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm

from .census import check_multiplicity_sequence, special_contact
# CONIC_BASIS is re-exported: the ladder's witnesses are written in its order
from .poly import (
    CONIC_BASIS,
    MPoly,
    _digits,
    _is_int,
    _pack,
    canonical_conic,
    dense_enough,
    digit_width,
    veronese,
)
from .series import TruncSeries, product_trunc


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
    """Primitive branch (x(t) : y(t) : z(t)), each coordinate known below its
    own truncation.

    Stored as what the ladder reads: ``den``, the least positive integer D
    that makes D x, D y and D z integral; ``truncs``, the three truncations;
    and ``ints``, D times each coordinate, which is the same projective
    branch.  When ``poly.dense_enough`` takes it, each of ``ints`` is a
    dense int list whose entry e is the coefficient of t^e below that
    coordinate's truncation, and otherwise an integer ``TruncSeries``.
    ``x``, ``y`` and ``z`` are rational ``TruncSeries`` views, built when read.
    """

    __slots__ = ("den", "truncs", "ints")

    def __init__(self, x: TruncSeries, y: TruncSeries, z: TruncSeries):
        coords = (x, y, z)
        den = lcm(*[c.denominator for s in coords for c in s.coeffs.values()])
        terms = [[(c.numerator, c.denominator, e) for e, c in s.coeffs.items()] for s in coords]
        self._store(den, tuple(s.trunc for s in coords), terms)

    @classmethod
    def _from_terms(cls, den: int, truncs: tuple, terms):
        """The branch from D, the least common denominator of its
        coefficients, the three truncations and, per coordinate, its nonzero
        terms as (num, den_i, exponent) triples, each the coefficient
        num/den_i of t^exponent, with den_i dividing D."""
        b = object.__new__(cls)
        b._store(den, truncs, terms)
        return b

    def _store(self, den, truncs, terms):
        # dense or sparse from the counts alone, so that no list is
        # allocated for a sparse branch with a long truncation; counted over
        # all three coordinates, since z is often the constant 1
        dense = dense_enough(sum(truncs), sum(map(len, terms)))
        ints = []
        for t, triples in zip(truncs, terms):
            if dense:
                u = [0] * t
                for num, d, e in triples:
                    u[e] = num * (den // d)
            else:
                u = TruncSeries._make({e: num * (den // d) for num, d, e in triples}, t)
            ints.append(u)
        if not any(u[0] if dense else 0 in u.coeffs for u in ints):
            raise NonPrimitiveBranch(
                "no coordinate is a unit: the branch is not primitive at t=0"
            )
        self.den = den
        self.truncs = truncs
        self.ints = ints

    def _view(self, i: int) -> TruncSeries:
        u, den = self.ints[i], self.den
        terms = enumerate(u) if type(u) is list else u.coeffs.items()
        return TruncSeries._make(
            {e: c // den if c % den == 0 else Fraction(c, den) for e, c in terms if c}, self.truncs[i]
        )

    @property
    def x(self) -> TruncSeries:
        return self._view(0)

    @property
    def y(self) -> TruncSeries:
        return self._view(1)

    @property
    def z(self) -> TruncSeries:
        return self._view(2)

    @property
    def coords(self):
        return (self.x, self.y, self.z)

    @property
    def trunc(self) -> int:
        return min(self.truncs)

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
            self._witnesses = tuple(map(canonical_conic, self._vectors))
        return self._witnesses

    def witness_for(self, order: int) -> MPoly:
        return canonical_conic(self._vectors[self.orders.index(order)])

    def __eq__(self, other):
        if not isinstance(other, ValuationLadder):
            return NotImplemented
        return self.orders == other.orders and self.witnesses == other.witnesses

    __hash__ = None

    def __repr__(self):
        return f"ValuationLadder(orders={self.orders!r}, witnesses={self.witnesses!r})"


@dataclass(frozen=True)
class WeightReport:
    w2: int
    ladder: ValuationLadder
    classification: str
    m: int
    l: int
    c: "int | None"
    sextactic_order: "int | None"


# The dense ladder and line orders first eliminate on the coordinates'
# first _PREFIX coefficients, and double the prefix each time an elimination
# runs out of it.  Measured on CPython 3.11, ``weight2`` and the six
# witnesses of each of the 710 seed-1 ``local`` branches (685 dense,
# truncations 20 to 80, top orders up to 28), best of 9: 142 us per branch
# at 16, 132 at 32, 145 at 64 and 153 on the whole lists.
_PREFIX = 32


def _veronese_lists(coords, k):
    """The six Veronese products of dense int lists as (int list,
    truncation) items, each list the product's first min(truncation, k)
    coefficients, from one packed integer per list's first k entries.

    Kronecker substitution (Fateman 2005), as in ``poly.kronecker_product``:
    a slot of a product of two prefixes sums at most k products of two
    entries, so one digit width serves all six, and a coefficient below k
    of a product depends only on the entries below k, so the prefixes give
    it exactly.  Each product's truncation is ``product_trunc`` of its
    factors' (truncation, valuation) pairs.
    """
    cuts = [(len(u), next(compress(count(), u), len(u))) for u in coords]
    ends = veronese(*cuts, times=product_trunc)
    heads = [u[:k] for u in coords]
    w = digit_width(max(map(abs, chain(*heads))) ** 2 * max(map(len, heads)))
    products = veronese(*[_pack(u, w) for u in heads])
    return [(_digits(p, w, min(end, k)), end) for p, end in zip(products, ends)]


def _on_exponents(series):
    """(items, at): integer ``TruncSeries`` as (int list, truncation) items
    over ``at``, the sorted union of their exponents; entry i of an item is
    its coefficient of t^at[i], for each at[i] below its truncation."""
    at = sorted(set().union(*[s.coeffs for s in series]))
    items = [([s.coeffs.get(e, 0) for e in at[: bisect_left(at, s.trunc)]], s.trunc) for s in series]
    return items, at


def _reduce_to_distinct(items, at, branch_trunc: int):
    """Gaussian elimination by leading exponent on (int list, truncation)
    items, entry i of a list the coefficient of t^at[i] (``at`` is
    ``range(n)`` for dense lists); returns {valuation: vector} with distinct
    valuations, where the vector holds the integer coefficients of the
    reduced series in the input items.  A series that reduces to zero is a
    stall, unless its list stops short of the entries of ``at`` below its
    truncation, as a dense prefix does: then the prefix is exhausted, and
    the result is None.

    Fraction-free (Bareiss 1968): a series that meets a pivot at its
    valuation v becomes a * series - b * pivot, with a = pivot[v] and
    b = series[v] over their gcd, and its vector takes the same step; the
    shorter list, the lower truncation, bounds the result.  Each series and
    vector is a nonzero multiple of the one exact rational elimination
    (series - (b/a) * pivot) builds, so the valuations, the truncations and
    the witnesses are the same.
    """
    n = len(items)
    pivots = {}
    vectors = {}
    for i, (series, trunc) in enumerate(items):
        vec = [0] * n
        vec[i] = 1
        while True:
            v = next(compress(count(), series), None)
            if v is None:
                if len(series) < bisect_left(at, trunc):
                    return None
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


def _on_prefixes(items, branch_trunc: int):
    """``_reduce_to_distinct`` on items(k), dense (int list, truncation)
    items cut to their first k entries, for k = _PREFIX, 2 _PREFIX, ...
    until no list runs out before the valuations are distinct.

    Each elimination step on the prefixes is the step on the whole lists cut
    to them, so a resolved prefix gives the whole lists' valuations and
    vectors.  Once k reaches every truncation nothing is cut, and that last
    round is the elimination on the whole lists, stalls included.
    """
    k = _PREFIX
    while True:
        cut = items(k)
        found = _reduce_to_distinct(cut, range(max(t for _, t in cut)), branch_trunc)
        if found is not None:
            return found
        k *= 2


def valuation_ladder(b: BranchParam) -> ValuationLadder:
    """The six conic contact orders attainable at the branch, with witnesses."""
    coords = b.ints
    if type(coords[0]) is list:
        vectors = _on_prefixes(lambda k: _veronese_lists(coords, k), b.trunc)
    else:
        vectors = _reduce_to_distinct(*_on_exponents(veronese(*coords)), b.trunc)
    orders = tuple(sorted(vectors))
    return ValuationLadder(orders, tuple(vectors[v] for v in orders))


def line_orders(b: BranchParam):
    """(m, l): branch multiplicity and tangent contact order.

    These are the two nonzero valuations attainable by linear forms.
    """
    coords = b.ints
    if type(coords[0]) is list:
        found = _on_prefixes(lambda k: [(u[:k], len(u)) for u in coords], b.trunc)
    else:
        found = _reduce_to_distinct(*_on_exponents(coords), b.trunc)
    _, m, l = sorted(found)  # 0 first: BranchParam refuses branches with no unit coordinate
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
    if not (_is_int(m) and _is_int(l) and m >= 1 and l > m):
        raise BranchError(f"need integers l > m >= 1, got m={m!r}, l={l!r}")
    if l != 2 * m:
        if c is not None:
            raise BranchError("c is only meaningful when l = 2m")
        return tuple(sorted({0, m, l, 2 * m, m + l, 2 * l}))
    if c is None:
        raise BranchError("l = 2m requires the conic contact order c")
    if not (_is_int(c) and special_contact(m, c)):
        raise BranchError(
            f"c must satisfy c > {2*m} and c != {3*m}, {4*m}; got {c!r}"
        )
    return tuple(sorted({0, m, 2 * m, 3 * m, 4 * m, c}))


def hyperosculating_conic_at_branch(b: BranchParam) -> tuple:
    """(contact order, conic): the distinguished conic of maximal special
    contact at the branch, with its order along it.

    For tangent-degenerate branches (l = 2m) this is a conic of contact
    order c, which is irreducible; otherwise it is the conic of maximal
    contact 2l (the doubled tangent line).
    """
    report = weight2(b)
    target = report.c if report.l == 2 * report.m else report.ladder.orders[-1]
    return target, report.ladder.witness_for(target)


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
    check_multiplicity_sequence(ms, BranchError)
    if not _is_int(d) or d < 3:
        raise BranchError(f"need an integer curve degree d >= 3, got {d!r}")
    for name, v in (("l", l), ("c", c)):
        if v is not None and not _is_int(v):
            raise BranchError(f"{name} must be an integer, got {v!r}")
    m = ms[0]
    ext = ms + [1]
    # the first k entries all equal m exactly when m_(k-1) does: ms does not increase
    candidates = [(k, k * m + ext[k]) for k in range(1, len(ext)) if ext[k - 1] == m]

    messages = []
    ok = True

    def attained(name, v, feasible):
        # note the k realizing v among the feasible (value, k) pairs, or that none does
        k = dict(feasible).get(v)
        messages.append(
            f"{name}={v} is not attainable; feasible: {[val for val, _ in feasible]}"
            if k is None else f"{name}={v} realized with k={k}"
        )
        return k is not None

    feasible_l = tuple((val, k) for k, val in candidates if val <= d)
    if not feasible_l:
        ok = False
        messages.append(f"no tangent contact order fits within degree {d}")
    if l is not None:
        ok = attained("l", l, feasible_l) and ok

    feasible_c = None
    if l is not None and l == 2 * m:
        feasible_c = tuple(
            (val, k)
            for k, val in candidates
            if k >= 2 and val <= 2 * d and special_contact(m, val)
        )
        if not feasible_c:
            ok = False
            messages.append("no conic contact order is available for l = 2m")
        if c is not None:
            ok = attained("c", c, feasible_c) and ok
    elif c is not None:
        ok = False
        messages.append("c was supplied but l != 2m, so no conic constraint applies")

    return ContactReport(ok, tuple(messages), feasible_l, feasible_c)
