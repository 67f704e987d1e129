"""Global counting formulas over a curve profile.

A profile lists the degree, optionally the genus, and one record per
inflection point, cusp, or distinguished smooth point (per branch, when a
singular point has several).  The counts are pure integer arithmetic: the
total conic contact weight of the curve, the tangency budget absorbed by
each record, and the cross-checking identities tying the two together.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import _is_int


class CensusError(ValueError):
    pass


ROLES = ("cusp", "inflection", "smooth")


def special_contact(m, c) -> bool:
    """Whether c is an admissible conic contact order at a branch of
    multiplicity m with l = 2m: c > 2m and c not in {3m, 4m}."""
    return c > 2 * m and c not in (3 * m, 4 * m)


def check_multiplicity_sequence(ms, error):
    """Raise ``error`` unless ``ms`` is a nonempty, non-increasing sequence
    of positive integers; the message shows ``ms`` by its own repr."""
    if not ms or any(not _is_int(v) or v < 1 for v in ms):
        raise error(f"malformed multiplicity sequence {ms!r}")
    if any(a < b for a, b in zip(ms, ms[1:])):
        raise error(f"multiplicity sequence must be non-increasing: {ms!r}")


@dataclass(frozen=True)
class PointRecord:
    """Local invariants of one branch: multiplicity, tangent and conic contact.

    ``c`` is required exactly when l = 2m; ``delta`` may be given directly or
    through the multiplicity sequence ``ms`` (and must then agree with it).
    """

    role: str
    m: int
    l: int
    c: "int | None" = None
    ms: "tuple | None" = None
    delta: "int | None" = None
    label: "str | None" = None

    def __post_init__(self):
        if self.role not in ROLES:
            raise CensusError(f"unknown role {self.role!r}; expected one of {ROLES}")
        if not (_is_int(self.m) and self.m >= 1):
            raise CensusError(f"multiplicity must be a positive integer, got {self.m!r}")
        if not (_is_int(self.l) and self.l > self.m):
            raise CensusError(f"tangent contact l must exceed m={self.m}, got {self.l!r}")
        if self.role == "inflection" and (self.m != 1 or self.l < 3):
            raise CensusError(f"inflection records need m=1 and l>=3, got m={self.m}, l={self.l}")
        if self.role == "cusp" and self.m < 2:
            raise CensusError(f"cusp records need m>=2, got m={self.m}")
        if self.role == "smooth" and (self.m != 1 or self.l != 2):
            raise CensusError(f"smooth records need m=1 and l=2, got m={self.m}, l={self.l}")
        if self.l == 2 * self.m:
            if self.c is None:
                raise CensusError(
                    f"record with l = 2m = {self.l} requires the conic contact order c"
                )
            if not _is_int(self.c):
                raise CensusError(f"conic contact order c must be an integer, got {self.c!r}")
            if not special_contact(self.m, self.c):
                raise CensusError(
                    f"c={self.c} violates c > {2*self.m}, c != {3*self.m}, {4*self.m}"
                )
        elif self.c is not None:
            raise CensusError(f"c given but l != 2m (l={self.l}, m={self.m})")
        if self.delta is not None and not _is_int(self.delta):
            raise CensusError(f"delta must be an integer, got {self.delta!r}")
        if self.label is not None and not isinstance(self.label, str):
            raise CensusError(f"label must be a string, got {self.label!r}")
        if self.ms is not None:
            ms = tuple(self.ms)
            check_multiplicity_sequence(ms, CensusError)
            if ms[0] != self.m:
                raise CensusError(
                    f"multiplicity sequence starts with {ms[0]}, record has m={self.m}"
                )
            object.__setattr__(self, "ms", ms)
            from_ms = sum(v * (v - 1) // 2 for v in ms)
            if self.delta is not None and self.delta != from_ms:
                raise CensusError(
                    f"delta={self.delta} disagrees with the multiplicity "
                    f"sequence value {from_ms}"
                )
            object.__setattr__(self, "delta", from_ms)
        least = self.m * (self.m - 1) // 2
        if self.role == "cusp" and self.delta is not None and self.delta < least:
            raise CensusError(f"cusp delta={self.delta} is below m(m - 1)/2 = {least}")
        if self.role != "cusp":
            if self.delta not in (None, 0):
                raise CensusError(f"{self.role} records must have delta 0")
            object.__setattr__(self, "delta", 0)

    @property
    def tangent_degenerate(self) -> bool:
        return self.l == 2 * self.m

    def weight(self) -> int:
        """Conic contact weight of the branch."""
        if self.tangent_degenerate:
            return 10 * self.m + self.c - 15
        return 4 * self.m + 4 * self.l - 15


def _shared_labels(points):
    labels = [p.label for p in points if p.label is not None]
    return frozenset(v for v in labels if labels.count(v) > 1)


@dataclass(frozen=True)
class CurveProfile:
    d: int
    g: int
    points: tuple

    def __post_init__(self):
        if not (_is_int(self.d) and self.d >= 3):
            raise CensusError(f"need an integer degree d >= 3, got {self.d!r}")
        if not (_is_int(self.g) and self.g >= 0):
            raise CensusError(f"need a non-negative integer genus, got {self.g!r}")

    def multibranch_labels(self):
        """Labels carried by more than one record: multibranch singular points."""
        return _shared_labels(self.points)

    def _weighted(self):
        """The records that enter the weight sums: inflection points and
        cusps always; a record sharing a label is a branch of a multibranch
        singular point and counts whatever its shape."""
        shared = self.multibranch_labels()
        return tuple(
            p for p in self.points if p.role in ("inflection", "cusp") or p.label in shared
        )

    @classmethod
    def build(cls, d, points, g=None, per_branch=False):
        """Resolve the genus and validate the record list.

        Without an explicit genus the curve is assumed cuspidal with every
        singular point listed, and the genus drop is the sum of the deltas.
        Profiles sharing point labels describe multibranch singularities and
        require both ``per_branch`` and an explicit genus.
        """
        points = tuple(points)
        if _shared_labels(points) and not per_branch:
            raise CensusError("records share point labels; rerun in per-branch mode")
        deltas = [p.delta for p in points]
        clebsch = None
        if not per_branch:
            if None not in deltas:
                clebsch = (d - 1) * (d - 2) // 2 - sum(deltas)
            elif g is None:
                raise CensusError(
                    f"cannot resolve the genus: {deltas.count(None)} record(s) "
                    "lack delta / multiplicity sequence"
                )
        if g is None:
            if per_branch:
                raise CensusError("per-branch profiles must state the genus")
            if clebsch < 0:
                raise CensusError(f"deltas exceed the genus budget: g = {clebsch}")
            return cls(d, clebsch, points)
        if clebsch is not None and clebsch != g:
            raise CensusError(
                f"stated genus {g} conflicts with the degree/delta value {clebsch}"
            )
        return cls(d, g, points)

    def set_I(self):
        """Inflections, cusps, and singular-point branches with l != 2m."""
        return tuple(p for p in self._weighted() if not p.tangent_degenerate)

    def set_J(self):
        """Cusps and singular-point branches with l = 2m."""
        return tuple(p for p in self._weighted() if p.tangent_degenerate)

    def cusps(self):
        return tuple(p for p in self.points if p.role == "cusp")


@dataclass(frozen=True)
class CensusReport:
    s: int
    total: int
    sum_I: int
    sum_J: int


def brill_segre_total(d: int, g: int) -> int:
    """Total conic contact weight 6(2d + 5g - 5) of a degree-d genus-g curve."""
    if not (_is_int(d) and _is_int(g)) or d < 3 or g < 0:
        raise CensusError(f"need d >= 3 and g >= 0, got d={d}, g={g}")
    return 6 * (2 * d + 5 * g - 5)


def sextactic_count(profile: CurveProfile, per_branch: bool = False) -> CensusReport:
    """Number of sextactic points, counted with multiplicity.

    Subtracts the weight of every inflection and cusp branch from the total
    weight budget; what remains sits at smooth non-inflection points.
    """
    if profile.multibranch_labels() and not per_branch:
        raise CensusError("records share point labels; rerun in per-branch mode")
    total = brill_segre_total(profile.d, profile.g)
    sum_I = sum(p.weight() for p in profile.set_I())
    sum_J = sum(p.weight() for p in profile.set_J())
    s = total - sum_I - sum_J
    if s < 0:
        raise CensusError(
            f"negative sextactic count {s}: the profile is inconsistent"
        )
    return CensusReport(s, total, sum_I, sum_J)


def inflection_count(profile: CurveProfile) -> int:
    """Number of inflection points, counted with multiplicity."""
    cusps = profile.cusps()
    if any(p.delta is None for p in cusps):
        raise CensusError("every cusp record needs delta for the inflection count")
    d = profile.d
    return 3 * d * (d - 2) - sum(map(predicted_hessian_order, cusps))


@dataclass(frozen=True)
class IdentityReport:
    lhs1: int
    rhs1: int
    lhs2: int
    rhs2: int

    @property
    def residual1(self) -> int:
        return self.lhs1 - self.rhs1

    @property
    def residual2(self) -> int:
        return self.lhs2 - self.rhs2

    @property
    def ok(self) -> bool:
        return self.residual1 == 0 and self.residual2 == 0


def intersection_identities(profile: CurveProfile, s: int) -> IdentityReport:
    """Bezout-flavoured identities distributing the Hessian-type intersection
    budgets over the sextactic count, the deltas, and the local contact data.

    Each record of ``set_I`` and ``set_J`` (every record with a nonzero
    delta is one) takes its predicted 2-Hessian order from the second budget
    and that plus its predicted Hessian order from the first; a cusp without
    delta is a ``CensusError``.
    """
    points = profile._weighted()
    d = profile.d
    lhs2 = d * (12 * d - 27)
    rhs2 = s + sum(map(predicted_hessian2_order, points))
    lhs1 = lhs2 + 3 * d * (d - 2)
    rhs1 = rhs2 + sum(map(predicted_hessian_order, points))
    return IdentityReport(lhs1, rhs1, lhs2, rhs2)


def predicted_hessian2_order(record: PointRecord) -> int:
    """Conjectural intersection order of the excess-contact covariant at the
    point, from delta and the contact data alone."""
    if record.delta is None:
        raise CensusError("prediction needs delta (give it or the multiplicity sequence)")
    if record.tangent_degenerate:
        return 24 * record.delta + 7 * record.m + record.c - 12
    return 24 * record.delta + 3 * record.m + 3 * record.l - 12


def predicted_hessian_order(record: PointRecord) -> int:
    """Intersection order of the Hessian at the point (inflection formula term)."""
    if record.delta is None:
        raise CensusError("prediction needs delta (give it or the multiplicity sequence)")
    return 6 * record.delta + record.m + record.l - 3
