"""Valuation ladders against closed forms and brute-force oracles."""

import itertools
import json
import random
from fractions import Fraction
from math import comb
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poly_reference import (
    integer_coords_reference,
    line_orders_reference,
    monomial_pullback,
    valuation_ladder_reference,
    whole_line_orders,
    whole_valuation_ladder,
)
from sextactic import branch, cli, poly
from sextactic.branch import (
    BranchError,
    BranchParam,
    CONIC_BASIS,
    ContactReport,
    NonPrimitiveBranch,
    TruncationInsufficient,
    closed_form_ladder,
    cusp_contact_constraints,
    hyperosculating_conic_at_branch,
    line_orders,
    valuation_ladder,
    weight2,
)
from sextactic.parse import parse_branch
from sextactic.poly import XYZ, MPoly, canonical_conic, conic, veronese
from sextactic.series import TruncSeries


def mk_branch(x, y, z, trunc):
    return BranchParam(
        TruncSeries(dict(x), trunc),
        TruncSeries(dict(y), trunc),
        TruncSeries(dict(z), trunc),
    )


def attainable_orders_by_rank(b):
    """Pivot columns of the pullback coefficient matrix (independent oracle).

    A contact order is attainable exactly when adding its coefficient column
    increases the rank, so the attainable set is the pivot column set.
    """
    pulls = [monomial_pullback(b, e) for e in CONIC_BASIS]
    bound = min(p.trunc for p in pulls)
    rows = [[Fraction(p.coeffs.get(k, 0)) for k in range(bound)] for p in pulls]
    pivots = []
    used = set()
    for col in range(bound):
        pr = next(
            (i for i in range(6) if i not in used and rows[i][col] != 0), None
        )
        if pr is None:
            continue
        pivots.append(col)
        used.add(pr)
        for i in range(6):
            if i not in used and rows[i][col] != 0:
                f = rows[i][col] / rows[pr][col]
                rows[i] = [a - f * c for a, c in zip(rows[i], rows[pr])]
        if len(pivots) == 6:
            break
    return tuple(pivots)


def attainable_orders_by_grid(b, values=(-2, -1, 0, 1, 2)):
    """Valuations of grid linear combinations of the conic pullbacks."""
    pulls = [monomial_pullback(b, e) for e in CONIC_BASIS]
    found = set()
    for combo in itertools.product(values, repeat=6):
        if not any(combo):
            continue
        acc = None
        for c, p in zip(combo, pulls):
            if c:
                acc = p * c if acc is None else acc + p * c
        v = acc.valuation()
        if v is not None:
            found.add(v)
        if len(found) == 6:
            break
    return tuple(sorted(found))


def random_normal_form(rng, trunc=12):
    """Branch (t^m : a t^l + tail : 1) with l != 2m and 2l < trunc."""
    while True:
        m = rng.randint(1, 4)
        ls = [l for l in range(m + 1, 6) if l != 2 * m and 2 * l < trunc]
        if ls:
            break
    l = rng.choice(ls)
    y = {l: rng.choice([1, 2, 3, -1, -2])}
    for e in rng.sample(range(l + 1, trunc), rng.randint(0, 2)):
        y[e] = rng.choice([1, -1, 2])
    return mk_branch({m: 1}, y, {0: 1}, trunc), m, l


def random_tangent_degenerate(rng, trunc=12):
    """Branch (t^m : a t^2m + a_b t^b + tail : 1), b not in {3m, 4m}:
    the sixth attainable order is then b itself."""
    m = rng.randint(1, 2)
    bs = [b for b in range(2 * m + 1, trunc) if b not in (3 * m, 4 * m)]
    b = rng.choice(bs)
    a = rng.choice([1, 2, -1])
    y = {2 * m: a, b: rng.choice([1, -1, 2])}
    room = range(b + 1, trunc)
    for e in rng.sample(room, min(rng.randint(0, 1), len(room))):
        y[e] = rng.choice([1, -1])
    return mk_branch({m: 1}, y, {0: 1}, trunc), m, b


def random_general_branch(rng, trunc=12):
    """Unit-perturbed branch, not in normal form; small coefficients."""
    m = rng.randint(1, 3)
    l = rng.choice([l for l in range(m + 1, 6) if 2 * l < trunc])
    x = {m: 1}
    if rng.random() < 0.5:
        x[rng.randrange(m + 1, trunc)] = rng.choice([1, -1])
    y = {l: rng.choice([1, -1])}
    for e in rng.sample(range(l + 1, trunc), rng.randint(0, 2)):
        y[e] = rng.choice([1, -1])
    z = {0: 1}
    if rng.random() < 0.5:
        z[rng.randrange(1, trunc)] = rng.choice([1, -1])
    return mk_branch(x, y, z, trunc)


class TestLadderExamples:
    def test_cusp_3_5(self):
        b = mk_branch({3: 1}, {5: Fraction(7, 3)}, {0: 1}, 12)
        assert valuation_ladder(b).orders == (0, 3, 5, 6, 8, 10)

    def test_smooth_sextactic(self):
        b = mk_branch({1: 1}, {2: 1, 6: 1}, {0: 1}, 12)
        ladder = valuation_ladder(b)
        assert ladder.orders == (0, 1, 2, 3, 4, 6)
        assert ladder.witness_for(6) == MPoly(XYZ, {(2, 0, 0): 1, (0, 1, 1): -1})

    def test_tangent_degenerate_cusp(self):
        b = mk_branch({2: 1}, {4: 1, 7: 1}, {0: 1}, 14)
        assert valuation_ladder(b).orders == (0, 2, 4, 6, 7, 8)

    def test_witness_valuations_and_independence(self):
        b = mk_branch({2: 1}, {4: 1, 7: 1}, {0: 1}, 14)
        ladder = valuation_ladder(b)
        rows = []
        for order, witness in zip(ladder.orders, ladder.witnesses):
            pull = None
            for expo, c in witness.terms.items():
                term = monomial_pullback(b, expo) * c
                pull = term if pull is None else pull + term
            assert pull.valuation() == order
            rows.append([Fraction(witness.coefficient(e)) for e in CONIC_BASIS])
        # the six witnesses span the whole conic space
        rank = 0
        for col in range(6):
            pr = next((i for i in range(len(rows)) if rows[i][col] != 0), None)
            if pr is None:
                continue
            rank += 1
            pivot = rows.pop(pr)
            rows = [
                [a - (r[col] / pivot[col]) * p for a, p in zip(r, pivot)]
                if r[col] != 0
                else r
                for r in rows
            ]
        assert rank == 6


class TestVeronesePullback:
    def test_matches_monomial_pullback(self):
        rng = random.Random("veronese-branch")
        for i in range(30):
            if i % 2:
                b = random_general_branch(rng, trunc=rng.randint(12, 16))
            else:
                b = random_normal_form(rng)[0]
            pulls = veronese(*b.coords)
            for expo, pull in zip(CONIC_BASIS, pulls, strict=True):
                assert pull == monomial_pullback(b, expo)


class TestTruncation:
    def test_conic_contained_branch_stalls(self):
        # within the data, y = x^2 exactly: the sixth order is unresolved
        b = mk_branch({1: 1}, {2: 1}, {0: 1}, 8)
        with pytest.raises(TruncationInsufficient) as info:
            valuation_ladder(b)
        assert info.value.needed == 9

    def test_enough_data_resolves(self):
        b = mk_branch({1: 1}, {2: 1, 9: 1}, {0: 1}, 11)
        assert valuation_ladder(b).orders == (0, 1, 2, 3, 4, 9)

    def test_non_primitive_rejected(self):
        with pytest.raises(NonPrimitiveBranch):
            mk_branch({1: 1}, {2: 1}, {3: 1}, 8)


class TestWeights:
    @pytest.mark.parametrize(
        "x,y,trunc,w2,cls",
        [
            ({3: 1}, {5: 1}, 12, 17, "cusp"),
            ({2: 1}, {4: 1, 5: 1}, 12, 10, "cusp"),
            ({1: 1}, {2: 1, 5: 1}, 12, 0, "smooth_ordinary"),
            ({1: 1}, {2: 1, 6: 1}, 12, 1, "sextactic"),
            ({1: 1}, {3: 1}, 12, 1, "inflection"),
        ],
    )
    def test_examples(self, x, y, trunc, w2, cls):
        rep = weight2(mk_branch(x, y, {0: 1}, trunc))
        assert rep.w2 == w2
        assert rep.classification == cls

    def test_weight_nonnegative_and_zero_iff_trivial_ladder(self):
        rng = random.Random(77)
        for _ in range(40):
            b, _, _ = random_normal_form(rng)
            rep = weight2(b)
            assert rep.w2 >= 0
            assert (rep.w2 == 0) == (rep.ladder.orders == (0, 1, 2, 3, 4, 5))

    def test_sextactic_order(self):
        rep = weight2(mk_branch({1: 1}, {2: 1, 8: 1}, {0: 1}, 12))
        assert rep.classification == "sextactic"
        assert rep.sextactic_order == 3  # contact 8 exceeds 5 by 3


class TestClosedForm:
    def test_generic(self):
        assert closed_form_ladder(2, 5) == (0, 2, 4, 5, 7, 10)

    def test_tangent_degenerate(self):
        assert closed_form_ladder(2, 4, 5) == (0, 2, 4, 5, 6, 8)

    def test_smooth_high_contact(self):
        assert closed_form_ladder(1, 2, 7) == (0, 1, 2, 3, 4, 7)

    @pytest.mark.parametrize("m,l,c", [(2, 4, None), (2, 4, 4), (2, 4, 6), (2, 4, 8)])
    def test_invalid_c(self, m, l, c):
        with pytest.raises(BranchError):
            closed_form_ladder(m, l, c)

    # bool is an int subclass; True would read as 1
    @pytest.mark.parametrize("m,l,c", [(True, 3, None), (True, 2, 3), (1, True, None), (2, 4, True)])
    def test_refuses_bools(self, m, l, c):
        with pytest.raises(BranchError):
            closed_form_ladder(m, l, c)

    def test_c_forbidden_when_generic(self):
        with pytest.raises(BranchError):
            closed_form_ladder(2, 5, 7)


class TestAgainstOracles:
    def test_normal_form_matches_closed_form(self):
        rng = random.Random(1234)
        for _ in range(60):
            b, m, l = random_normal_form(rng)
            assert valuation_ladder(b).orders == closed_form_ladder(m, l)

    def test_tangent_degenerate_reaches_the_tail_exponent(self):
        rng = random.Random(4321)
        for _ in range(40):
            b, m, bexp = random_tangent_degenerate(rng)
            assert valuation_ladder(b).orders == closed_form_ladder(m, 2 * m, bexp)

    def test_general_branches_match_rank_oracle(self):
        rng = random.Random(999)
        for _ in range(40):
            b = random_general_branch(rng)
            try:
                ladder = valuation_ladder(b)
            except TruncationInsufficient:
                continue
            assert ladder.orders == attainable_orders_by_rank(b)

    def test_general_branches_match_grid_oracle(self):
        rng = random.Random(998)
        checked = 0
        for _ in range(15):
            b = random_general_branch(rng)
            try:
                ladder = valuation_ladder(b)
            except TruncationInsufficient:
                continue
            grid = attainable_orders_by_grid(b)
            assert set(grid) <= set(ladder.orders)
            if len(grid) == 6:
                assert grid == ladder.orders
                checked += 1
        assert checked >= 10


class TestHyperosculatingConic:
    def test_deep_smooth_contact(self):
        b = mk_branch({1: 1}, {2: 1, 6: 1}, {0: 1}, 12)
        assert hyperosculating_conic_at_branch(b) == (6, MPoly(
            XYZ, {(2, 0, 0): 1, (0, 1, 1): -1}
        ))

    def test_tail_at_triple_of_m(self):
        # b = 3m: the special conic needs the quadratic correction term and
        # meets the branch with order 5, strictly above the naive family
        b = mk_branch({1: 1}, {2: 1, 3: 1}, {0: 1}, 12)
        order, conic = hyperosculating_conic_at_branch(b)
        assert order == 5
        assert conic == MPoly(
            XYZ, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): -1, (0, 1, 1): -1}
        )
        pull = None
        for expo, c in conic.terms.items():
            term = monomial_pullback(b, expo) * c
            pull = term if pull is None else pull + term
        rep = weight2(b)
        assert rep.c == 5
        assert pull.valuation() == 5

    def test_inflection_doubles_the_tangent(self):
        b = mk_branch({1: 1}, {3: 1}, {0: 1}, 12)
        assert hyperosculating_conic_at_branch(b) == (6, MPoly(XYZ, {(0, 2, 0): 1}))

    def test_irreducible_when_tangent_degenerate(self):
        b = mk_branch({2: 1}, {4: 1, 7: 1}, {0: 1}, 14)
        order, conic = hyperosculating_conic_at_branch(b)
        # contact order is the special one, not the ladder maximum
        rep = weight2(b)
        assert rep.c == order == 7
        pull = None
        for expo, c in conic.terms.items():
            term = monomial_pullback(b, expo) * c
            pull = term if pull is None else pull + term
        assert pull.valuation() == 7


class TestContactConstraints:
    def test_forced_tangent_order(self):
        rep = cusp_contact_constraints([3, 2], 5)
        assert rep.ok
        assert rep.feasible_l == ((5, 1),)

    def test_conic_order_derived(self):
        rep = cusp_contact_constraints([2, 2], 5, l=4)
        assert rep.ok
        assert rep.feasible_c == ((5, 2),)

    def test_alternative_tangent_order(self):
        rep = cusp_contact_constraints([2, 2], 5, l=5)
        assert rep.ok

    def test_infeasible_l(self):
        rep = cusp_contact_constraints([3, 2], 5, l=4)
        assert not rep.ok

    def test_c_without_tangent_degeneracy(self):
        rep = cusp_contact_constraints([3, 2], 5, l=5, c=7)
        assert not rep.ok

    @pytest.mark.parametrize(
        "ms, d, l, c, report",
        [
            ((3, 3), 3, None, None, ContactReport(
                False, ("no tangent contact order fits within degree 3",), (), None,
            )),
            ((2, 1), 5, 4, 5, ContactReport(
                False,
                (
                    "l=4 is not attainable; feasible: [3]",
                    "no conic contact order is available for l = 2m",
                    "c=5 is not attainable; feasible: []",
                ),
                ((3, 1),),
                (),
            )),
            ((2, 2, 1), 6, 4, 5, ContactReport(
                True,
                ("l=4 realized with k=1", "c=5 realized with k=2"),
                ((4, 1), (5, 2)),
                ((5, 2),),
            )),
            ((2, 2, 1), 6, 4, 7, ContactReport(
                False,
                ("l=4 realized with k=1", "c=7 is not attainable; feasible: [5]"),
                ((4, 1), (5, 2)),
                ((5, 2),),
            )),
            ((3, 3), 3, 6, 9, ContactReport(
                False,
                (
                    "no tangent contact order fits within degree 3",
                    "l=6 is not attainable; feasible: []",
                    "no conic contact order is available for l = 2m",
                    "c=9 is not attainable; feasible: []",
                ),
                (),
                (),
            )),
        ],
        ids=["no-l-fits", "no-c-available", "c-realized", "c-not-attainable", "nothing-fits"],
    )
    def test_every_note(self, ms, d, l, c, report):
        # each field and note text, so that how the candidates and notes are
        # found can change without changing what is reported
        assert cusp_contact_constraints(ms, d, l=l, c=c) == report

    def test_malformed_sequence(self):
        with pytest.raises(BranchError):
            cusp_contact_constraints([2, 3], 5)
        with pytest.raises(BranchError):
            cusp_contact_constraints([], 5)

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            (([2, True], 5), {}, r"malformed multiplicity sequence \[2, True\]"),
            (([2.0], 5), {}, r"malformed multiplicity sequence \[2.0\]"),
            (([2, 2], 5.0), {}, "need an integer curve degree d >= 3, got 5.0"),
            (([2, 2], 5), {"l": 4.0}, "l must be an integer, got 4.0"),
            (([2, 2], 5), {"l": True}, "l must be an integer, got True"),
            (([2, 2], 5), {"l": 4, "c": 5.0}, "c must be an integer, got 5.0"),
        ],
        ids=["ms-bool", "ms-float", "d-float", "l-float", "l-bool", "c-float"],
    )
    def test_refuses_non_integers(self, args, kwargs, message):
        with pytest.raises(BranchError, match=f"^{message}$"):
            cusp_contact_constraints(*args, **kwargs)


class TestLineOrders:
    def test_reads_m_and_l(self):
        b = mk_branch({3: 1}, {5: 1}, {0: 1}, 12)
        assert line_orders(b) == (3, 5)

    def test_x_unit_branch(self):
        # branches tangent to no coordinate plane still reduce fine
        b = mk_branch({0: 1}, {2: 1}, {5: 1}, 12)
        assert line_orders(b) == (2, 5)
        assert valuation_ladder(b).orders == attainable_orders_by_rank(b)


# 70-bit numerators over denominators up to a prime just above 10^6
_COEFF = st.builds(
    Fraction, st.integers(-(2**70), 2**70).filter(bool), st.integers(1, 10**6 + 3)
)


@st.composite
def _branch_coords(draw):
    """(coordinates, (m, l, c) when the branch must show them).

    The branch is (x : y : z) with x = a t^m + ..., y = b t^l + ... and
    z = z0 + ...; for l = 2m, z is the constant z0 and y agrees with x^2 / z0
    below t^c, which plants the conic order c.  Then each coordinate is cut
    at its own truncation, one may be set to zero, one may gain an integer
    multiple of another, and the three are shuffled.  Possibly no
    coordinate is a unit.
    """
    m = draw(st.integers(1, 5))
    l = draw(st.one_of(st.just(2 * m), st.integers(m + 1, 3 * m + 2)))
    c = None
    if l == 2 * m:
        c = draw(st.sampled_from([v for v in range(2 * m + 1, 5 * m + 3) if v not in (3 * m, 4 * m)]))
    top = max(2 * l, 4 * m, c + 2 * m if c else 0)

    def series(lead, fixed=()):
        coeffs = dict(fixed)
        coeffs.setdefault(lead, draw(_COEFF))
        for e in draw(st.lists(st.integers(lead + 1, top + 2), max_size=4, unique=True)):
            coeffs[e] = draw(_COEFF)
        return coeffs

    z0 = draw(_COEFF)
    x = series(m)
    if c is None:
        y = series(l)
    else:
        sq = _square_over(x, z0, c)
        y = series(c, {e: v for e, v in sq.items() if e < c})
        y[c] = sq.get(c, 0) + draw(_COEFF)
    z = {0: z0} if c else series(0, {0: z0})
    coords = []
    low = max(1, draw(st.sampled_from([top // 2, top - 3])))
    for coeffs in (x, y, z):
        trunc = draw(st.integers(low, top + 4))
        coords.append(TruncSeries({e: v for e, v in coeffs.items() if e < trunc}, trunc))
    zeroed = draw(st.booleans()) and draw(st.booleans())
    if zeroed:
        i = draw(st.integers(0, 2))
        coords[i] = TruncSeries({}, coords[i].trunc)
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(3)))[:2]
        coords[i] = coords[i] + coords[j] * draw(st.sampled_from([-2, -1, 1, 3]))
    return draw(st.permutations(coords)), None if zeroed else (m, l, c)


def _square_over(x, z0, c):
    """The coefficients of x^2 / z0 up to t^c, x a dict of coefficients: a
    y that agrees with them below t^c plants the conic order c."""
    sq = {}
    for (e1, c1), (e2, c2) in itertools.product(x.items(), repeat=2):
        if e1 + e2 <= c:
            sq[e1 + e2] = sq.get(e1 + e2, 0) + c1 * c2 / z0
    return sq


def _built(case):
    coords, planted = case
    try:
        return BranchParam(*coords), planted
    except NonPrimitiveBranch:
        return None, None


def _branches():
    """(branch or None, (m, l, c) when the branch must show them) from
    ``_branch_coords``; None when no coordinate is a unit."""
    return _branch_coords().map(_built)


def _outcome(fn, b):
    try:
        return fn(b)
    except TruncationInsufficient as e:
        return ("stall", e.needed, e.stalled_at, str(e))
    except BranchError as e:  # NonPrimitiveBranch, a ladder of the wrong shape
        return (type(e).__name__, str(e))


def _assert_matches_reference(b):
    """The ladder, the line orders, weight2 and the maximal-contact conic of
    b against the rational elimination's; returns weight2's outcome."""
    ladder = _outcome(valuation_ladder, b)
    want = _outcome(valuation_ladder_reference, b)
    assert ladder == want
    if isinstance(ladder, branch.ValuationLadder):
        assert ladder.orders == want.orders
        assert ladder.witnesses == want.witnesses
        assert [ladder.witness_for(v) for v in ladder.orders] == list(want.witnesses)
    assert _outcome(line_orders, b) == _outcome(line_orders_reference, b)
    # weight2 and the maximal-contact conic, run once more with the
    # rational ladder and line orders in their place
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(branch, "valuation_ladder", valuation_ladder_reference)
        mp.setattr(branch, "line_orders", line_orders_reference)
        want_report = _outcome(weight2, b)
        want_conic = _outcome(hyperosculating_conic_at_branch, b)
    report = _outcome(weight2, b)
    assert report == want_report
    assert _outcome(hyperosculating_conic_at_branch, b) == want_conic
    return report


def _spy_on_density(mp):
    """Record each dense-or-sparse choice of the branch ladder."""
    choices = []
    real = branch.dense_enough

    def spy(slots, stored):
        choices.append(real(slots, stored))
        return choices[-1]

    mp.setattr(branch, "dense_enough", spy)
    return choices


class TestFractionFreeLadder:
    """The integer elimination, on dense int lists and on sparse integer
    series, against the exact rational one it replaced."""

    def test_matches_the_rational_elimination(self):
        with pytest.MonkeyPatch.context() as mp:
            choices = _spy_on_density(mp)
            self._cross_check()
        assert True in choices and False in choices

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=_branches())
    def _cross_check(self, case):
        b, planted = case
        if b is None:
            return
        report = _assert_matches_reference(b)
        if planted and isinstance(report, branch.WeightReport):
            assert (report.m, report.l, report.c) == planted

    # (x, y, z, truncations): six stored terms under exactly _SLOTS_PER_TERM
    # slots per term; z's truncation grows by ``past`` slots
    EDGES = {
        "equal": ({1: 1, 3: 2}, {2: 1, 5: -1}, {0: 1, 4: 3}, (8, 8, 8)),
        "unequal": ({1: Fraction(1, 2), 4: 3}, {2: 1, 3: Fraction(-2, 3)}, {0: 2, 1: 1}, (10, 7, 7)),
        "zero_x": ({}, {1: 1, 2: 1, 3: 2}, {0: 1, 2: -1, 5: 1}, (6, 9, 9)),
        "cusp": ({2: 1, 5: 3}, {3: 1, 4: -2}, {0: 1, 1: Fraction(1, 5)}, (8, 8, 8)),
    }

    @pytest.mark.parametrize("past", [0, 1])
    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_density_edge(self, edge, past):
        x, y, z, truncs = self.EDGES[edge]
        assert sum(truncs) == poly._SLOTS_PER_TERM * (len(x) + len(y) + len(z))
        truncs = truncs[:2] + (truncs[2] + past,)
        with pytest.MonkeyPatch.context() as mp:
            choices = _spy_on_density(mp)
            # a branch chooses when it is built
            b = BranchParam(*(TruncSeries(c, t) for c, t in zip((x, y, z), truncs)))
            _assert_matches_reference(b)
        assert choices == [past == 0]


class TestIntegerStorage:
    """D and the integer coordinates a branch stores, built from TruncSeries
    and from a branch file, against the Fraction clearing they replaced."""

    def test_matches_the_fraction_clearing(self):
        with pytest.MonkeyPatch.context() as mp:
            choices = _spy_on_density(mp)
            self._cross_check()
        assert True in choices and False in choices

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=_branch_coords(), data=st.data())
    def _cross_check(self, case, data):
        coords = tuple(case[0])
        b = _built(case)[0]
        if b is None:
            return
        assert b.coords == coords
        assert b.truncs == tuple(s.trunc for s in coords)
        assert (b.den, b.ints) == integer_coords_reference(b)
        # the branch cut at its least truncation, as a file of triples not
        # in lowest terms, shuffled, with zero entries at free exponents
        trunc = b.trunc
        cut = tuple(TruncSeries({e: c for e, c in s.coeffs.items() if e < trunc}, trunc) for s in coords)
        text = {"truncation": trunc}
        for key, s in zip("xyz", cut):
            entries = []
            for e, c in s.coeffs.items():
                k = data.draw(st.integers(1, 4))
                entries.append([Fraction(c).numerator * k, Fraction(c).denominator * k, e])
            for e in data.draw(st.lists(st.integers(0, trunc - 1), max_size=3, unique=True)):
                if e not in s.coeffs:
                    entries.append([0, data.draw(st.integers(1, 9)), e])
            text[key] = data.draw(st.permutations(entries))
        parsed = parse_branch(json.dumps(text))
        assert parsed.coords == cut
        assert (parsed.den, parsed.ints) == integer_coords_reference(parsed)
        want = BranchParam(*cut)
        assert (parsed.den, parsed.truncs, parsed.ints) == (want.den, want.truncs, want.ints)

    def test_branch_file_to_conic_builds_no_fraction(self, monkeypatch):
        text = json.dumps(
            {
                "truncation": 16,
                "x": [[1, 2, 2], [-3, 5, 7]],
                "y": [[1, 4, 4], [2, 3, 5], [7, 9, 9]],
                "z": [[3, 2, 0], [1, 6, 3]],
            }
        )
        made = []
        real = Fraction.__new__

        def spy(cls, *args, **kwargs):
            made.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", spy)
        b = parse_branch(text)
        report = weight2(b)
        ladder = valuation_ladder(b)
        order, conic = hyperosculating_conic_at_branch(b)
        assert ladder.witnesses and str(conic)
        assert made == []
        assert (report.m, report.l, report.c, order) == (2, 4, 5, 5)
        # the rational views are where Fractions are made
        assert b.x.coefficient(2) == Fraction(1, 2)
        assert made


@st.composite
def _deep_branch_coords(draw):
    """(coordinates, (m, l, c)) of a branch whose top conic order may lie
    past the ladder's first prefix: l up to that prefix, or l = 2m with c
    planted up to three times it.  Each coordinate has every exponent from
    its lead on filled with small integers, or only a few terms, and is cut
    at its own truncation, up to about 300; short truncations stall."""
    start = branch._PREFIX
    m = draw(st.integers(1, 4))
    l = draw(st.one_of(st.just(2 * m), st.integers(m + 1, start)))
    c = None
    if l == 2 * m:
        c = draw(st.integers(2 * m + 1, 3 * start).filter(lambda v: v not in (3 * m, 4 * m)))
    need = c + 2 * m if c else 2 * l + 2
    truncs = [draw(st.integers(need // 2, need + 4) | st.integers(need, 300)) for _ in range(3)]
    top = max(truncs)
    rng = random.Random(draw(st.integers(0, 2**32)))
    filled = draw(st.booleans())

    def series(lead, fixed=()):
        coeffs = dict(fixed)
        coeffs.setdefault(lead, rng.choice([-3, -2, -1, 1, 2, 3]))
        free = [e for e in range(lead + 1, top) if e not in coeffs]
        for e in free if filled else rng.sample(free, min(4, len(free))):
            coeffs[e] = rng.randint(-3, 3)
        return coeffs

    z0 = rng.choice([1, -1, 2, -3])
    x = series(m)
    if c is None:
        y = series(l)
        z = series(0, {0: z0})
    else:
        # y agrees with x^2 / z0 below t^c and not at t^c
        sq = [0] * (c + 1)
        for (e1, c1), (e2, c2) in itertools.product(x.items(), repeat=2):
            if e1 + e2 <= c:
                sq[e1 + e2] += c1 * c2
        y = series(c, {e: Fraction(v, z0) for e, v in enumerate(sq[:c]) if v})
        y[c] = Fraction(sq[c], z0) + rng.choice([-2, -1, 1, 2])
        z = {0: z0}
    coords = [TruncSeries({e: v for e, v in coeffs.items() if e < t}, t) for coeffs, t in zip((x, y, z), truncs)]
    return draw(st.permutations(coords)), (m, l, c)


class TestPrefixLadder:
    """The dense ladder and line orders on a prefix of the coefficients,
    doubled while it runs out, against the same elimination on every
    coefficient below the truncation."""

    def test_matches_the_whole_elimination(self):
        self.rounds, self.seen = [], set()
        with pytest.MonkeyPatch.context() as mp:
            choices = _spy_on_density(mp)
            real = branch._veronese_lists
            mp.setattr(branch, "_veronese_lists", lambda coords, k: self.rounds.append(k) or real(coords, k))
            self._cross_check()
        assert True in choices and False in choices
        # ladders that resolve and ladders that stall after the prefix doubled
        assert {"resolved", "stall"} <= self.seen

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=_deep_branch_coords())
    def _cross_check(self, case):
        coords, planted = case
        b = BranchParam(*coords)
        self.rounds.clear()
        ladder, want = _outcome(valuation_ladder, b), _outcome(whole_valuation_ladder, b)
        assert ladder == want
        if isinstance(ladder, branch.ValuationLadder):
            assert ladder._vectors == want._vectors
        if len(self.rounds) > 1:
            self.seen.add(ladder[0] if isinstance(ladder, tuple) else "resolved")
        assert _outcome(line_orders, b) == _outcome(whole_line_orders, b)
        report = _outcome(weight2, b)
        if isinstance(report, branch.WeightReport):
            assert (report.m, report.l, report.c) == planted

    def test_a_local_branch_reads_back_one_prefix(self, monkeypatch):
        # as the benchmark's local branches: truncation 80, orders up to 28
        rng = random.Random(80)
        x = {5: 1, **{e: rng.randint(-3, 3) for e in range(6, 80)}}
        sq = [0] * 29
        for (e1, c1), (e2, c2) in itertools.product(x.items(), repeat=2):
            if e1 + e2 <= 28:
                sq[e1 + e2] += c1 * c2
        y = {**{e: rng.randint(-3, 3) for e in range(29, 80)}, **dict(enumerate(sq[:28])), 28: sq[28] + 1}
        b = mk_branch(x, y, {0: 1}, 80)
        assert type(b.ints[0]) is list
        read = []
        real = branch._digits
        monkeypatch.setattr(branch, "_digits", lambda n, w, k: read.append(k) or real(n, w, k))
        ladder = valuation_ladder(b)
        assert ladder.orders == (0, 5, 10, 15, 20, 28)
        assert len(read) == 6 and max(read) <= branch._PREFIX
        assert ladder == whole_valuation_ladder(b)
        assert ladder._vectors == whole_valuation_ladder(b)._vectors
        assert line_orders(b) == whole_line_orders(b) == (5, 10)

    def test_a_conic_contained_branch_stalls_within_twice_the_whole_time(self):
        # x = t + t^2 + ..., y = x^2, z = 1 on a conic: every prefix runs
        # out, and the doublings up to the whole lists cost at most as much
        # again as the last, whole, round
        n = 2000
        b = mk_branch({e: 1 for e in range(1, n)}, {e: e - 1 for e in range(2, n)}, {0: 1}, n)
        assert type(b.ints[0]) is list
        best = {}
        for _ in range(5):
            for fn in (whole_valuation_ladder, valuation_ladder):
                t0 = perf_counter()
                outcome = _outcome(fn, b)
                best[fn] = min(best.get(fn, float("inf")), perf_counter() - t0)
                assert outcome == ("stall", n + 1, n, TruncationInsufficient(n + 1, n).args[0])
        assert best[valuation_ladder] <= 2 * best[whole_valuation_ladder]


def _image(coords, a):
    """The coordinates of the branch a (x, y, z)^T, a an integer matrix."""
    return [row[0] * coords[0] + row[1] * coords[1] + row[2] * coords[2] for row in a]


def _det3(a):
    return sum(
        a[0][i] * (a[1][(i + 1) % 3] * a[2][(i + 2) % 3] - a[1][(i + 2) % 3] * a[2][(i + 1) % 3])
        for i in range(3)
    )


_MATRICES = (
    st.lists(st.integers(-3, 3), min_size=9, max_size=9)
    .map(lambda v: (v[0:3], v[3:6], v[6:9]))
    .filter(lambda a: _det3(a) != 0)
)


def _invariants(b):
    """The ladder orders, (m, l), c, w2 and classification of the branch,
    or None when its data do not resolve them."""
    try:
        r = weight2(b)
    except TruncationInsufficient:
        return None
    return r.ladder.orders, r.m, r.l, r.c, r.w2, r.classification, r.sextactic_order


def _corpus_coords(rng, filled):
    """One seeded case of the laws' corpus, shaped as ``_branch_coords``
    draws them but resolving by construction: small rational coefficients,
    no coordinate zeroed, and every truncation 1 to 4 past the top order
    that the planted (m, l, c) needs.  A ``filled`` case stores every
    exponent below its truncation, so that it is dense; otherwise each
    series stores its lead and two more terms, and most such cases are
    sparse."""
    m = rng.randint(1, 4)
    l = rng.choice([2 * m, rng.randint(m + 1, 3 * m + 2)])
    c = None
    if l == 2 * m:
        c = rng.choice([v for v in range(2 * m + 1, 5 * m + 3) if v not in (3 * m, 4 * m)])
    top = max(2 * l, 4 * m, c + 2 * m if c else 0)
    trunc = top + rng.randint(1, 4)

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))

    def series(lead, fixed=()):
        coeffs = dict(fixed)
        coeffs.setdefault(lead, coeff())
        above = range(lead + 1, trunc)
        for e in above if filled else rng.sample(above, min(2, len(above))):
            coeffs[e] = coeff()
        return coeffs

    z0 = coeff()
    x = series(m)
    if c is None:
        y = series(l)
    else:
        sq = _square_over(x, z0, c)
        y = series(c, {e: v for e, v in sq.items() if e < c})
        y[c] = sq.get(c, 0) + coeff()
    z = {0: z0} if c else series(0, {0: z0})
    coords = [TruncSeries({e: v for e, v in s.items() if e < trunc}, trunc) for s in (x, y, z)]
    if rng.random() < 0.5:
        i, j = rng.sample(range(3), 2)
        coords[i] = coords[i] + coords[j] * rng.choice([-2, -1, 1, 3])
    rng.shuffle(coords)
    return coords, (m, l, c)


def _corpus():
    """The fixed corpus on which each branch law shows it is not vacuous:
    150 cases from one seeded stream, filled and sparse in turn, each with
    the invertible matrix and the two parameter changes the laws apply.
    Hypothesis's examples, which depend on the literals in the sources,
    give the laws their breadth; the floors count on this corpus only."""
    rng = random.Random("branch laws")
    corpus = []
    for k in range(150):
        case = _corpus_coords(rng, filled=k % 2 == 0)
        while True:
            a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            if _det3(a):
                break
        lam = Fraction(rng.choice([-5, -3, -1, 2, 4]), rng.randint(1, 4))
        corpus.append((case, a, lam, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))))
    return corpus


class TestBranchLaws:
    """Projective and reparametrization invariance of the branch invariants,
    on dense and on sparse storage.  Each law runs on Hypothesis's examples
    and on ``_corpus()``; its floors, which show that it compared resolved
    branches on both storages, are counted on the corpus."""

    def test_under_a_linear_change_of_coordinates(self):
        self._linear_change()
        with pytest.MonkeyPatch.context() as mp:
            choices = _spy_on_density(mp)
            compared = [_linear_law(case, a) for case, a, _, _ in _corpus()]
        assert True in choices and False in choices
        # most pairs resolve on both sides, so the law is not vacuous
        assert sum(compared) >= 100

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=_branch_coords(), a=_MATRICES)
    def _linear_change(self, case, a):
        _linear_law(case, a)

    def test_under_rescaling_the_parameter(self):
        self._rescaled()
        with pytest.MonkeyPatch.context() as mp:
            choices = _spy_on_density(mp)
            for case, _, lam, _ in _corpus():
                _rescaling_law(case, lam)
        assert True in choices and False in choices

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        case=_branch_coords(),
        lam=st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
    )
    def _rescaled(self, case, lam):
        _rescaling_law(case, lam)

    def test_under_a_quadratic_change_of_the_parameter(self):
        self._quadratic()
        sides = [_quadratic_law(case, a) for case, _, _, a in _corpus()]
        # the map fills a sparse branch's gaps: some sparse branches move to
        # the dense path, and most ladders resolve, so the law is not vacuous
        assert {(False, True), (True, True)} <= {side for side, _ in sides}
        assert sum(resolved for _, resolved in sides) >= 100

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        case=_branch_coords(),
        a=st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
    )
    def _quadratic(self, case, a):
        _quadratic_law(case, a)


def _linear_law(case, a):
    """The invariants of the branch and of its image under the matrix a
    agree, and each witness of the image, composed with a, has its order
    along the branch itself.  Returns whether both sides resolved."""
    # each coordinate as a polynomial known far past its degree, which the
    # moved branch, whose coordinates are all units, needs
    coords = case[0]
    top = 3 * max(s.trunc for s in coords)
    b = _built(([TruncSeries(s.coeffs, top) for s in coords], None))[0]
    if b is None:
        return False
    moved = BranchParam(*_image(b.coords, a))
    want, got = _invariants(b), _invariants(moved)
    if want is None or got is None:
        return False
    assert got == want
    x, y, z = (MPoly.variable(XYZ, v) for v in XYZ)
    forms = [r[0] * x + r[1] * y + r[2] * z for r in a]
    ladder = valuation_ladder(moved)
    for order, witness in zip(ladder.orders, ladder.witnesses):
        q = witness.compose(forms)
        pulled = None
        for expo, c in q.terms.items():
            term = monomial_pullback(b, expo) * c
            pulled = term if pulled is None else pulled + term
        assert pulled.trunc > order
        assert pulled.valuation() == order
    return True


def _rescaling_law(case, lam):
    """t -> lam t scales the coefficient of t^e by lam^e, so every step of
    the elimination, stalls and witnesses included, is the same."""
    b = _built(case)[0]
    if b is None:
        return
    scaled = BranchParam(
        *(TruncSeries({e: c * lam**e for e, c in s.coeffs.items()}, s.trunc) for s in b.coords)
    )
    for fn in (weight2, valuation_ladder, line_orders, hyperosculating_conic_at_branch):
        assert _outcome(fn, scaled) == _outcome(fn, b)


def _quadratic_law(case, a):
    """t -> t + a t^2 keeps each valuation and each leading coefficient, so
    every step of the elimination, stalls and witnesses included, is the
    same, and each witness of the moved branch has its order along the
    branch.  Returns ((branch dense, moved branch dense), resolved), or
    (None, False) when the case builds no branch."""
    b = _built(case)[0]
    if b is None:
        return None, False
    moved = BranchParam(*(_reparametrized(s, a) for s in b.coords))
    want = _invariants(b)
    assert _invariants(moved) == want
    for fn in (weight2, valuation_ladder, line_orders, hyperosculating_conic_at_branch):
        assert _outcome(fn, moved) == _outcome(fn, b)
    ladder = _outcome(valuation_ladder, moved)
    if isinstance(ladder, branch.ValuationLadder):
        for order, witness in zip(ladder.orders, ladder.witnesses):
            pulled = None
            for expo, c in witness.terms.items():
                term = monomial_pullback(b, expo) * c
                pulled = term if pulled is None else pulled + term
            assert pulled.trunc > order
            assert pulled.valuation() == order
    return (type(b.ints[0]) is list, type(moved.ints[0]) is list), want is not None


def _reparametrized(s, a):
    """s(t + a t^2), below the truncation of s: t^e becomes the sum over k
    of C(e, k) a^k t^(e + k)."""
    out = {}
    for e, c in s.coeffs.items():
        for k in range(s.trunc - e):
            out[e + k] = out.get(e + k, 0) + c * comb(e, k) * a**k
    return TruncSeries(out, s.trunc)


class TestWitnessesWhenRead:
    BRANCH = {"truncation": 12, "x": [[1, 1, 2]], "y": [[1, 1, 4], [1, 1, 5]], "z": [[1, 1, 0]]}

    @pytest.mark.parametrize("command, built", [("weight", 0), ("osc-branch", 1), ("ladder", 6)])
    def test_conics_built_per_command(self, tmp_path, monkeypatch, capsys, command, built):
        calls = []
        real = branch.canonical_conic
        monkeypatch.setattr(branch, "canonical_conic", lambda six: calls.append(six) or real(six))
        path = tmp_path / "b.json"
        path.write_text(json.dumps(self.BRANCH))
        assert cli.main([command, "--branch", str(path)]) == 0
        capsys.readouterr()
        assert len(calls) == built

    def test_witness_is_the_canonical_conic(self):
        # every pattern of zero entries, so that each entry in turn leads,
        # with int and with Fraction vectors; all six zero is the zero conic
        rng = random.Random("witness")
        for mask in range(64):
            for _ in range(4):
                vec = [rng.choice([-6, -3, -2, -1, 1, 2, 4, 9]) if mask >> i & 1 else 0 for i in range(6)]
                assert canonical_conic(vec) == conic(vec).canonical()
                vec = [Fraction(c, rng.randint(1, 6)) for c in vec]
                assert canonical_conic(vec) == conic(vec).canonical()

    def test_osc_branch_runs_the_public_conic_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(self.BRANCH))
        assert cli.main(["osc-branch", "--branch", str(path)]) == 0
        report = capsys.readouterr().out
        calls = []
        real = cli.hyperosculating_conic_at_branch
        monkeypatch.setattr(cli, "hyperosculating_conic_at_branch", lambda b: calls.append(b) or real(b))
        assert cli.main(["osc-branch", "--branch", str(path)]) == 0
        assert capsys.readouterr().out == report
        assert len(calls) == 1
        order, conic = real(calls[0])
        assert report == f"conic = {conic}\ncontact_order = {order}\n"
