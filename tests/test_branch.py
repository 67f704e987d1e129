"""Valuation ladders against closed forms and brute-force oracles."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poly_reference import line_orders_reference, valuation_ladder_reference
from sextactic import branch, cli
from sextactic.branch import (
    BranchError,
    BranchParam,
    CONIC_BASIS,
    NonPrimitiveBranch,
    TruncationInsufficient,
    closed_form_ladder,
    cusp_contact_constraints,
    hyperosculating_conic_at_branch,
    line_orders,
    valuation_ladder,
    weight2,
)
from sextactic.poly import XYZ, MPoly, veronese
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
    pulls = [b.monomial_pullback(e) for e in CONIC_BASIS]
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
    pulls = [b.monomial_pullback(e) for e in CONIC_BASIS]
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
                term = b.monomial_pullback(expo) * c
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
                assert pull == b.monomial_pullback(expo)


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
        assert hyperosculating_conic_at_branch(b) == MPoly(
            XYZ, {(2, 0, 0): 1, (0, 1, 1): -1}
        )

    def test_tail_at_triple_of_m(self):
        # b = 3m: the special conic needs the quadratic correction term and
        # meets the branch with order 5, strictly above the naive family
        b = mk_branch({1: 1}, {2: 1, 3: 1}, {0: 1}, 12)
        conic = hyperosculating_conic_at_branch(b)
        assert conic == MPoly(
            XYZ, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): -1, (0, 1, 1): -1}
        )
        pull = None
        for expo, c in conic.terms.items():
            term = b.monomial_pullback(expo) * c
            pull = term if pull is None else pull + term
        rep = weight2(b)
        assert rep.c == 5
        assert pull.valuation() == 5

    def test_inflection_doubles_the_tangent(self):
        b = mk_branch({1: 1}, {3: 1}, {0: 1}, 12)
        assert hyperosculating_conic_at_branch(b) == MPoly(XYZ, {(0, 2, 0): 1})

    def test_irreducible_when_tangent_degenerate(self):
        b = mk_branch({2: 1}, {4: 1, 7: 1}, {0: 1}, 14)
        conic = hyperosculating_conic_at_branch(b)
        # contact order is the special one, not the ladder maximum
        rep = weight2(b)
        assert rep.c == 7
        pull = None
        for expo, c in conic.terms.items():
            term = b.monomial_pullback(expo) * c
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

    def test_malformed_sequence(self):
        with pytest.raises(BranchError):
            cusp_contact_constraints([2, 3], 5)
        with pytest.raises(BranchError):
            cusp_contact_constraints([], 5)


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
def _branches(draw):
    """(branch or None, (m, l, c) when the branch must show them).

    The branch is (x : y : z) with x = a t^m + ..., y = b t^l + ... and
    z = z0 + ...; for l = 2m, z is the constant z0 and y agrees with x^2 / z0
    below t^c, which plants the conic order c.  Then each coordinate is cut
    at its own truncation, one may be set to zero, one may gain an integer
    multiple of another, and the three are shuffled.  None when no
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
        sq = {}
        for (e1, c1), (e2, c2) in itertools.product(x.items(), repeat=2):
            if e1 + e2 <= c:
                sq[e1 + e2] = sq.get(e1 + e2, 0) + c1 * c2 / z0
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
    coords = draw(st.permutations(coords))
    try:
        b = BranchParam(*coords)
    except NonPrimitiveBranch:
        return None, None
    return b, None if zeroed else (m, l, c)


def _outcome(fn, b):
    try:
        return fn(b)
    except TruncationInsufficient as e:
        return ("stall", e.needed, e.stalled_at)
    except BranchError as e:  # NonPrimitiveBranch, a ladder of the wrong shape
        return (type(e).__name__, str(e))


class TestFractionFreeLadder:
    """The integer elimination against the exact rational one it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=_branches())
    def test_matches_the_rational_elimination(self, case):
        b, planted = case
        if b is None:
            return
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
            want_conic = _outcome(branch._hyperosculating, b)
        report = _outcome(weight2, b)
        assert report == want_report
        assert _outcome(branch._hyperosculating, b) == want_conic
        if planted and isinstance(report, branch.WeightReport):
            assert (report.m, report.l, report.c) == planted


class TestWitnessesWhenRead:
    BRANCH = {"truncation": 12, "x": [[1, 1, 2]], "y": [[1, 1, 4], [1, 1, 5]], "z": [[1, 1, 0]]}

    @pytest.mark.parametrize("command, built", [("weight", 0), ("osc-branch", 1), ("ladder", 6)])
    def test_conics_built_per_command(self, tmp_path, monkeypatch, capsys, command, built):
        calls = []
        real = branch.conic
        monkeypatch.setattr(branch, "conic", lambda six: calls.append(six) or real(six))
        path = tmp_path / "b.json"
        path.write_text(json.dumps(self.BRANCH))
        assert cli.main([command, "--branch", str(path)]) == 0
        capsys.readouterr()
        assert len(calls) == built
