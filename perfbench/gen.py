"""Seeded job lists for the benchmark workloads.

A job list is a sequence of rounds.  Every round of a workload has the same
composition (job kinds, degrees, branch shapes) and draws fresh coefficients
from ``random.Random(f"{workload}/{seed}/{round}")``, so the same seed gives
the same inputs, a longer run only appends rounds, and the cost of a run
depends little on the seed.  The program sees only the generated command
lines and files; ``Job.facts`` carries what the generator planted, for the
correctness checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

DEFAULT_SEED = 1

# Wall seconds one round takes at the seed commit (2-vCPU x86-64 host,
# CPython 3.11).  A run of ``seconds`` gets round(seconds / ROUND_SECONDS)
# rounds: the job list is fixed by (seed, seconds), never by the clock.
ROUND_SECONDS = {"implicit": 4.5, "param": 3.1, "local": 0.35}

# d=3 four times and d=6 twice per round, so that the median job falls
# inside the band of d=3 hessian2 and d=6 hessian jobs, and job_tail_ms
# inside the d=6 hessian2 class, not on the edge between two classes.
IMPLICIT_DEGREES = (3, 3, 3, 3, 4, 5, 6, 6)
IMPLICIT_COEFFS = 5  # dense curves, integer coefficients in [-5, 5]
# One round holds five parametrizations.  ``wronski`` runs on the degree-4
# ones only: a dense d=5 or d=6 wronski takes 0.3-3.7 s or 2.5-7.1 s by seed
# (the gcd / rational-root path), too few fit in a run to keep its throughput
# steady across seeds.  The other job kinds run at every degree.  Two d=6
# parametrizations make their ``--omega --at`` jobs the largest class, about
# twenty a run, so that job_tail_ms (the eleventh largest job) falls inside
# it.  Each parametrization gets PARAM_ORDERS ``orders`` jobs, the only
# millisecond jobs here, so that they are over half the list and job_p50_ms
# falls inside them, not on the edge between two classes.
PARAM_DEGREES = (4, 4, 5, 6, 6)
PARAM_WRONSKI_DEGREES = (4,)
PARAM_ORDERS = 6
PARAM_COEFFS = 3  # dense binary forms, integer coefficients in [-3, 3]
LOCAL_MULTIPLICITIES = (1, 2, 3, 4, 5)
LOCAL_TRUNCATION = (20, 80)

_PRIME = 2**31 - 1


@dataclass
class Job:
    kind: str
    argv: list
    files: dict = field(default_factory=dict)  # name -> text, named in argv
    facts: dict = field(default_factory=dict)

    def key(self) -> str:
        return json.dumps([self.argv, self.files], sort_keys=True)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def make_jobs(workload: str, seed: int, seconds: float):
    build = {"implicit": _implicit_round, "param": _param_round, "local": _local_round}[
        workload
    ]
    jobs = []
    for r in range(rounds_for(workload, seconds)):
        jobs.extend(build(random.Random(f"{workload}/{seed}/{r}"), r))
    return jobs


# -- polynomial text ------------------------------------------------------------


def poly_text(terms, variables) -> str:
    """Input-grammar text of {exponent tuple: int}, highest terms first."""
    parts = []
    for expo in sorted(terms, reverse=True):
        c = terms[expo]
        if not c:
            continue
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(variables, expo) if e
        )
        mag = abs(c)
        body = mono if mono and mag == 1 else f"{mag}*{mono}" if mono else str(mag)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) or "0"


def _ternary_monomials(d):
    return [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]


def _eval(terms, point):
    total = 0
    for expo, c in terms.items():
        v = c
        for x, e in zip(point, expo):
            v *= x**e
        total += v
    return total


def _partial(terms, i):
    out = {}
    for expo, c in terms.items():
        if expo[i]:
            e = list(expo)
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), 0) + c * expo[i]
    return out


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# -- implicit: dense plane curves with a planted rational point -------------------


def _implicit_round(rng, r):
    jobs = []
    for k, d in enumerate(IMPLICIT_DEGREES):
        terms, point = _planted_curve(rng, d)
        F = poly_text(terms, "xyz")
        pt = f"({point[0]}:{point[1]}:1)"
        variant = "cayley1865" if (r * len(IMPLICIT_DEGREES) + k) % 3 == 2 else "corrected"
        facts = {"d": d, "point": [point[0], point[1], 1], "variant": variant}
        argv = ["hessian2", "--normalize", "--implicit", F]
        if variant != "corrected":
            argv += ["--variant", variant]
        jobs.append(Job("hessian2", argv, facts=facts))
        jobs.append(Job("osculate", ["osculate", "--implicit", F, "--point", pt], facts=facts))
        jobs.append(Job("hessian", ["hessian", "--implicit", F], facts=facts))
    return jobs


def _planted_curve(rng, d):
    """Dense degree-d curve through (a:b:1), smooth and not inflectional there.
    |a|, |b| <= 1 keeps the adjusted z^d coefficient within 5 * (d+1)(d+2)/2."""
    while True:
        terms = {e: rng.randint(-IMPLICIT_COEFFS, IMPLICIT_COEFFS) for e in _ternary_monomials(d)}
        a, b = rng.randint(-1, 1), rng.randint(-1, 1)
        zd = (0, 0, d)
        terms[zd] -= _eval(terms, (a, b, 1))
        p = (a, b, 1)
        grad = [_eval(_partial(terms, i), p) for i in range(3)]
        hess = [[_eval(_partial(_partial(terms, i), j), p) for j in range(3)] for i in range(3)]
        if any(grad) and _det3(hess):
            return terms, (a, b)


# -- param: rational parametrizations ---------------------------------------------


def _param_round(rng, r):
    jobs = []
    for d in PARAM_DEGREES:
        forms = _param_forms(rng, d)
        P = "(" + " : ".join(poly_text(f, "st") for f in forms) + ")"
        at = _parameter(rng)
        while _family_vanishes(forms, d, at):
            at = _parameter(rng)
        facts = {"d": d, "forms": P}
        if d in PARAM_WRONSKI_DEGREES:
            jobs.append(Job("wronski", ["wronski", "--param", P], facts=facts))
        jobs.append(Job("omega", ["wronski", "--omega", "--param", P], facts=facts))
        jobs.append(
            Job(
                "omega_at",
                ["wronski", "--omega", "--param", P, "--at", _ptext(at)],
                facts={**facts, "at": list(at)},
            )
        )
        for _ in range(PARAM_ORDERS):
            planted = _parameter(rng)
            others = [_parameter(rng) for _ in range(2)]
            G = _planted_cubic(rng, _param_point(forms, planted))
            at_list = ",".join(_ptext(v) for v in [planted] + others)
            jobs.append(
                Job(
                    "orders",
                    ["orders", "--param", P, "--poly", poly_text(G, "xyz"), "--at", at_list],
                    facts={**facts, "n_at": 3},
                )
            )
    return jobs


def _ptext(at):
    return f"({at[0]}:{at[1]})"


def _parameter(rng):
    while True:
        s0, t0 = rng.randint(-3, 3), rng.randint(-3, 3)
        if gcd(s0, t0) == 1:
            return (s0, t0)


def _param_forms(rng, d):
    """Three dense degree-d forms: coprime, spanning a curve on no conic."""
    while True:
        forms = [
            {(i, d - i): rng.randint(-PARAM_COEFFS, PARAM_COEFFS) for i in range(d, -1, -1)}
            for _ in range(3)
        ]
        if _coprime(forms, d) and _rank(_products(forms, d)) == 6:
            return forms


def _products(forms, d):
    """Coefficient vectors of the six pairwise products phi_i * phi_j."""
    vecs = []
    for i in range(3):
        for j in range(i, 3):
            v = [0] * (2 * d + 1)
            for (a, _), c in forms[i].items():
                for (b, _), k in forms[j].items():
                    v[a + b] += c * k
            vecs.append(v)
    return vecs


def _family_vanishes(forms, d, at):
    """Whether the osculating conic family is zero at ``at``: the fourth
    derivatives of the six products there have rank < 5."""
    s0, t0 = at
    rows = []
    for r in range(5):
        row = []
        for v in _products(forms, d):
            row.append(sum(
                c * _falling(i, 4 - r) * _falling(2 * d - i, r)
                * s0 ** max(i - 4 + r, 0) * t0 ** max(2 * d - i - r, 0)
                for i, c in enumerate(v)
            ))
        rows.append(row)
    return _rank(rows) < 5


def _falling(n, k):
    out = 1
    for j in range(k):
        out *= n - j
    return out


def _rank(rows):
    rows = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _coprime(forms, d):
    """No common root on P^1; a gcd mod a large prime may only overstate."""
    if not any(f[(d, 0)] for f in forms):  # common root (1 : 0)
        return False
    g = []
    for f in forms:
        u = [f[(i, d - i)] % _PRIME for i in range(d + 1)]
        g = _gcd_mod(g, u)
    return len(g) <= 1


def _gcd_mod(a, b):
    def trim(u):
        while u and not u[-1]:
            u = u[:-1]
        return u

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            f = a[-1] * inv % _PRIME
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % _PRIME
            a = trim(a)
        a, b = b, a
    return a


def _param_point(forms, at):
    s0, t0 = at
    return tuple(sum(c * s0**i * t0**j for (i, j), c in f.items()) for f in forms)


def _planted_cubic(rng, point):
    """Integer cubic through ``point``: adjust the x_i^3 term of a random cubic."""
    i = next(k for k, v in enumerate(point) if v)
    cube = tuple(3 if k == i else 0 for k in range(3))
    terms = {e: rng.randint(-3, 3) for e in _ternary_monomials(3)}
    terms[cube] = 0
    if not any(terms.values()):
        terms[(1, 1, 1) if cube != (1, 1, 1) else (2, 1, 0)] = 1
    value = _eval(terms, point)
    terms = {e: c * point[i] ** 3 for e, c in terms.items()}
    terms[cube] = -value
    g = 0
    for c in terms.values():
        g = gcd(g, c)
    return {e: c // g for e, c in terms.items()}


# -- local: unibranched points, profiles built from them ---------------------------


def _local_round(rng, r):
    records = []
    for m in LOCAL_MULTIPLICITIES:
        l_other = rng.choice([l for l in range(m + 1, 2 * m + 4) if l != 2 * m])
        for l in (2 * m, l_other):
            records.append(_branch_record(rng, m, l))
    jobs = []
    for i, rec in enumerate(records):
        name = f"r{r}_b{i}.json"
        facts = {k: rec[k] for k in ("m", "l", "c")}
        for kind in ("weight", "ladder", "osc-branch"):
            jobs.append(Job(kind, [kind, "--branch", name], {name: rec["text"]}, facts))
    profile = _profile(records)
    name = f"r{r}_profile.json"
    text = json.dumps(profile, indent=1)
    facts = {"d": profile["d"], "n_points": len(profile["points"])}
    for kind in ("count", "predict39"):
        jobs.append(Job(kind, [kind, "--profile", name], {name: text}, facts))
    for p in profile["points"]:
        if p["role"] != "cusp":
            continue
        argv = ["check-lemma37", "--ms", ",".join(map(str, p["multiplicity_sequence"])),
                "--d", str(profile["d"]), "--l", str(p["l"])]
        if "c" in p:
            argv += ["--c", str(p["c"])]
        jobs.append(Job("check-lemma37", argv, facts={"m": p["m"], "l": p["l"]}))
    return jobs


def _small_rational(rng):
    num = rng.choice([v for v in range(-3, 4) if v])
    return Fraction(num, rng.randint(1, 3))


def _series(rng, lead, trunc, fixed=None):
    """{exponent: Fraction}: fixed low part, t^lead, then random higher terms."""
    coeffs = dict(fixed or {})
    coeffs.setdefault(lead, Fraction(1))
    for e in range(lead + 1, trunc):
        if rng.random() < 0.5:
            coeffs[e] = _small_rational(rng)
    return coeffs


def _branch_record(rng, m, l):
    """Branch (t^m + ... : t^l + ... : 1); for l = 2m the conic order c is planted
    by making y agree with x^2 below t^c and differ at t^c."""
    trunc = rng.randint(*LOCAL_TRUNCATION)
    x = _series(rng, m, trunc)
    c = None
    if l != 2 * m:
        y = _series(rng, l, trunc)
    else:
        allowed = [v for v in range(2 * m + 1, min(5 * m + 3, trunc - 1)) if v not in (3 * m, 4 * m)]
        c = rng.choice(allowed)
        sq = {}
        for e1, c1 in x.items():
            for e2, c2 in x.items():
                if e1 + e2 <= c:
                    sq[e1 + e2] = sq.get(e1 + e2, 0) + c1 * c2
        y = _series(rng, c, trunc, fixed={e: v for e, v in sq.items() if v})
        y[c] = sq.get(c, 0) + _small_rational(rng)
    data = {
        "truncation": trunc,
        "x": _entries(x),
        "y": _entries(y),
        "z": [[1, 1, 0]],
    }
    return {"m": m, "l": l, "c": c, "text": json.dumps(data)}


def _entries(coeffs):
    return [[v.numerator, v.denominator, e] for e, v in sorted(coeffs.items()) if v]


def _multiplicity_sequence(m, order):
    """A sequence m, ..., m, r making ``order`` = k*m + r attainable (Lemma 3.7)."""
    k = (order - 1) // m
    r = order - k * m
    return [m] * k + ([r] if r > 1 else [])


def _profile(records):
    """Complete cuspidal profile: the round's cusps, its inflection and smooth
    records, and simple inflections filling the Pluecker count, at the least
    degree where genus, inflection count and sextactic count stay >= 0."""
    points = []
    for rec in records:
        m, l, c = rec["m"], rec["l"], rec["c"]
        if m > 1:
            ms = _multiplicity_sequence(m, c if l == 2 * m else l)
            p = {"role": "cusp", "m": m, "l": l, "multiplicity_sequence": ms}
        elif l == 2:
            p = {"role": "smooth_sextactic_candidate", "m": 1, "l": 2}
        else:
            p = {"role": "inflection", "m": 1, "l": l}
        if c is not None:
            p["c"] = c
        points.append(p)
    cusps = [p for p in points if p["role"] == "cusp"]
    infl = [p for p in points if p["role"] == "inflection"]
    delta = sum(v * (v - 1) // 2 for p in cusps for v in p["multiplicity_sequence"])
    d = max([3] + [p["l"] for p in points] + [-(-p.get("c", 0) // 2) for p in points])
    while True:
        g = (d - 1) * (d - 2) // 2 - delta
        v = 3 * d * (d - 2) - sum(
            6 * sum(u * (u - 1) // 2 for u in p["multiplicity_sequence"]) + p["m"] + p["l"] - 3
            for p in cusps
        ) - sum(p["l"] - 2 for p in infl)
        weights = sum(
            10 * p["m"] + p["c"] - 15 if p["l"] == 2 * p["m"] else 4 * p["m"] + 4 * p["l"] - 15
            for p in cusps + infl
        ) + v  # each filler inflection (l = 3) weighs 1
        if g >= 0 and v >= 0 and 6 * (2 * d + 5 * g - 5) - weights >= 0:
            break
        d += 1
    filler = [{"role": "inflection", "m": 1, "l": 3} for _ in range(v)]
    return {"d": d, "points": points + filler}
