"""Span tracing from outside the library: wrap the public entry points of each
``sextactic`` module, record one span per call, and count work at the same
boundaries.

A wrapper is installed under every name a caller can look the function up by
(``poly.squarefree_decomp`` and ``rational.squarefree_decomp`` alike), and on
both ``__mul__`` and ``__rmul__``.  Spans live in flat arrays until the run
ends; ``summary()`` turns them into per-layer metrics and checks them
against the job times the caller clocked.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = (
    "sextactic", "sextactic.poly", "sextactic.series", "sextactic.branch",
    "sextactic.census", "sextactic.rational", "sextactic.parse",
    "sextactic.differential", "sextactic.fixtures", "sextactic.cli",
)
# Most a root span may fall short of the caller's clock around it: the
# wrapper's own bookkeeping, plus room for a garbage-collector pass.
WRAPPER_SLACK_S = 2e-3
# What every command-line invocation pays before it does any work.  Run it as
# ``python -c SETUP_CODE <library source directory>``.
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import sextactic.cli as c; c.build_parser()"


def _bits(poly):
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
        default=0,
    )


def _count_poly_mul(tr, args, out):
    a, b = args
    tr.counts["poly.mul.term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
    tr.counts["poly.mul.out_terms"] += len(out.terms)


def _count_series_mul(tr, args, out):
    a, b = args
    tr.counts["series.mul.coeff_pairs"] += len(a.coeffs) * (
        len(b.coeffs) if hasattr(b, "coeffs") else 1
    )


def _count_squarefree(tr, args, out):
    f = args[0]
    tr.counts["poly.squarefree_decomp.in_degree"] += f.degree()
    key = "poly.squarefree_decomp.in_max_bits"
    tr.counts[key] = max(tr.counts[key], _bits(f))


def _count_det(tr, args, out):
    tr.counts[f"poly.det.calls_n{args[0].rows}"] += 1


def _count_bytes(name):
    def count(tr, args, out):
        tr.counts[f"{name}.bytes"] += len(args[0])
    return count


def _count_chars(tr, args, out):
    tr.counts["poly.str.chars"] += len(out)


# (module, attribute path, span name, counter)
TARGETS = [
    ("sextactic.poly", "MPoly.__mul__", "poly.mul", _count_poly_mul),
    ("sextactic.poly", "MPoly.__rmul__", "poly.mul", _count_poly_mul),
    ("sextactic.poly", "MPoly.__str__", "poly.str", _count_chars),
    ("sextactic.poly", "MPoly.compose", "poly.compose", None),
    ("sextactic.poly", "PolyMatrix.det", "poly.det", _count_det),
    ("sextactic.poly", "exact_div", "poly.exact_div", None),
    ("sextactic.poly", "squarefree_decomp", "poly.squarefree_decomp", _count_squarefree),
    ("sextactic.poly", "binaryform_gcd", "poly.binaryform_gcd", None),
    ("sextactic.poly", "linear_factor_orders", "poly.linear_factor_orders", None),
    ("sextactic.series", "TruncSeries.__mul__", "series.mul", _count_series_mul),
    ("sextactic.series", "TruncSeries.__rmul__", "series.mul", _count_series_mul),
    ("sextactic.series", "TruncSeries.__sub__", "series.sub", None),
    ("sextactic.differential", "hessian", "differential.hessian", None),
    ("sextactic.differential", "covariants", "differential.covariants", None),
    ("sextactic.differential", "second_hessian", "differential.second_hessian", None),
    ("sextactic.differential", "osculating_conic", "differential.osculating_conic", None),
    ("sextactic.branch", "valuation_ladder", "branch.valuation_ladder", None),
    ("sextactic.branch", "line_orders", "branch.line_orders", None),
    ("sextactic.branch", "weight2", "branch.weight2", None),
    ("sextactic.branch", "hyperosculating_conic_at_branch", "branch.hyperosculating_conic_at_branch", None),
    ("sextactic.rational", "RationalParam.__init__", "rational.RationalParam", None),
    ("sextactic.rational", "osculating_conic_family", "rational.osculating_conic_family", None),
    ("sextactic.rational", "conic_wronskian", "rational.conic_wronskian", None),
    ("sextactic.rational", "pullback", "rational.pullback", None),
    ("sextactic.census", "CurveProfile.build", "census", None),
    ("sextactic.census", "PointRecord.__post_init__", "census", None),
    ("sextactic.census", "sextactic_count", "census", None),
    ("sextactic.census", "inflection_count", "census", None),
    ("sextactic.census", "intersection_identities", "census", None),
    ("sextactic.census", "predicted_hessian_order", "census", None),
    ("sextactic.census", "predicted_hessian2_order", "census", None),
    ("sextactic.cli", "main", "cli.main", None),
] + [
    ("sextactic.parse", fn, f"parse.{fn}", _count_bytes(f"parse.{fn}"))
    for fn in ("parse_poly", "parse_param", "parse_point", "parse_branch", "parse_profile")
]


class Tracer:
    """In-memory span recorder.  Spans are recorded only while ``active``."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self.outer = array("b")  # 1 unless nested in a span of the same name
        self.stack = [-1]
        self.depth = []
        self.counts = defaultdict(int)
        self.job_id = -1
        self.active = False
        self._undo = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
            self.depth.append(0)
        return self.names.index(name)

    def wrap(self, name, fn, count=None):
        nid = self._name_id(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.parent.append(tr.stack[-1])
            tr.name.append(nid)
            tr.job.append(tr.job_id)
            tr.outer.append(tr.depth[nid] == 0)
            tr.depth[nid] += 1
            tr.stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.stack.pop()
                tr.depth[nid] -= 1
                tr.start[idx] = t0
                tr.end[idx] = t1
            if count is not None:
                count(tr, args, out)
            return out

        return traced

    def install(self):
        """Wrap every target wherever a ``sextactic`` module binds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for modname, path, name, count in TARGETS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            if isinstance(orig, classmethod):
                wrapped = classmethod(self.wrap(name, orig.__func__, count))
            else:
                wrapped = self.wrap(name, orig, count)
            self._set(owner, attr, wrapped)
            if not outer:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, key, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self, job_s):
        """(per-name aggregates, self-check failures).

        Self time is a span's duration minus its direct children's.  The
        check requires children to lie inside their parent without
        overlapping, and one ``cli.main`` root per job.  It then compares each
        job's summed self times with ``job_s``, the job's time as the caller
        clocked it around ``cli.main``: the two may differ by no more than
        the root wrapper's own cost.
        """
        n = len(self.start)
        child = [0.0] * n
        last_end = {}
        errors = []
        root_of = {}
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                if self.names[self.name[i]] != "cli.main" or self.job[i] in root_of:
                    errors.append(f"span {i} ({self.names[self.name[i]]}) is a stray root")
                root_of[self.job[i]] = i
                continue
            if self.job[p] != self.job[i]:
                errors.append(f"span {i} crosses jobs")
            if not (self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]):
                errors.append(f"span {i} leaves its parent {p}")
            if self.start[i] < last_end.get(p, self.start[p]):
                errors.append(f"span {i} overlaps a sibling")
            last_end[p] = self.end[i]
            child[p] += self.end[i] - self.start[i]
        agg = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        job_self = defaultdict(float)
        for i in range(n):
            dur = self.end[i] - self.start[i]
            own = dur - child[i]
            a = agg[self.names[self.name[i]]]
            a["calls"] += 1
            a["self_s"] += own
            if self.outer[i]:
                a["busy_s"] += dur
            job_self[self.job[i]] += own
        for job, clocked in enumerate(job_s):
            if job not in root_of:
                errors.append(f"job {job} has no cli.main span")
            elif not -1e-9 <= clocked - job_self[job] <= WRAPPER_SLACK_S + 0.01 * clocked:
                errors.append(
                    f"job {job}: self times sum to {job_self[job]:.6f} s, clocked {clocked:.6f} s"
                )
        return dict(agg), errors
