"""Benchmark entry point for the ``sextactic`` command-line calculator.

    python3 perfbench/run.py --workload implicit|param|local --seed N \
        --seconds S --trace 0|1

Runs from the root of a source checkout.  The workload's seeded job list
runs in one fresh child interpreter (``worker.py``); this process stays
single and waits for it.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` a second, traced child gives the
per-layer metrics, and ``python -X importtime`` splits the start-up time by
module.  Exits 1 when any output is wrong, 2 when there is nothing to run.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import MODULES, SETUP_CODE  # noqa: E402

IMPORTTIME_SPAWNS = 5
CHILD_TIMEOUT_S = 170


def import_self_us():
    """Median ``-X importtime`` self time of each library module, in us."""
    samples = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[0].split(":")[1]))
    return {m: statistics.median(v) for m, v in samples.items() if v}


def run_worker(args, trace):
    workdir = tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--workdir", workdir,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(n):
    """Highest whole percentile with at least ten samples above its rank."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def end_to_end(res, scaled=True):
    """The end-to-end metrics: times at the reference machine speed, or, with
    ``scaled=False``, as the clock read them."""
    jobs = res["scaled_job_s" if scaled else "job_s"]
    p = tail_percentile(len(jobs)) or 100
    return p, {
        "jobs_per_s": (res["jobs"] / (sum(jobs) if scaled else res["wall_s"]), "1/s"),
        "job_p50_ms": (statistics.median(jobs) * 1e3, "ms"),
        "job_tail_ms": (percentile(jobs, p) * 1e3, "ms"),
        "setup_s": (res["scaled_setup_s" if scaled else "setup_s"], "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024, "MB"),
    }


def per_layer(untraced, traced, imports):
    out = {}
    for name, fields in LAYER_FIELDS:
        spans = traced["layers"].get(name, {})
        for field in fields:
            value = spans.get(field, traced["counts"].get(f"{name}.{field}", 0))
            out[f"{name}.{field}"] = (value, UNITS.get(field, "count"))
    for m in MODULES:
        out[f"import.{m}.self_us"] = (imports.get(m, 0), "us")
    out["trace.jobs_per_s"] = (traced["jobs"] / traced["wall_s"], "1/s")
    out["trace.untraced_jobs_per_s"] = (untraced["jobs"] / untraced["wall_s"], "1/s")
    return out


UNITS = {"busy_s": "s", "self_s": "s", "in_max_bits": "bits", "bytes": "bytes", "chars": "chars"}
LAYER_FIELDS = [
    ("poly.mul", ("calls", "self_s", "term_pairs", "out_terms")),
    ("poly.str", ("self_s", "chars")),
    ("poly.squarefree_decomp", ("calls", "busy_s", "in_degree", "in_max_bits")),
    ("poly.binaryform_gcd", ("busy_s",)),
    ("poly.exact_div", ("calls", "self_s")),
    ("poly.det", ("calls_n3", "calls_n5", "calls_n6", "busy_s", "self_s")),
    ("poly.compose", ("busy_s",)),
    ("poly.linear_factor_orders", ("busy_s",)),
    ("rational.conic_wronskian", ("busy_s", "self_s")),
    ("rational.osculating_conic_family", ("busy_s",)),
    ("rational.pullback", ("busy_s",)),
    ("rational.RationalParam", ("busy_s",)),
    ("differential.hessian", ("busy_s", "self_s")),
    ("differential.covariants", ("busy_s", "self_s")),
    ("differential.second_hessian", ("busy_s", "self_s")),
    ("differential.osculating_conic", ("busy_s", "self_s")),
    ("series.mul", ("calls", "self_s", "coeff_pairs")),
    ("series.sub", ("calls",)),
    ("branch.valuation_ladder", ("busy_s", "self_s")),
    ("branch.line_orders", ("busy_s", "self_s")),
    ("branch.weight2", ("busy_s", "self_s")),
    ("branch.hyperosculating_conic_at_branch", ("busy_s", "self_s")),
    ("parse.parse_poly", ("calls", "busy_s", "bytes")),
    ("parse.parse_param", ("calls", "busy_s", "bytes")),
    ("parse.parse_point", ("calls", "busy_s", "bytes")),
    ("parse.parse_branch", ("calls", "busy_s", "bytes")),
    ("parse.parse_profile", ("calls", "busy_s", "bytes")),
    ("census", ("busy_s",)),
    ("cli.main", ("self_s",)),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.ROUND_SECONDS))
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "sextactic" / "cli.py").is_file():
        print(f"no library source at {SRC}: run from a source checkout", file=sys.stderr)
        return 2

    untraced = run_worker(args, 0)
    failures = list(untraced["failures"])
    if args.trace:
        traced = run_worker(args, 1)
        failures += traced["failures"] + [f"trace self-check: {e}" for e in traced["trace_errors"]]
        metrics = per_layer(untraced, traced, import_self_us())
        print(f"# {args.workload} seed {args.seed}: {traced['spans']} spans")
        print(f"tracing overhead: {metrics['trace.untraced_jobs_per_s'][0]:.3f} jobs/s untraced, "
              f"{metrics['trace.jobs_per_s'][0]:.3f} jobs/s traced")
    else:
        p, metrics = end_to_end(untraced)
        n = untraced["jobs"]
        print(f"# {args.workload} seed {args.seed}: {n} jobs in {untraced['rounds']} rounds, "
              f"{untraced['wall_s']:.3f} s; job_tail_ms is p{p} of {n} jobs")
        print(f"# calibration loop: median {untraced['cal_s'] * 1e3:.4f} ms, reference "
              f"{untraced['cal_ref_s'] * 1e3:g} ms; unscaled, as the clock read them:")
        for name, (value, unit) in end_to_end(untraced, scaled=False)[1].items():
            print(f"#   {name} = {value:.6g} {unit}")
        print(f"fail_rate = {len(untraced['failures'])}/{n} = {len(untraced['failures']) / n:g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": untraced["jobs"],
        "failed": len(untraced["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
