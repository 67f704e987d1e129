"""One workload in a fresh interpreter: run its job list through
``sextactic.cli.main(argv)`` in-process with stdout captured, time each job,
then check every output.  An untraced run also times the start-up of about
SETUP_SPAWNS fresh interpreters, one after every few jobs, outside the job
clock, and times a fixed calibration loop at least every CAL_EVERY_S
seconds, to scale each time to a reference machine speed.  Prints one JSON
result line on stdout.

Run by ``run.py``.  It finds the library source and its sibling modules from
its own path, not from the environment: ``PYTHONPATH`` cannot name a checkout
whose path holds the path separator, and ``PYTHONSAFEPATH`` drops the
script's directory from ``sys.path``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import gen  # noqa: E402
import sextactic.cli  # noqa: E402
from spans import SETUP_CODE, Tracer  # noqa: E402

REFERENCE = Path(__file__).with_name("reference.json")
SETUP_SPAWNS = 31
# The host's speed swings by up to half within seconds, and CPU time swings
# with it, so a raw time says as much about the host as about the program.
# Each job and start-up time is scaled by CAL_REF_S over the calibration
# loop's time next to it: the time it would take on a host where the loop
# takes CAL_REF_S.  The loop uses only the standard library, so no change to
# the program moves it.
CAL_EVERY_S = 0.05
CAL_REF_S = 1e-3
CAL_NEIGHBOURS = 2  # samples taken on each side of a timed interval
CAL_WARMUP = 10  # samples before the loop; the last is the first jobs' neighbour


def calibration_loop():
    """Fixed pure-Python work like the library's inner loops: Fraction
    arithmetic, big-integer products and a dict keyed by exponent tuples."""
    acc, terms = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        terms[(i % 5, i % 7, i % 3)] = terms.get((i % 5, i % 7, i % 3), 0) + acc.numerator * i
    return acc, terms


class Calibration:
    """Calibration-loop times, each at the moment it was taken."""

    def __init__(self):
        self.at = []
        self.took = []

    def sample(self):
        t0 = perf_counter()
        calibration_loop()
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def due(self):
        return perf_counter() - self.at[-1] >= CAL_EVERY_S

    def scale(self, start, seconds):
        """``seconds`` timed from ``start``, at the reference speed: scaled by
        the median of the samples nearest to it on either side."""
        k = bisect.bisect_left(self.at, start)
        near = self.took[max(0, k - CAL_NEIGHBOURS) : k + CAL_NEIGHBOURS]
        return seconds * CAL_REF_S / statistics.median(near)


def digest(job, rc, out):
    """Hash of a job's input, exit code and stdout, as the reference stores it."""
    text = f"{job.key()}\n{rc}\n{out}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def run_job(job, workdir):
    """(exit code, stdout, stderr, seconds spent in cli.main, start time)."""
    argv = [str(workdir / a) if a in job.files else a for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = sextactic.cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc = "crash"
            traceback.print_exc(file=err)
        t1 = perf_counter()
    return rc, out.getvalue(), err.getvalue(), t1 - t0, t0


def setup_seconds():
    """(wall time of a fresh interpreter importing the CLI and building its
    parser, start time)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
    return perf_counter() - t0, t0


def write_files(jobs, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        for name, text in job.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


def failure(job, rc, out, err, want):
    """None when the job's outcome is correct, else a message.  ``want`` is
    the reference digest, or None when the job has no reference."""
    if want is not None and digest(job, rc, out) != want:
        return f"exit code or stdout differs from the reference (exit {rc})"
    if rc == 0:
        return checks.check(job, out)
    if want is not None and rc == 1 and err.startswith("error: "):
        return None  # a named domain error recorded at the reference commit
    return f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.ROUND_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    jobs = gen.make_jobs(args.workload, args.seed, args.seconds)
    write_files(jobs, args.workdir)
    reference = []
    if args.seed == gen.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[args.workload]

    tracer = Tracer() if args.trace else None
    run_job(jobs[0], args.workdir)  # warm-up, untimed: first-call lazy set-up
    setup = []
    cal = Calibration()
    if tracer:
        tracer.install()
        tracer.active = True
    else:
        setup_seconds()  # discarded: writes the bytecode caches
        stride = -(-len(jobs) // SETUP_SPAWNS)
        for _ in range(CAL_WARMUP):
            cal.sample()
    results = []
    t_start = perf_counter()
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job_id = i
        results.append(run_job(job, args.workdir))
        if tracer:
            continue
        if cal.due():
            cal.sample()
        if i % stride == stride - 1:
            # Start-up samples spread over the whole run, so that their median
            # sees the same swings in machine speed as the jobs do.
            setup.append(setup_seconds())
            cal.sample()
    wall = perf_counter() - t_start
    if tracer:
        tracer.active = False
        tracer.uninstall()
    else:
        wall -= sum(t for t, _ in setup) + sum(cal.took[CAL_WARMUP:])
        cal.sample()  # the right-hand neighbour of the last jobs

    failures = []
    for i, (job, (rc, out, err, *_)) in enumerate(zip(jobs, results)):
        try:
            msg = failure(job, rc, out, err, reference[i] if i < len(reference) else None)
        except Exception as e:  # output the checks cannot read is a wrong output
            msg = f"unreadable output ({type(e).__name__}: {e})"
        if msg:
            failures.append(f"{job.kind}: {msg}")
    result = {
        "jobs": len(jobs),
        "rounds": gen.rounds_for(args.workload, args.seconds),
        "wall_s": wall,
        "job_s": [r[3] for r in results],
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if not tracer:
        result["scaled_job_s"] = [cal.scale(r[4], r[3]) for r in results]
        result["setup_s"] = statistics.median(t for t, _ in setup)
        result["scaled_setup_s"] = statistics.median(cal.scale(t0, t) for t, t0 in setup)
        result["cal_s"] = statistics.median(cal.took)
        result["cal_ref_s"] = CAL_REF_S
    if tracer:
        agg, errors = tracer.summary([r[3] for r in results])
        result["layers"] = agg
        result["counts"] = dict(tracer.counts)
        result["spans"] = len(tracer.start)
        result["trace_errors"] = errors[:20]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
