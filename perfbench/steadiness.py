"""Steadiness evidence: run every workload over seeds 1-10, twice, and record
each end-to-end metric's median and quartiles per set.

    python3 perfbench/steadiness.py

Writes ``steadiness.json`` beside this file.  For each metric it also reports
the spread (q3 - q1) / median of each set and the shift between the two
sets' medians, the figures the bounds in BENCHMARK.json are set against.
Runs one benchmark process at a time.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "steadiness.json"
SETS = 2
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"run_seconds": bench["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in gen.ROUND_SECONDS:
        sets = []
        for s in range(SETS):
            runs = []
            for seed in SEEDS:
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                print(f"{workload} set {s + 1} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
            sets.append({k: stats([r[k] for r in runs]) for k in runs[0]} | {"values": runs})
        entry = {"sets": sets}
        for m in bench["end_to_end"]:
            name = m["name"]
            meds = [st[name]["median"] for st in sets]
            entry[name] = {
                "bound": m["bound"],
                "max_spread": max(st[name]["spread"] for st in sets),
                "median_shift": (max(meds) - min(meds)) / min(meds),
            }
        report["workloads"][workload] = entry
    OUT.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
