"""Record the reference outcomes of the default seed's job lists.

    python3 perfbench/record_reference.py

Run once at the commit whose outputs are taken as correct.  For each
workload it stores, per job in order, a digest of the job's input, exit code
and stdout; a benchmark run with the default seed then fails any job whose
digest differs.  The job lists are those of BENCHMARK.json's run_seconds.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gen
from worker import REFERENCE, digest, run_job, write_files

ROOT = Path(__file__).resolve().parents[1]


def main():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    reference = {}
    for workload in sorted(gen.ROUND_SECONDS):
        jobs = gen.make_jobs(workload, gen.DEFAULT_SEED, seconds)
        write_files(jobs, workdir)
        reference[workload] = []
        for job in jobs:
            rc, out, *_ = run_job(job, workdir)
            reference[workload].append(digest(job, rc, out))
        print(f"{workload}: {len(jobs)} jobs", file=sys.stderr)
    shutil.rmtree(workdir)
    REFERENCE.write_text(json.dumps(reference, indent=0) + "\n")


if __name__ == "__main__":
    main()
