"""Record the stdout digest of every job in the default seed's corpus.

    python3 bench/record_digests.py [workload ...]

Writes bench/digests.json, which run.py then enforces for the default seed:
each job's stdout must stay byte-identical. Every output is checked before
its digest is recorded. ``simulate`` is left out on purpose: its CSV is
floating point, and a change to the RK4 arithmetic that keeps every check
within tolerance may still move the last printed digit.
"""
from __future__ import annotations

import json
import shutil
import sys

import run

RECORDED = ("single-link", "multi-link", "validate")


def record(cli, workload: str) -> dict:
    import check
    import jobs as jobs_mod

    workdir = run.WORK / f"digests-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        jobs = jobs_mod.build_corpus(workload, run.DEFAULT_SEED, workdir)
        checker = check.Checker(run.DEFAULT_SEED)
        table = {}
        for job in jobs:
            rc, out, err, _ = run.run_job(cli, job.argv)
            digest = run.stdout_digest(out)
            why = checker.failure(job, rc, out, err, digest)
            if why is not None:
                raise SystemExit(f"job {job.index} {' '.join(job.argv)} failed its check: {why}")
            table[str(job.index)] = digest
        return table
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv) -> int:
    cli = run.import_library()
    names = argv or RECORDED
    data = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.is_file() else {}
    for workload in names:
        if workload not in RECORDED:
            raise SystemExit(f"no digests are kept for {workload!r}")
        data[workload] = record(cli, workload)
        print(f"{workload}: {len(data[workload])} digests", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
