"""Benchmark for the leadergame CLI: one workload per process, closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload single-link --seed 0 --seconds 20 --trace 0

Each job is one ``leadergame`` CLI command run in-process through
``leadergame.cli.main(argv)`` with stdout and stderr captured in memory; one
client, no threads, no subprocesses. Jobs run in whole cycles of the
workload's job mix until at least ``--seconds`` of job time and MIN_JOBS jobs
have passed. Every job's output is checked outside the timer.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` a fixed job list (TRACE_CYCLES cycles) runs once untraced and
once traced, and the last line holds the per-layer metrics. Everything else
goes to stderr.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import jobs as jobs_mod  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

DEFAULT_SEED = 0
SETUP_REPEATS = 5
# At least ten jobs above the 90th percentile.
MIN_JOBS = 110
# Probes on each side of a job that set its speed scale.
PROBE_WINDOW = 3
# Cycles in the traced run's fixed job list; about 8 s untraced at the
# baseline commit, so per-layer counts repeat exactly for a given seed.
TRACE_CYCLES = {"single-link": 3, "multi-link": 3, "validate": 3, "simulate": 4}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(jobs_mod.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "leadergame" / "__init__.py").is_file():
        raise SystemExit(f"bench: no leadergame sources under {src}")
    sys.path.insert(0, str(src))
    import leadergame.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "leadergame").resolve():
        raise SystemExit(f"bench: imported leadergame from {cli.__file__}, not from {src}")
    return cli


def run_job(cli, argv) -> tuple:
    """Run one CLI call in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
    secs = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), secs


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(workload: str, seed: int) -> dict:
    """Recorded stdout digests by job index; only for the default seed."""
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return {}
    table = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    return {int(k): v for k, v in table.items()}


class Clocked:
    """Runs CLI jobs with a machine-speed probe after each one.

    Job j sits between probes j and j + 1. Its scaled time is the measured
    time times NOMINAL_S over the median of the PROBE_WINDOW probes on each
    side of it (see calibrate.py).
    """

    def __init__(self, cli):
        self.cli = cli
        self.raw = []
        self.probes = [calibrate.probe()]

    def run(self, argv) -> tuple:
        rc, out, err, secs = run_job(self.cli, argv)
        self.probes.append(calibrate.probe())
        self.raw.append(secs)
        return rc, out, err, secs

    def scaled(self) -> list:
        p, w = self.probes, PROBE_WINDOW
        return [secs * calibrate.NOMINAL_S / statistics.median(p[max(0, j - w + 1):j + w + 1])
                for j, secs in enumerate(self.raw)]


class Loop:
    """Runs jobs in cycles, checks each one, and keeps per-job figures."""

    def __init__(self, cli, checker, jobs, cycle_len, log):
        self.checker, self.jobs, self.cycle_len, self.log = checker, jobs, cycle_len, log
        self.clock = Clocked(cli)
        self.good = []
        self.failed = 0
        self.entries = self.rk4_steps = 0

    @property
    def attempted(self) -> int:
        return len(self.good)

    def cycle(self, c: int) -> tuple:
        """Run cycle ``c``; returns (measured job seconds, [(job, stdout digest)])."""
        wall, ran = 0.0, []
        for s in range(self.cycle_len):
            job = self.jobs[(c * self.cycle_len + s) % len(self.jobs)]
            rc, out, err, secs = self.clock.run(job.argv)
            wall += secs
            digest = stdout_digest(out)
            why = self.checker.failure(job, rc, out, err, digest)
            self.good.append(why is None)
            if why is None:
                self.entries += job.entries
                if job.command == "simulate":
                    self.rk4_steps += out.count("\n") - 2
            else:
                self.failed += 1
                self.log(f"FAILED job {job.index} {' '.join(job.argv)}: {why}")
            ran.append((job, digest))
        return wall, ran


def _environment(workload: str, seed: int) -> dict:
    import numpy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def _setup(workload: str, seed: int, workdir: Path) -> tuple:
    """Write the corpus SETUP_REPEATS times; returns (jobs, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        jobs = jobs_mod.build_corpus(workload, seed, workdir)
        times.append(time.perf_counter() - t0)
    return jobs, statistics.median(times)


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """End-to-end metrics; ``setup_s`` is the raw set-up time.

    Set-up is scaled by the median of all the run's probes: it is too short
    to have probes of its own, and the run's median follows the slow drift
    of the machine's speed, not its short bursts.
    """
    times = loop.clock.scaled()
    size = loop.cycle_len
    rates = [sum(loop.good[c:c + size]) / sum(times[c:c + size]) for c in range(0, len(times), size)]
    return {
        "setup_s": setup_s * calibrate.NOMINAL_S / statistics.median(loop.clock.probes),
        "jobs_per_s": statistics.median(rates),
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def with_units(values: dict, kind: str) -> dict:
    """Attach BENCHMARK.json's unit to each of its ``kind`` metrics, in its order."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


def traced_run(cli, loop: Loop, cycles: int, workload: str, log) -> dict:
    """Per-layer metrics from a fixed job list of ``cycles`` cycles.

    Each cycle runs untraced (checked, timed) and then again under the
    tracer; a traced job whose stdout differs from its untraced run counts
    as failed. Alternating the two keeps machine drift out of the overhead.
    Raises ValueError when the spans are inconsistent.
    """
    import spans

    tracer = spans.Tracer()
    clock = Clocked(loop.clock.cli)
    jobs, out_bytes = [], 0
    for c in range(cycles):
        _, ran = loop.cycle(c)
        tracer.install()
        try:
            for job, digest in ran:
                tracer.job_id = len(jobs)
                rc, out, err, _ = clock.run(job.argv)
                jobs.append(job)
                out_bytes += len(out.encode("utf-8"))
                if rc != 0 or stdout_digest(out) != digest:
                    loop.failed += 1
                    log(f"FAILED traced job {job.index}: output differs from the untraced run")
        finally:
            tracer.remove()
    tracer.write(WORK / f"spans-{workload}.npz")
    metrics = spans.layer_metrics(tracer, jobs, clock.raw, out_bytes)
    untraced_s = sum(loop.clock.scaled())
    metrics["game.entries_per_s"] = loop.entries / untraced_s
    metrics["simulate.rk4_steps_per_s"] = loop.rk4_steps / untraced_s
    metrics["trace.overhead_frac"] = sum(clock.scaled()) / untraced_s - 1.0
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    log = lambda msg: print(msg, file=sys.stderr, flush=True)  # noqa: E731
    cli = import_library()
    import check

    import_s = time.perf_counter() - T0
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        jobs, corpus_s = _setup(args.workload, args.seed, workdir)
        setup_s = import_s + corpus_s
        env = _environment(args.workload, args.seed)
        log("env " + json.dumps(env))
        checker = check.Checker(args.seed, load_digests(args.workload, args.seed))
        loop = Loop(cli, checker, jobs, len(jobs_mod.WORKLOADS[args.workload]), log)
        if args.trace:
            try:
                layer = traced_run(cli, loop, TRACE_CYCLES[args.workload], args.workload, log)
                metrics = with_units(layer, "per_layer")
            except ValueError as exc:
                log(f"FAILED trace consistency: {exc}")
                metrics = {}
        else:
            elapsed, c = 0.0, 0
            while elapsed < args.seconds or loop.attempted < MIN_JOBS:
                elapsed += loop.cycle(c)[0]
                c += 1
            metrics = with_units(end_to_end(loop, setup_s), "end_to_end")
        log(f"summary jobs={loop.attempted} failed={loop.failed} "
            f"error_frac={loop.failed / loop.attempted:.4g} "
            f"raw_setup_s={setup_s:.4g} raw_job_s={sum(loop.clock.raw):.3f} "
            f"raw_p50_s={statistics.median(loop.clock.raw):.4g} "
            f"probe_median_s={statistics.median(loop.clock.probes):.4g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": loop.failed == 0 and bool(metrics),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
