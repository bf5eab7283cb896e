"""Self-tests for the benchmark harness.

    python3 bench/selftest.py

A smoke run of each workload on a tiny job list, the trace metrics against
BENCHMARK.json, and corrupted outputs that the checker must count as failed.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import unittest

import run

cli = run.import_library()

import check  # noqa: E402
import jobs as jobs_mod  # noqa: E402
import spans  # noqa: E402

# Cheap slots of each workload's first cycle; single-link keeps a
# nash/se-set pair and both shortcut and full-matrix nash jobs.
TINY = {
    "single-link": (0, 4, 5, 14, 16),
    "multi-link": (0, 1),
    "validate": (0, 1, 7),
    "simulate": (0, 1),
}


def tiny_loop(workload: str, cli_obj=cli, digests=None) -> run.Loop:
    workdir = run.WORK / f"selftest-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    corpus = jobs_mod.build_corpus(workload, run.DEFAULT_SEED, workdir, cycles=1)
    picked = [corpus[i] for i in TINY[workload]]
    return run.Loop(cli_obj, check.Checker(run.DEFAULT_SEED, digests), picked, len(picked), lambda msg: None)


class Corrupting:
    """Stands in for ``leadergame.cli``: runs the real command, then damages
    its stdout with ``corrupt(argv, text)``."""

    def __init__(self, corrupt):
        self.corrupt = corrupt

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        sys.stdout.write(self.corrupt(argv, buf.getvalue()))
        return rc


def flip_fraction(argv, text):
    """Replace the first off-diagonal entry that is not 1/2 by 1 minus it."""
    if argv[0] != "outcome":
        return text
    data = json.loads(text)
    rows = data["matrix"]
    i, j = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if i != j and v != "1/2")
    num, den = map(int, rows[i][j].split("/"))
    rows[i][j] = f"{den - num}/{den}"
    return json.dumps(data, separators=(",", ":")) + "\n"


def shift_terminal_row(argv, text):
    """Move every follower state of the last CSV row by 1e-3."""
    head, _, last = text.rstrip("\n").rpartition("\n")
    vals = last.split(",")
    n = len(vals) - 3
    vals[1:n + 1] = [f"{float(v) + 1e-3:.12g}" for v in vals[1:n + 1]]
    return head + "\n" + ",".join(vals) + "\n"


class SmokeTest(unittest.TestCase):
    def test_each_workload_passes(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                loop = tiny_loop(workload)
                loop.cycle(0)
                self.assertEqual(loop.attempted, len(TINY[workload]))
                self.assertEqual(loop.failed, 0)
                metrics = run.end_to_end(loop, setup_s=0.1)
                self.assertEqual(set(metrics), {m["name"] for m in run.SPEC["end_to_end"]})
                self.assertTrue(all(v > 0 for v in metrics.values()))

    def test_traced_run_reports_every_layer_metric(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                loop = tiny_loop(workload)
                layer = run.traced_run(cli, loop, 1, workload, lambda msg: None)
                self.assertEqual(loop.failed, 0)
                self.assertEqual(set(layer), {m["name"] for m in run.SPEC["per_layer"]})

    def test_traced_counts_add_up_over_cycles(self):
        one = run.traced_run(cli, tiny_loop("multi-link"), 1, "multi-link", lambda msg: None)
        two = run.traced_run(cli, tiny_loop("multi-link"), 2, "multi-link", lambda msg: None)
        counts = [name for name in one if name.endswith(".calls")]
        self.assertTrue(one["game.outcome_entry.calls"] > 0)
        self.assertEqual({n: 2 * one[n] for n in counts}, {n: two[n] for n in counts})

    def test_workload_names_match(self):
        self.assertEqual({w["name"] for w in run.SPEC["workloads"]}, set(jobs_mod.WORKLOADS))


class CorruptionTest(unittest.TestCase):
    def test_flipped_fraction_is_an_error(self):
        loop = tiny_loop("multi-link", Corrupting(flip_fraction))
        loop.cycle(0)
        self.assertEqual((loop.attempted, loop.failed), (2, 1))

    def test_shifted_terminal_row_is_an_error(self):
        loop = tiny_loop("simulate", Corrupting(shift_terminal_row))
        loop.cycle(0)
        self.assertEqual((loop.attempted, loop.failed), (2, 2))

    def test_digest_mismatch_is_an_error(self):
        loop = tiny_loop("multi-link", digests={0: "0" * 64})
        loop.cycle(0)
        self.assertEqual((loop.attempted, loop.failed), (2, 1))


class SpanTest(unittest.TestCase):
    def test_child_longer_than_parent_is_rejected(self):
        tracer = spans.Tracer()
        tracer.names = ["cli.main"]
        for fid, parent, start, end in ((0, -1, 0.0, 1.0), (0, 0, 0.0, 2.0)):
            tracer.fn.append(fid)
            tracer.parent.append(parent)
            tracer.job.append(0)
            tracer.start.append(start)
            tracer.end.append(end)
        with self.assertRaises(ValueError):
            spans.layer_metrics(tracer, [], [2.0], 0)


def tearDownModule():
    for workload in TINY:
        shutil.rmtree(run.WORK / f"selftest-{workload}", ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
