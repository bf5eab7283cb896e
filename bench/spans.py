"""Span tracing for the benchmark's traced run.

The tracer wraps named public functions of each ``leadergame`` layer in every
``leadergame`` module that binds them (the defining module and each module
that imported the name), records one span per call, and restores the
originals when it is removed. The library's source is not touched.

Spans live in flat arrays (function, parent span, job, start, end) while the
run lasts and are written out when it ends. A span's self time is its
duration minus the durations of its child spans; calls are synchronous, so
children never overlap.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# layer -> wrapped public functions of leadergame.<layer>
TARGETS = {
    "cli": ("main",),
    "graphs": ("load_edge_list", "laplacian", "is_connected", "is_circulant_labeled", "center_vertices"),
    "exactmat": ("solve_rational", "determinant_int", "adjugate_int", "spanning_tree_count"),
    "containment": ("grounded", "convex_weights", "steady_state", "payoffs"),
    "game": (
        "outcome_entry", "outcome_matrix", "enumerate_strategies", "security_sets",
        "game_values", "nash_equilibria", "se_set", "compare_half",
        "grounded_adjugate_sum", "m_ij", "shortcut_optimal", "neighborhood_dominance",
    ),
    "simulate": ("simulate", "trajectory_csv", "terminal_residual"),
    "reconstruct": ("reconstruct_benchmark", "matches_benchmark"),
    "verify": ("run_checks",),
}

# The security/saddle scan, reported as one figure.
SCAN = ("game.nash_equilibria", "game.game_values", "game.security_sets")


class Tracer:
    """Records spans for calls into the wrapped functions while installed."""

    def __init__(self):
        self.names = []
        self.fn = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job_id = -1
        self.den_bits_max = 0
        self.rk4_steps = 0
        self._bindings = self._wrap_targets()

    def _wrap(self, name, func, on_result):
        fid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        fn, parent, job, start, end, stack = (
            self.fn, self.parent, self.job, self.start, self.end, self.stack)

        def wrapper(*args, **kwargs):
            sid = len(start)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _entry_result(self, value):
        self.den_bits_max = max(self.den_bits_max, value.denominator.bit_length())

    def _simulate_result(self, traj):
        # The CLI and verify record every step (record_stride 1).
        self.rk4_steps += len(traj.times) - 1

    def _wrap_targets(self) -> list:
        """(module, name, original, wrapper) for every binding of every target."""
        hooks = {"game.outcome_entry": self._entry_result, "simulate.simulate": self._simulate_result}
        modules = [m for key, m in sys.modules.items() if key == "leadergame" or key.startswith("leadergame.")]
        bindings = []
        for layer, funcs in TARGETS.items():
            home = sys.modules[f"leadergame.{layer}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, hooks.get(f"{layer}.{fname}"))
                bindings += [(mod, fname, original, wrapper)
                             for mod in modules if mod.__dict__.get(fname) is original]
        return bindings

    def install(self) -> None:
        for mod, fname, _, wrapper in self._bindings:
            setattr(mod, fname, wrapper)

    def remove(self) -> None:
        for mod, fname, original, _ in self._bindings:
            setattr(mod, fname, original)

    def arrays(self) -> dict:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def self_times(a: dict) -> np.ndarray:
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    return dur - child


def layer_metrics(tracer: Tracer, jobs: list, job_walls: list, stdout_bytes: int) -> dict:
    """Per-layer figures from the spans of one traced pass over ``jobs``.

    Raises ValueError when the spans are inconsistent: a negative self time,
    or a job whose spans' self times add up to more than its wall time.
    """
    a = tracer.arrays()
    selft = self_times(a)
    if len(selft) and selft.min() < -1e-9:
        raise ValueError("negative span self time: spans do not nest")
    per_job = np.bincount(a["job"], weights=selft, minlength=len(jobs))
    for jid, wall in enumerate(job_walls):
        if per_job[jid] > wall + 1e-9:
            raise ValueError(f"job {jid}: layer self times {per_job[jid]} exceed wall time {wall}")

    ids = {name: i for i, name in enumerate(tracer.names)}
    nfn = len(tracer.names)
    calls = np.bincount(a["fn"], minlength=nfn)
    self_s = np.bincount(a["fn"], weights=selft, minlength=nfn)

    def c(name):
        return int(calls[ids[name]])

    def s(*names):
        return float(sum(self_s[ids[n]] for n in names))

    def layer(name):
        return s(*(f"{name}.{f}" for f in TARGETS[name]))

    entry_jobs = np.array([j.entries > 0 for j in jobs], dtype=bool)
    entries = sum(j.entries for j in jobs)
    in_entry_job = entry_jobs[a["job"]]

    def per_entry(name):
        return float(np.count_nonzero(in_entry_job & (a["fn"] == ids[name])) / entries) if entries else 0.0

    match_calls = c("reconstruct.matches_benchmark")
    has_parent = a["parent"] >= 0
    parent_fn = np.full(len(a["fn"]), -1)
    parent_fn[has_parent] = a["fn"][a["parent"][has_parent]]
    match_entries = np.count_nonzero((a["fn"] == ids["game.outcome_entry"])
                                     & (parent_fn == ids["reconstruct.matches_benchmark"]))

    return {
        "cli.main.self_s": s("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
        "graphs.laplacian.calls": c("graphs.laplacian"),
        "graphs.is_connected.calls": c("graphs.is_connected"),
        "graphs.is_connected.per_entry": per_entry("graphs.is_connected"),
        "graphs.self_s": layer("graphs"),
        "exactmat.solve_rational.calls": c("exactmat.solve_rational"),
        "exactmat.solve_rational.self_s": s("exactmat.solve_rational"),
        "exactmat.determinant_int.calls": c("exactmat.determinant_int"),
        "exactmat.determinant_int.self_s": s("exactmat.determinant_int"),
        "exactmat.adjugate_int.calls": c("exactmat.adjugate_int"),
        "exactmat.adjugate_int.self_s": s("exactmat.adjugate_int"),
        "exactmat.solves_per_entry": per_entry("exactmat.solve_rational"),
        "containment.grounded.calls": c("containment.grounded"),
        "containment.self_s": layer("containment"),
        "game.outcome_entry.calls": c("game.outcome_entry"),
        "game.outcome_entry.self_s": s("game.outcome_entry"),
        "game.outcome_matrix.self_s": s("game.outcome_matrix"),
        "game.scan.self_s": s(*SCAN),
        "game.se_set.self_s": s("game.se_set"),
        "game.compare_half.calls": c("game.compare_half"),
        "game.grounded_adjugate_sum.calls": c("game.grounded_adjugate_sum"),
        "game.m_ij.calls": c("game.m_ij"),
        "game.entry_den_bits_max": tracer.den_bits_max,
        "simulate.simulate.self_s": s("simulate.simulate"),
        "simulate.rk4_steps": tracer.rk4_steps,
        "simulate.trajectory_csv.self_s": s("simulate.trajectory_csv"),
        "simulate.terminal_residual.self_s": s("simulate.terminal_residual"),
        "reconstruct.matches_benchmark.calls": match_calls,
        "reconstruct.matches_benchmark.self_s": s("reconstruct.matches_benchmark"),
        "reconstruct.entries_per_candidate": float(match_entries / match_calls) if match_calls else 0.0,
        "verify.run_checks.self_s": s("verify.run_checks"),
    }
