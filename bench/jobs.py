"""Seeded job lists for the four benchmark workloads.

A workload is a fixed cycle of job templates (command, graph family, n, k,
simulation settings). The corpus instantiates the cycle CORPUS_CYCLES times
with fresh seeded graphs, so one run sees distinct graphs until it wraps.
Every slot of a cycle keeps its command and size for every seed; only the
graph edges (and the simulate links and leader states) change with the seed.
That keeps the per-run job-time distribution the same across seeds.

Graphs are generated here, not with the library's own generator, so that a
change to the library cannot change the benchmark's inputs. The program sees
them only as edge-list files.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

CORPUS_CYCLES = 24

# (command, family, n, k) slots. A "se-set" slot reuses the graph of the
# slot right before it, which must be a k=1 "nash" slot: the checker compares
# the two answers. The big-n slots are few, so that at the baseline commit a
# 20 s run still holds more than 110 jobs and so leaves at least ten above
# the 90th percentile. Slot sizes are chosen so that the median and the 90th
# percentile fall inside a group of similar jobs, not in a gap between two
# groups, where they would jump with small changes in the mix.
SINGLE_LINK = (
    ("outcome", "random", 8, 1),
    ("outcome", "random", 12, 1),
    ("outcome", "random", 12, 1),
    ("outcome", "random", 14, 1),
    ("nash", "random", 9, 1),
    ("se-set", "same", 9, 1),
    ("nash", "random", 11, 1),
    ("se-set", "same", 11, 1),
    ("nash", "random", 16, 1),
    ("se-set", "same", 16, 1),
    ("security", "random", 10, 1),
    ("security", "random", 13, 1),
    ("security", "random", 12, 1),
    ("outcome", "random", 22, 1),
    ("nash", "star", 10, 1),
    ("outcome", "path", 12, 1),
    ("nash", "cycle", 14, 1),
    ("nash", "circulant", 16, 1),
)

MULTI_LINK = (
    ("outcome", "random", 6, 2),
    ("nash", "random", 7, 2),
    ("outcome", "random", 6, 3),
    ("nash", "random", 8, 2),
    ("outcome", "random", 7, 2),
    ("nash", "random", 6, 2),
    ("outcome", "random", 7, 3),
    ("nash", "random", 5, 2),
    ("outcome", "random", 8, 2),
    ("nash", "random", 7, 2),
    ("outcome", "random", 8, 3),
    ("nash", "random", 6, 3),
    ("outcome", "random", 7, 2),
    ("nash", "random", 6, 2),
    ("outcome", "random", 8, 2),
    ("nash", "random", 7, 3),
    ("outcome", "random", 5, 2),
    ("nash", "random", 6, 2),
)

VALIDATE = (
    ("verify", "random", 5, 1),
    ("verify", "random", 6, 2),
    ("verify", "random", 5, 2),
    ("verify", "random", 7, 1),
    ("verify", "random", 6, 2),
    ("verify", "random", 5, 1),
    ("verify", "random", 7, 2),
    ("reconstruct-example2", None, 6, 1),
    ("verify", "random", 5, 2),
    ("verify", "random", 6, 1),
    ("verify", "random", 6, 2),
    ("verify", "random", 5, 1),
    ("verify", "random", 9, 1),
    ("verify", "random", 5, 2),
    ("verify", "random", 7, 2),
    ("verify", "random", 6, 2),
)

# (n, t_end, dt, leader-0 link count, leader-1 link count). dt is lowered to
# the simulator's stability limit 1 / (2 (max degree + 2)) when it exceeds it.
# Small dense graphs converge before t_end; large sparse ones stop at the
# horizon with converged=False. The three n=40 slots take the same number of
# steps whatever the graph, so the 90th percentile sits inside their group.
SIMULATE = (
    (6, 200, 0.04, 2, 1),
    (8, 150, 0.03, 1, 1),
    (10, 100, 0.02, 1, 2),
    (12, 50, 0.02, 3, 1),
    (14, 75, 0.025, 2, 2),
    (40, 200, 0.04, 1, 1),
    (20, 60, 0.025, 2, 2),
    (24, 50, 0.02, 1, 1),
    (30, 120, 0.04, 2, 3),
    (40, 200, 0.04, 1, 2),
    (8, 60, 0.02, 2, 2),
    (18, 120, 0.04, 1, 3),
    (6, 100, 0.025, 1, 2),
    (40, 200, 0.04, 2, 1),
)

WORKLOADS = {
    "single-link": SINGLE_LINK,
    "multi-link": MULTI_LINK,
    "validate": VALIDATE,
    "simulate": SIMULATE,
}

# Random-graph density: each non-tree pair becomes an edge with this
# probability. The simulate workload uses sparser graphs (about three extra
# edges per vertex) so that the large ones stay within RK4 step limits and
# converge slowly.
EXTRA_EDGE_PROB = 0.35


@dataclass
class Job:
    """One CLI call: ``argv`` plus what the checker needs to judge it."""

    index: int
    command: str
    argv: list
    family: str | None = None
    n: int = 0
    k: int = 1
    edges: tuple = ()
    pair_of: int | None = None
    sim: dict = field(default_factory=dict)

    @property
    def strategies(self) -> int:
        return math.comb(self.n, self.k)

    @property
    def entries(self) -> int:
        """Exact outcome-matrix entries this job delivers (N^2), else 0."""
        if self.command in ("outcome", "security") or (
            self.command == "nash" and self.family not in ("cycle", "circulant")
        ):
            return self.strategies ** 2
        return 0


def random_connected(rng: random.Random, n: int, p: float) -> tuple:
    """Random recursive tree plus independent extra edges, as sorted pairs."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return tuple(sorted(edges))


def family_graph(family: str, n: int) -> tuple:
    if family == "star":
        pairs = [(1, j) for j in range(2, n + 1)]
    elif family == "path":
        pairs = [(i, i + 1) for i in range(1, n)]
    elif family in ("cycle", "circulant"):
        offsets = (1,) if family == "cycle" else (1, 3)
        pairs = [(i, (i + o - 1) % n + 1) for o in offsets for i in range(1, n + 1)]
    else:
        raise ValueError(f"unknown family {family!r}")
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs}))


def edge_list_text(n: int, edges: tuple) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def max_degree(n: int, edges: tuple) -> int:
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg)


def _graph_job(index, slot, rng, prev, path):
    command, family, n, k = slot
    if family == "same":
        return Job(index, command, ["se-set", "--graph", prev.argv[2]], prev.family,
                   n, k, prev.edges, pair_of=prev.index)
    edges = random_connected(rng, n, EXTRA_EDGE_PROB) if family == "random" else family_graph(family, n)
    argv = [command, "--graph", str(path), "--k", str(k)]
    if command == "verify":
        argv += ["--seed", str(rng.randrange(1000))]
    return Job(index, command, argv, family, n, k, edges)


def _simulate_job(index, slot, rng, path):
    n, t_end, dt, nb, nd = slot
    edges = random_connected(rng, n, min(EXTRA_EDGE_PROB, 3.0 / n))
    dt = min(dt, 1.0 / (2.0 * (max_degree(n, edges) + 2)))
    b = sorted(rng.sample(range(1, n + 1), nb))
    d = sorted(rng.sample(range(1, n + 1), nd))
    y0 = rng.choice((-1, -2, 0))
    y1 = y0 + rng.choice((1, 2, 3))
    argv = ["simulate", "--graph", str(path), "--b", ",".join(map(str, b)),
            "--d", ",".join(map(str, d)), "--y0", str(y0), "--y1", str(y1),
            "--t-end", str(t_end), "--dt", repr(dt)]
    sim = {"b": b, "d": d, "y0": y0, "y1": y1, "t_end": float(t_end), "dt": dt}
    return Job(index, "simulate", argv, "random", n, 1, edges, sim=sim)


def build_corpus(workload: str, seed: int, directory: Path, cycles: int = CORPUS_CYCLES) -> list:
    """Generate the seeded job list and write its graphs as edge-list files.

    The same (workload, seed, cycles) always gives the same jobs and files.
    """
    cycle = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for c in range(cycles):
        for s, slot in enumerate(cycle):
            index = c * len(cycle) + s
            path = directory / f"g{index:05d}.txt"
            if workload == "simulate":
                job = _simulate_job(index, slot, rng, path)
            elif slot[0] == "reconstruct-example2":
                job = Job(index, "reconstruct-example2", ["reconstruct-example2"])
            else:
                job = _graph_job(index, slot, rng, jobs[-1] if jobs else None, path)
            if job.edges and job.pair_of is None:
                path.write_text(edge_list_text(job.n, job.edges), encoding="utf-8")
            jobs.append(job)
    return jobs
