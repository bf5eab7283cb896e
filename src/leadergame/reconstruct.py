"""Recover the six-follower hub benchmark graph from its outcome matrix.

The benchmark publishes only the single-link outcome matrix, rounded to four
decimal places, for a 6-vertex graph in which vertex 1 is a center node. The
hub edges are therefore forced, and the ten possible rim edges among vertices
2..6 leave 1024 candidates; exact matrices decide which candidates reproduce
the published values. Each candidate's matrix is read row by row from
``game.outcome_rows`` and dropped at the first row that misses.
"""
from __future__ import annotations

import itertools
import math

from .game import enumerate_strategies, outcome_rows
from .graphs import Graph, build_graph

BENCHMARK_N = 6
BENCHMARK_HUB = 1

# Published single-link outcome matrix, four decimal places.
BENCHMARK_MATRIX_4DP = (
    (0.5, 0.3889, 0.4455, 0.4712, 0.4712, 0.4455),
    (0.6111, 0.5, 0.5526, 0.5753, 0.5753, 0.5526),
    (0.5545, 0.4474, 0.5, 0.5273, 0.5246, 0.5),
    (0.5288, 0.4247, 0.4727, 0.5, 0.5, 0.4754),
    (0.5288, 0.4247, 0.4754, 0.5, 0.5, 0.4727),
    (0.5545, 0.4474, 0.5, 0.5246, 0.5273, 0.5),
)

# Per-entry tolerance consistent with round-to-4-decimals.
BENCHMARK_TOL = 5e-5

HUB_EDGES = tuple((BENCHMARK_HUB, j) for j in range(2, BENCHMARK_N + 1))
RIM_PAIRS = tuple(itertools.combinations(range(2, BENCHMARK_N + 1), 2))


def hub_candidates():
    """All 2^10 graphs on six vertices whose vertex 1 is a center node."""
    for mask in range(1 << len(RIM_PAIRS)):
        rim = [RIM_PAIRS[t] for t in range(len(RIM_PAIRS)) if mask >> t & 1]
        yield build_graph(BENCHMARK_N, list(HUB_EDGES) + rim)


def matches_benchmark(g: Graph, matrix=BENCHMARK_MATRIX_4DP, tol: float = BENCHMARK_TOL) -> bool:
    """True iff every exact single-link outcome of g is within ``tol`` of the
    published entry. Rows are compared in order with an early exit; ``tol``
    must be finite and nonnegative."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    rows = outcome_rows(g, enumerate_strategies(g.n, 1))
    for row, published in zip(rows, matrix, strict=True):
        if any(abs(float(u) - p) > tol for u, p in zip(row, published, strict=True)):
            return False
    return True


def reconstruct_benchmark(tol: float = BENCHMARK_TOL) -> list:
    """Brute-force search over all hub candidates; returns every match."""
    return [g for g in hub_candidates() if matches_benchmark(g, tol=tol)]


def rim_edges(g: Graph) -> list:
    """The candidate's edges among vertices 2..6, sorted."""
    return sorted(e for e in g.edges if BENCHMARK_HUB not in e)
