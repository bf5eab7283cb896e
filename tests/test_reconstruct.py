import math

import pytest

from leadergame.game import enumerate_strategies, nash_equilibria, outcome_entry, outcome_matrix
from leadergame.graphs import center_vertices, is_connected
from leadergame.reconstruct import (
    BENCHMARK_MATRIX_4DP,
    BENCHMARK_TOL,
    hub_candidates,
    matches_benchmark,
    reconstruct_benchmark,
    rim_edges,
)


def test_published_matrix_is_involutive_to_four_places():
    m = BENCHMARK_MATRIX_4DP
    for i in range(6):
        assert m[i][i] == 0.5
        for j in range(6):
            assert abs(m[i][j] + m[j][i] - 1.0) < 1e-9


def test_candidate_space():
    candidates = list(hub_candidates())
    assert len(candidates) == 1024
    assert all(is_connected(g) for g in candidates)
    assert all(1 in center_vertices(g) for g in candidates)
    assert len({g.edges for g in candidates}) == 1024


def test_reconstruction_is_unique():
    matches = reconstruct_benchmark()
    assert len(matches) == 1
    assert rim_edges(matches[0]) == [(3, 4), (4, 5), (5, 6)]


def test_reconstructed_graph_reproduces_every_entry():
    g = reconstruct_benchmark()[0]
    u = outcome_matrix(g, 1)
    for i in range(6):
        for j in range(6):
            assert abs(float(u.entries[i][j]) - BENCHMARK_MATRIX_4DP[i][j]) <= BENCHMARK_TOL


def test_reconstructed_graph_hub_pair_is_optimal():
    g = reconstruct_benchmark()[0]
    report = nash_equilibria(outcome_matrix(g, 1))
    assert report.upper_value == report.lower_value
    assert 0 in report.security_set
    assert (0, 0) in report.nash_pairs


def test_near_miss_candidate_fails():
    # drop one rim edge from the true graph: the matrix must change visibly
    from leadergame.graphs import build_graph

    g = build_graph(6, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (3, 4), (4, 5)])
    assert not matches_benchmark(g)


def entrywise_match(g):
    """Early-exit scan with one independent n x n solve per entry."""
    s = enumerate_strategies(g.n, 1)
    return all(
        abs(float(outcome_entry(g, si, sj)) - BENCHMARK_MATRIX_4DP[si.index][sj.index])
        <= BENCHMARK_TOL
        for si in s
        for sj in s
    )


def test_row_scan_agrees_with_entrywise_scan():
    verdicts = [(matches_benchmark(g), entrywise_match(g)) for g in hub_candidates()]
    assert len(verdicts) == 1024
    assert all(rows == entries for rows, entries in verdicts)
    assert sum(rows for rows, _ in verdicts) == 1


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_bad_tolerance_rejected(tol):
    g = next(hub_candidates())
    with pytest.raises(ValueError, match="tolerance"):
        matches_benchmark(g, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        reconstruct_benchmark(tol=tol)


def test_zero_tolerance_accepted():
    assert reconstruct_benchmark(tol=0) == []
