"""Property tests on drawn graphs: the outcome matrix against the per-entry
solve, the game values for k = 2-3 against 1/2, and the single-link report
against the full k=1 solution.

Kept apart from test_game.py so that the game tests do not need hypothesis.
"""
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import inverse_of_l_plus_ones  # noqa: E402
from leadergame.game import (  # noqa: E402
    HALF,
    enumerate_strategies,
    game_values,
    nash_equilibria,
    outcome_entry,
    outcome_matrix,
    se_set,
    single_link_report,
)
from leadergame.graphs import random_connected_graph  # noqa: E402


def drawn_graph(seed, n):
    rng = random.Random(seed)
    return random_connected_graph(rng, n, extra_edge_prob=rng.choice([0.15, 0.3, 0.5, 0.7]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), data=st.data())
def test_outcome_matrix_matches_per_entry_solve(seed, n, data):
    k = data.draw(st.integers(1, min(3, n)), label="k")
    g = drawn_graph(seed, n)
    s = enumerate_strategies(n, k)
    entries = outcome_matrix(g, k).entries
    assert entries == tuple(tuple(outcome_entry(g, si, sj) for sj in s) for si in s)
    assert all(type(v) is Fraction for row in entries for v in row)
    assert all(v + entries[j][i] == 1 for i, row in enumerate(entries) for j, v in enumerate(row))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 3), data=st.data())
def test_multi_link_values_bracket_half(seed, k, data):
    n = data.draw(st.integers(k, 7), label="n")
    report = game_values(outcome_matrix(drawn_graph(seed, n), k))
    assert report.lower_value <= HALF <= report.upper_value
    assert report.lower_value == 1 - report.upper_value


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
def test_single_link_report_is_the_full_solution(seed, n):
    g = drawn_graph(seed, n)
    assert single_link_report(g) == nash_equilibria(outcome_matrix(g, 1))
    y = inverse_of_l_plus_ones(g)
    diag = [y[i][i] for i in range(n)]
    se = se_set(g)
    assert se and se == tuple(i + 1 for i in range(n) if diag[i] == min(diag))
