"""Property test: the outcome matrix against the per-entry solve on drawn graphs.

Kept apart from test_game.py so that the game tests do not need hypothesis.
"""
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from leadergame.game import enumerate_strategies, outcome_entry, outcome_matrix  # noqa: E402
from leadergame.graphs import random_connected_graph  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), data=st.data())
def test_outcome_matrix_matches_per_entry_solve(seed, n, data):
    k = data.draw(st.integers(1, min(3, n)), label="k")
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, extra_edge_prob=rng.choice([0.15, 0.3, 0.5, 0.7]))
    s = enumerate_strategies(n, k)
    entries = outcome_matrix(g, k).entries
    assert entries == tuple(tuple(outcome_entry(g, si, sj) for sj in s) for si in s)
    assert all(type(v) is Fraction for row in entries for v in row)
    assert all(v + entries[j][i] == 1 for i, row in enumerate(entries) for j, v in enumerate(row))
