"""Property test: the edge-list format round-trips drawn graphs.

Kept apart from test_graphs.py so that the graph tests do not need hypothesis.
"""
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from leadergame.graphs import format_edge_list, parse_edge_list, random_connected_graph  # noqa: E402


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), p=st.sampled_from([0.0, 0.15, 0.5, 1.0]))
def test_edge_list_round_trip(seed, n, p):
    g = random_connected_graph(random.Random(seed), n, extra_edge_prob=p)
    assert parse_edge_list(format_edge_list(g)) == g
