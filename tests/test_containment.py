import random
from fractions import Fraction

import pytest

from helpers import connected_corpus, random_links
from leadergame.containment import (
    LeaderLinks,
    LeaderStates,
    convex_weights,
    grounded,
    payoffs,
    steady_state,
)
from leadergame.graphs import build_graph, generate

HALF = Fraction(1, 2)


def links_of(n, b, d):
    return LeaderLinks.from_vertices(n, b, d)


class TestTypes:
    def test_indicator_entries_checked(self):
        with pytest.raises(ValueError):
            LeaderLinks(b=(0, 2), d=(0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LeaderLinks(b=(0, 1), d=(1,))

    def test_from_vertices_range(self):
        with pytest.raises(ValueError):
            links_of(3, [4], [1])

    def test_states_require_order(self):
        with pytest.raises(ValueError, match="y0 < y1"):
            LeaderStates(Fraction(1), Fraction(1))

    def test_states_coerce_to_fraction(self):
        ys = LeaderStates("-1/2", 2)
        assert ys.y0 == Fraction(-1, 2)
        assert ys.span == Fraction(5, 2)


class TestGrounded:
    def test_edge_both_leaders(self):
        k2 = generate("complete", 2)
        assert grounded(k2, links_of(2, [1], [2])) == [[2, -1], [-1, 2]]

    def test_overlapping_links(self):
        p3 = generate("path", 3)
        assert grounded(p3, links_of(3, [2], [2])) == [[1, -1, 0], [-1, 4, -1], [0, -1, 1]]

    def test_disjoint_links(self):
        p3 = generate("path", 3)
        assert grounded(p3, links_of(3, [1], [2])) == [[2, -1, 0], [-1, 3, -1], [0, -1, 1]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="vertex count"):
            grounded(generate("path", 3), links_of(2, [1], [2]))


class TestConvexWeights:
    def test_edge_hand_solve(self):
        w = convex_weights(generate("complete", 2), links_of(2, [1], [2]))
        assert w.alpha == (Fraction(2, 3), Fraction(1, 3))
        assert w.beta == (Fraction(1, 3), Fraction(2, 3))

    def test_equal_links_give_half(self):
        for g, s in [
            (generate("path", 3), [2]),
            (generate("star", 4), [1]),
            (generate("cycle", 5), [2, 4]),
        ]:
            w = convex_weights(g, links_of(g.n, s, s))
            assert all(a == HALF for a in w.alpha)
            assert all(b == HALF for b in w.beta)

    def test_path_beta_mean(self):
        w = convex_weights(generate("path", 3), links_of(3, [2], [1]))
        assert sum(w.beta, start=Fraction(0)) == Fraction(4, 3)

    def test_convexity_on_random_corpus(self):
        rng = random.Random(71)
        for g in connected_corpus(seed=73, count=20, n_min=2, n_max=8):
            links = random_links(rng, g.n)
            w = convex_weights(g, links)
            assert all(a + b == 1 for a, b in zip(w.alpha, w.beta))
            assert all(0 < a < 1 for a in w.alpha)
            assert all(0 < b < 1 for b in w.beta)
            m = grounded(g, links)
            assert [sum(r * a for r, a in zip(row, w.alpha)) for row in m] == list(links.b)
            assert [sum(r * b for r, b in zip(row, w.beta)) for row in m] == list(links.d)

    def test_empty_links_rejected(self):
        p3 = generate("path", 3)
        with pytest.raises(ValueError, match="leader 0"):
            convex_weights(p3, LeaderLinks(b=(0, 0, 0), d=(0, 1, 0)))
        with pytest.raises(ValueError, match="leader 1"):
            convex_weights(p3, LeaderLinks(b=(0, 1, 0), d=(0, 0, 0)))

    def test_disconnected_rejected(self):
        g = build_graph(3, [(1, 2)])
        with pytest.raises(ValueError, match="not connected"):
            convex_weights(g, links_of(3, [1], [3]))


class TestSteadyState:
    def test_edge(self):
        state = steady_state(
            generate("complete", 2), links_of(2, [1], [2]), LeaderStates(0, 1)
        )
        assert state == (Fraction(1, 3), Fraction(2, 3))

    def test_shared_link_consensus_midpoint(self):
        state = steady_state(
            generate("path", 3), links_of(3, [2], [2]), LeaderStates(-1, 1)
        )
        assert state == (0, 0, 0)

    def test_star_consensus_midpoint(self):
        state = steady_state(
            generate("star", 4), links_of(4, [1], [1]), LeaderStates(-1, 1)
        )
        assert state == (0, 0, 0, 0)

    def test_strictly_inside_the_hull(self):
        rng = random.Random(79)
        ys = LeaderStates(Fraction(-3, 2), Fraction(7, 3))
        for g in connected_corpus(seed=83, count=15, n_min=2, n_max=8):
            state = steady_state(g, random_links(rng, g.n), ys)
            assert all(ys.y0 < x < ys.y1 for x in state)


class TestPayoffs:
    def test_symmetric_edge(self):
        u0, u1 = payoffs(generate("complete", 2), links_of(2, [1], [2]), LeaderStates(0, 1))
        assert (u0, u1) == (HALF, HALF)

    def test_path_hand_value(self):
        u0, u1 = payoffs(generate("path", 3), links_of(3, [2], [1]), LeaderStates(0, 1))
        assert (u0, u1) == (Fraction(4, 9), Fraction(5, 9))

    def test_sum_is_span(self):
        rng = random.Random(89)
        ys = LeaderStates(Fraction(-2), Fraction(5, 4))
        for g in connected_corpus(seed=97, count=15, n_min=2, n_max=8):
            u0, u1 = payoffs(g, random_links(rng, g.n), ys)
            assert u0 + u1 == ys.span

    def test_shift_invariance(self):
        g = generate("cycle", 5)
        links = links_of(5, [1, 3], [2])
        base = payoffs(g, links, LeaderStates(0, 1))
        shifted = payoffs(g, links, LeaderStates(10, 11))
        assert base == shifted

    def test_swapping_links_negates_the_gap(self):
        g = generate("path", 4)
        ys = LeaderStates(0, 1)
        fwd = payoffs(g, links_of(4, [1], [3]), ys)
        rev = payoffs(g, links_of(4, [3], [1]), ys)
        assert fwd[0] - fwd[1] == -(rev[0] - rev[1])
        w_fwd = convex_weights(g, links_of(4, [1], [3]))
        w_rev = convex_weights(g, links_of(4, [3], [1]))
        assert w_fwd.alpha == w_rev.beta
        assert w_fwd.beta == w_rev.alpha
