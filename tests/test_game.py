from fractions import Fraction

import pytest

import leadergame.game as game_module
from helpers import connected_corpus
from leadergame.exactmat import spanning_tree_count
from leadergame.game import (
    HALF,
    Dominance,
    Ordering,
    OutcomeMatrix,
    Strategy,
    compare_half,
    enumerate_strategies,
    game_values,
    grounded_adjugate_sum,
    m_ij,
    nash_equilibria,
    neighborhood_dominance,
    optimal_topologies,
    outcome_entry,
    outcome_matrix,
    se_set,
    security_sets,
    shortcut_optimal,
)
from leadergame.graphs import build_graph, generate

P3 = generate("path", 3)
C6 = generate("cycle", 6)
STAR4 = generate("star", 4)

P3_MATRIX = (
    (HALF, Fraction(5, 9), HALF),
    (Fraction(4, 9), HALF, Fraction(4, 9)),
    (HALF, Fraction(5, 9), HALF),
)


def strat(n, verts, index=0):
    return Strategy(index=index, n=n, vertices=tuple(verts))


def oracle_entries(g, k):
    """The outcome matrix from one independent n x n solve per entry."""
    s = enumerate_strategies(g.n, k)
    return tuple(tuple(outcome_entry(g, si, sj) for sj in s) for si in s)


def assert_matches_oracle(g, k):
    entries = outcome_matrix(g, k).entries
    assert all(type(v) is Fraction for row in entries for v in row)
    assert entries == oracle_entries(g, k)
    return entries


class TestEnumerate:
    def test_singletons(self):
        s = enumerate_strategies(3, 1)
        assert [x.vertices for x in s] == [(1,), (2,), (3,)]
        assert [x.index for x in s] == [0, 1, 2]

    def test_pairs_lexicographic(self):
        s = enumerate_strategies(3, 2)
        assert [x.vertices for x in s] == [(1, 2), (1, 3), (2, 3)]

    def test_indicator(self):
        s = enumerate_strategies(4, 2)[1]
        assert s.vertices == (1, 3)
        assert s.indicator == (1, 0, 1, 0)
        assert s.k == 2

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k must"):
            enumerate_strategies(3, 4)
        with pytest.raises(ValueError, match="k must"):
            enumerate_strategies(3, 0)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_strategies(30, 15, cap=1000)


class TestOutcomeEntry:
    def test_path_hand_value(self):
        s = enumerate_strategies(3, 1)
        assert outcome_entry(P3, s[1], s[0]) == Fraction(4, 9)

    def test_path_symmetric_pair(self):
        s = enumerate_strategies(3, 1)
        assert outcome_entry(P3, s[0], s[2]) == HALF

    def test_diagonal_is_half(self):
        for g in (P3, STAR4, C6):
            for s in enumerate_strategies(g.n, 1):
                assert outcome_entry(g, s, s) == HALF

    def test_star_center_versus_leaf(self):
        s = enumerate_strategies(4, 1)
        assert outcome_entry(STAR4, s[0], s[1]) == Fraction(5, 12)

    def test_disconnected_rejected(self):
        g = build_graph(2, [])
        s = enumerate_strategies(2, 1)
        with pytest.raises(ValueError, match="not connected"):
            outcome_entry(g, s[0], s[1])

    def test_mismatched_k_rejected(self):
        with pytest.raises(ValueError, match="same number"):
            outcome_entry(P3, strat(3, [1]), strat(3, [1, 2]))


class TestOutcomeMatrix:
    def test_path_matrix(self):
        assert outcome_matrix(P3, 1).entries == P3_MATRIX

    def test_cycle_all_half(self):
        u = outcome_matrix(C6, 1)
        assert u.size == 6
        assert all(v == HALF for row in u.entries for v in row)

    def test_edge_all_half(self):
        u = outcome_matrix(generate("complete", 2), 1)
        assert all(v == HALF for row in u.entries for v in row)

    def test_involution_on_corpus(self):
        for g in connected_corpus(seed=301, count=10, n_min=2, n_max=6):
            for k in (1, 2):
                if k > g.n:
                    continue
                u = outcome_matrix(g, k)
                for i in range(u.size):
                    assert u.entries[i][i] == HALF
                    for j in range(u.size):
                        assert u.entries[i][j] + u.entries[j][i] == 1
                        assert 0 < u.entries[i][j] < 1


class TestOutcomeMatrixOracle:
    """The per-row adjugate route against the per-entry solve, bit-exactly."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_corpus(self, k):
        for g in connected_corpus(seed=353, count=12, n_min=2, n_max=6):
            if k <= g.n:
                assert_matches_oracle(g, k)

    @pytest.mark.parametrize(
        "kind, n, k",
        [("path", 1, 1), ("complete", 2, 2), ("star", 5, 5), ("cycle", 7, 3), ("complete", 6, 3)],
    )
    def test_named_graphs(self, kind, n, k):
        assert_matches_oracle(generate(kind, n), k)


class TestGameSolution:
    def test_path_values_and_security(self):
        report = game_values(outcome_matrix(P3, 1))
        assert report.upper_value == report.lower_value == HALF
        assert report.security_set == (1,)

    def test_security_sets_coincide_on_corpus(self):
        for g in connected_corpus(seed=307, count=12, n_min=2, n_max=6):
            rows, cols = security_sets(outcome_matrix(g, 1))
            assert set(rows) == set(cols)

    def test_values_bracket_half_on_corpus(self):
        for g in connected_corpus(seed=311, count=12, n_min=2, n_max=6):
            for k in (1, 2):
                if k > g.n:
                    continue
                report = game_values(outcome_matrix(g, k))
                assert report.lower_value <= HALF <= report.upper_value
                assert report.lower_value == 1 - report.upper_value

    def test_path_nash(self):
        report = nash_equilibria(outcome_matrix(P3, 1))
        assert report.nash_pairs == ((1, 1),)
        assert report.nash_value == HALF

    def test_cycle_nash_all_pairs(self):
        report = nash_equilibria(outcome_matrix(C6, 1))
        assert len(report.nash_pairs) == 36
        assert report.nash_value == HALF

    def test_star_unique_pair(self):
        report = nash_equilibria(outcome_matrix(STAR4, 1))
        assert report.nash_pairs == ((0, 0),)

    def test_saddleless_matrix_reports_empty(self):
        # synthetic cyclic-dominance matrix: involution holds, no saddle point
        third = Fraction(1, 3)
        entries = (
            (HALF, 1 - third, third),
            (third, HALF, 1 - third),
            (1 - third, third, HALF),
        )
        strategies = tuple(strat(3, [i + 1], i) for i in range(3))
        u = OutcomeMatrix(graph=P3, k=1, strategies=strategies, entries=entries)
        report = nash_equilibria(u)
        assert report.upper_value == Fraction(2, 3)
        assert report.lower_value == third
        assert report.nash_pairs == ()
        assert report.nash_value is None

    def test_saddle_off_the_security_diagonal(self):
        # hand-built: upper == lower == 2 with row set (0,) and column set (1,),
        # so the only saddle point is (0, 1), not (0, 0)
        entries = ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(3)))
        strategies = tuple(strat(3, [i + 1], i) for i in range(2))
        u = OutcomeMatrix(graph=P3, k=1, strategies=strategies, entries=entries)
        report = nash_equilibria(u)
        assert report.upper_value == report.lower_value == 2
        assert report.nash_pairs == ((0, 1),)
        assert report.nash_value == 2

    def test_optimal_topologies_star(self):
        pairs = optimal_topologies(STAR4, 1)
        assert len(pairs) == 1
        assert pairs[0][0].vertices == (1,)
        assert pairs[0][1].vertices == (1,)

    def test_optimal_topologies_complete(self):
        assert len(optimal_topologies(generate("complete", 4), 1)) == 16


class TestHalfComparison:
    def test_path_ordered_pairs(self):
        assert compare_half(P3, 1, 2) is Ordering.GREATER
        assert compare_half(P3, 2, 1) is Ordering.LESS
        assert compare_half(P3, 1, 3) is Ordering.EQUAL

    def test_path_integers(self):
        assert grounded_adjugate_sum(P3, 1, 2) == 5
        assert grounded_adjugate_sum(P3, 2, 1) == 4

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            compare_half(P3, 2, 2)

    def test_agreement_with_exact_entries(self):
        for g in connected_corpus(seed=313, count=15, n_min=2, n_max=6):
            u = outcome_matrix(g, 1)
            for i in range(1, g.n + 1):
                for j in range(1, g.n + 1):
                    if i == j:
                        continue
                    entry = u.entries[i - 1][j - 1]
                    expected = (
                        Ordering.LESS
                        if entry < HALF
                        else Ordering.EQUAL if entry == HALF else Ordering.GREATER
                    )
                    assert compare_half(g, i, j) is expected

    def test_one_adjugate_per_vertex(self, monkeypatch):
        calls = []
        real = game_module.adjugate_int

        def counting(m):
            calls.append(len(m))
            return real(m)

        monkeypatch.setattr(game_module, "adjugate_int", counting)
        game_module._grounded_colsums.cache_clear()
        g = generate("path", 6)
        for i in range(1, 7):
            for j in range(1, 7):
                if i != j:
                    compare_half(g, i, j)
        game_module._grounded_colsums.cache_clear()
        assert calls == [6] * 6


class TestOnesRowMinor:
    def test_path_values(self):
        assert m_ij(P3, 1, 2) == 2
        assert m_ij(P3, 2, 1) == 1

    def test_identity_on_corpus(self):
        for g in connected_corpus(seed=317, count=12, n_min=2, n_max=7):
            tau = spanning_tree_count(g)
            for i in range(1, g.n + 1):
                for j in range(1, g.n + 1):
                    if i == j:
                        continue
                    assert grounded_adjugate_sum(g, i, j) == g.n * tau + m_ij(g, i, j)

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            m_ij(P3, 1, 1)


class TestDominance:
    def test_star_hub_dominates(self):
        assert neighborhood_dominance(STAR4, 1, 2) is Dominance.STRICT_SUPERSET
        assert neighborhood_dominance(STAR4, 2, 1) is Dominance.STRICT_SUBSET

    def test_path_ends_equal(self):
        assert neighborhood_dominance(P3, 1, 3) is Dominance.EQUAL

    def test_cycle_incomparable(self):
        assert neighborhood_dominance(C6, 1, 3) is Dominance.INCOMPARABLE

    def test_soundness_on_corpus(self):
        for g in connected_corpus(seed=331, count=15, n_min=2, n_max=6):
            u = outcome_matrix(g, 1)
            for i in range(1, g.n + 1):
                for j in range(1, g.n + 1):
                    if i == j:
                        continue
                    cls = neighborhood_dominance(g, i, j)
                    entry = u.entries[i - 1][j - 1]
                    if cls is Dominance.STRICT_SUPERSET:
                        assert entry < HALF
                    elif cls is Dominance.EQUAL:
                        assert entry == HALF
                    elif cls is Dominance.STRICT_SUBSET:
                        assert entry > HALF

    def test_leaf_pair_from_the_subset_side(self):
        # a vertex whose only neighbor is j never beats j (strictly, once n > 2)
        assert outcome_entry(P3, strat(3, [1]), strat(3, [2], 1)) > HALF
        k2 = generate("complete", 2)
        s = enumerate_strategies(2, 1)
        assert outcome_entry(k2, s[0], s[1]) == HALF


class TestSeSet:
    def test_path(self):
        assert se_set(P3) == (2,)

    def test_cycle_everyone(self):
        assert se_set(C6) == (1, 2, 3, 4, 5, 6)

    def test_star_hub_only(self):
        assert se_set(STAR4) == (1,)

    def test_matches_security_set_when_nonempty(self):
        for g in connected_corpus(seed=337, count=12, n_min=2, n_max=6):
            u = outcome_matrix(g, 1)
            report = nash_equilibria(u)
            se = se_set(g)
            if se:
                security_vertices = {u.strategies[i].vertices[0] for i in report.security_set}
                assert set(se) == security_vertices
                assert set(report.nash_pairs) == {
                    (i - 1, j - 1) for i in se for j in se
                }


class TestShortcut:
    def test_cycle_is_circulant(self):
        sc = shortcut_optimal(C6)
        assert sc is not None and sc.kind == "circulant"

    def test_star_center(self):
        sc = shortcut_optimal(STAR4)
        assert sc is not None and sc.kind == "center" and sc.center == 1

    def test_path_three_has_a_center(self):
        sc = shortcut_optimal(P3)
        assert sc is not None and sc.kind == "center" and sc.center == 2

    def test_path_four_has_no_shortcut(self):
        assert shortcut_optimal(generate("path", 4)) is None

    def test_claims_agree_with_full_solver(self):
        for g in connected_corpus(seed=347, count=12, n_min=2, n_max=8):
            sc = shortcut_optimal(g)
            if sc is None:
                continue
            u = outcome_matrix(g, 1)
            report = nash_equilibria(u)
            if sc.kind == "circulant":
                assert all(v == HALF for row in u.entries for v in row)
                assert len(report.nash_pairs) == u.size * u.size
            else:
                idx = sc.center - 1
                assert (idx, idx) in report.nash_pairs
