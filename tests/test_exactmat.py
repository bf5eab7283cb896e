import random
from fractions import Fraction

import pytest

from helpers import connected_corpus, det_permutation, spanning_trees_by_enumeration
from leadergame.exactmat import (
    adjugate_int,
    bareiss,
    determinant_int,
    identity,
    inverse_rational,
    is_positive_definite,
    plus_diag,
    principal_submatrix,
    solve_rational,
    spanning_tree_count,
)
from leadergame.graphs import build_graph, generate, laplacian


def unit(n, i):
    out = [0] * n
    out[i - 1] = 1
    return out


def random_int_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def minor(m, i, j):
    return [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(m) if r != i]


class TestDeterminant:
    def test_two_by_two(self):
        assert determinant_int([[2, -1], [-1, 2]]) == 3

    def test_laplacian_is_singular(self):
        assert determinant_int(laplacian(generate("path", 3))) == 0

    def test_grounded_path(self):
        m = plus_diag(laplacian(generate("path", 3)), unit(3, 1))
        assert determinant_int(m) == 1

    def test_matches_permutation_expansion(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(1, 5)
            m = random_int_matrix(rng, n)
            assert determinant_int(m) == det_permutation(m)

    def test_empty_matrix(self):
        assert determinant_int([]) == 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            determinant_int([[1, 2]])


class TestAdjugate:
    def test_two_by_two(self):
        assert adjugate_int([[2, -1], [-1, 2]]) == [[2, 1], [1, 2]]

    def test_laplacian_adjugate_is_constant(self):
        adj = adjugate_int(laplacian(generate("path", 3)))
        assert adj == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]

    def test_grounded_column(self):
        m = plus_diag(laplacian(generate("path", 3)), unit(3, 1))
        adj = adjugate_int(m)
        assert [adj[r][1] for r in range(3)] == [1, 2, 2]

    def test_product_identity_random(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = random_int_matrix(rng, n)
            adj = adjugate_int(m)
            det = determinant_int(m)
            for i in range(n):
                for j in range(n):
                    got = sum(m[i][r] * adj[r][j] for r in range(n))
                    assert got == (det if i == j else 0)

    def test_solve_backed_path_for_large_matrices(self):
        # path-13 grounded at vertex 1: larger than any random case above
        g = generate("path", 13)
        m = plus_diag(laplacian(g), unit(13, 1))
        adj = adjugate_int(m)
        det = determinant_int(m)
        assert det == 1
        for i in range(13):
            for j in range(13):
                got = sum(m[i][r] * adj[r][j] for r in range(13))
                assert got == (det if i == j else 0)

    def test_matches_cofactor_oracle(self):
        # singular inputs are built at rank n-1 (adjugate of rank one) and at
        # rank <= n-2 (adjugate zero); m @ adj == 0 cannot tell those apart
        rng = random.Random(29)
        nonzero_singular = 0
        for _ in range(60):
            n = rng.randint(1, 5)
            rank = rng.choice([n, n - 1, max(n - 2, 0)])
            left = random_int_matrix(rng, n)
            right = random_int_matrix(rng, n)
            m = [[sum(left[i][r] * right[r][j] for r in range(rank)) for j in range(n)]
                 for i in range(n)]
            expected = [
                [(-1) ** (r + c) * det_permutation(minor(m, c, r)) for c in range(n)]
                for r in range(n)
            ]
            adj = adjugate_int(m)
            assert adj == expected
            if det_permutation(m) == 0 and any(any(row) for row in adj):
                nonzero_singular += 1
        assert nonzero_singular > 0


class TestBareiss:
    def test_identity_rhs_gives_det_and_adjugate(self):
        rng = random.Random(31)
        seen = 0
        for _ in range(60):
            n = rng.randint(1, 6)
            m = random_int_matrix(rng, n)
            det = determinant_int(m)
            if det == 0:
                continue
            seen += 1
            assert bareiss(m, identity(n)) == (det, adjugate_int(m))
        assert seen > 0

    def test_singular(self):
        assert bareiss(laplacian(generate("cycle", 5)), [[1]] * 5) == (0, None)
        assert bareiss([[1, 2], [2, 4]], [[1, 0], [0, 1]]) == (0, None)


class TestSolve:
    def test_hand_two_by_two(self):
        x = solve_rational([[2, -1], [-1, 2]], [1, 0])
        assert x == [Fraction(2, 3), Fraction(1, 3)]

    def test_identity(self):
        x = solve_rational([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [4, -7, 2])
        assert x == [4, -7, 2]

    def test_singular_laplacian(self):
        with pytest.raises(ValueError, match="singular"):
            solve_rational(laplacian(generate("path", 3)), [1, 0, 0])

    def test_rejects_fraction_rhs(self):
        with pytest.raises(TypeError):
            solve_rational([[1]], [Fraction(1, 2)])

    def test_random_solutions_verify(self):
        rng = random.Random(37)
        done = 0
        while done < 40:
            n = rng.randint(1, 6)
            m = random_int_matrix(rng, n)
            if determinant_int(m) == 0:
                continue
            b = [rng.randint(-9, 9) for _ in range(n)]
            x = solve_rational(m, b)
            for i in range(n):
                assert sum(m[i][j] * x[j] for j in range(n)) == b[i]
            done += 1

    def test_zero_pivot_needs_row_swap(self):
        x = solve_rational([[0, 1], [1, 0]], [3, 5])
        assert x == [5, 3]


class TestPrincipalSubmatrix:
    def test_path_interior(self):
        m = principal_submatrix(laplacian(generate("path", 3)), [2, 3])
        assert m == [[2, -1], [-1, 1]]

    def test_full_keep_is_identity_case(self):
        lap = laplacian(generate("cycle", 4))
        assert principal_submatrix(lap, [1, 2, 3, 4]) == lap

    def test_single_index(self):
        assert principal_submatrix(laplacian(generate("path", 3)), [3]) == [[1]]

    def test_bad_indices(self):
        lap = laplacian(generate("path", 3))
        with pytest.raises(ValueError):
            principal_submatrix(lap, [0])
        with pytest.raises(ValueError):
            principal_submatrix(lap, [2, 2])
        with pytest.raises(ValueError):
            principal_submatrix(lap, [3, 2])


class TestSpanningTrees:
    def test_path_is_a_tree(self):
        assert spanning_tree_count(generate("path", 3)) == 1

    def test_cycle_by_enumeration(self):
        c6 = generate("cycle", 6)
        expected = spanning_trees_by_enumeration(c6)
        assert expected == 6
        assert spanning_tree_count(c6) == expected

    def test_complete_by_enumeration(self):
        k4 = generate("complete", 4)
        expected = spanning_trees_by_enumeration(k4)
        assert expected == 16  # matches the n^(n-2) closed form
        assert spanning_tree_count(k4) == expected

    def test_disconnected_is_zero(self):
        assert spanning_tree_count(build_graph(3, [(1, 2)])) == 0

    def test_single_vertex(self):
        assert spanning_tree_count(build_graph(1, [])) == 1

    def test_all_cofactors_agree(self):
        for g in connected_corpus(seed=101, count=12, n_min=2, n_max=8):
            tau = spanning_tree_count(g)
            adj = adjugate_int(laplacian(g))
            assert all(v == tau for row in adj for v in row)

    def test_grounded_determinant_equals_tree_count(self):
        for g in connected_corpus(seed=103, count=12, n_min=2, n_max=8):
            tau = spanning_tree_count(g)
            for i in range(1, g.n + 1):
                m = plus_diag(laplacian(g), unit(g.n, i))
                assert determinant_int(m) == tau


class TestPositiveDefiniteness:
    def test_proper_principal_submatrices(self):
        rng = random.Random(59)
        for g in connected_corpus(seed=107, count=10, n_min=2, n_max=7):
            size = rng.randint(1, g.n - 1)
            keep = sorted(rng.sample(range(1, g.n + 1), size))
            sub = principal_submatrix(laplacian(g), keep)
            assert is_positive_definite(sub)
            inv = inverse_rational(sub)
            assert all(v >= 0 for row in inv for v in row)

    def test_full_laplacian_is_not(self):
        assert not is_positive_definite(laplacian(generate("path", 3)))

    def test_inverse_of_singular_raises(self):
        with pytest.raises(ValueError, match="singular"):
            inverse_rational(laplacian(generate("path", 3)))
