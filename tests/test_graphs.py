import random

import pytest

from helpers import connected_by_unionfind
from leadergame.graphs import (
    MAX_VERTICES,
    adjacency,
    build_graph,
    center_vertices,
    format_edge_list,
    generate,
    is_circulant_labeled,
    is_connected,
    laplacian,
    neighbors,
    parse_edge_list,
    random_connected_graph,
)


class TestBuild:
    def test_path_from_edges(self):
        g = build_graph(3, [(1, 2), (2, 3)])
        assert g.n == 3
        assert g.sorted_edges() == [(1, 2), (2, 3)]

    def test_symmetric_pair_dedupes(self):
        g = build_graph(3, [(1, 2), (2, 1)])
        assert g.sorted_edges() == [(1, 2)]

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out"):
            build_graph(2, [(1, 3)])

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(2, [(2, 2)])

    def test_zero_vertices(self):
        with pytest.raises(ValueError):
            build_graph(0, [])


class TestGenerate:
    def test_star_center_is_vertex_one(self):
        g = generate("star", 4)
        assert g.sorted_edges() == [(1, 2), (1, 3), (1, 4)]

    def test_circulant_single_offset_is_cycle(self):
        g = generate("circulant", 6, [1])
        assert g.sorted_edges() == [(1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6)]

    def test_cycle_equals_circulant(self):
        for n in (2, 3, 5, 8):
            assert generate("cycle", n).edges == generate("circulant", n, [1]).edges

    def test_complete_three(self):
        assert generate("complete", 3).sorted_edges() == [(1, 2), (1, 3), (2, 3)]

    def test_path_one_vertex(self):
        g = generate("path", 1)
        assert g.n == 1 and g.edge_count == 0

    def test_bad_offset(self):
        with pytest.raises(ValueError, match="offset"):
            generate("circulant", 6, [4])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            generate("wheel", 5)

    def test_offsets_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            generate("path", 4, [1])

    def test_vertex_budget(self):
        assert generate("path", MAX_VERTICES).n == MAX_VERTICES
        for n in (MAX_VERTICES + 1, 50_000_000):
            with pytest.raises(ValueError, match="exceeds the limit"):
                generate("path", n)
        with pytest.raises(ValueError, match="exceeds the limit"):
            build_graph(MAX_VERTICES + 1, [])
        with pytest.raises(ValueError, match="exceeds the limit"):
            random_connected_graph(random.Random(0), MAX_VERTICES + 1)

    def test_circulant_two_offsets(self):
        g = generate("circulant", 6, [1, 2])
        assert g.degree(1) == 4
        assert is_circulant_labeled(g)


class TestLaplacian:
    def test_path(self):
        assert laplacian(generate("path", 3)) == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]

    def test_edge(self):
        assert laplacian(generate("complete", 2)) == [[1, -1], [-1, 1]]

    def test_single_vertex(self):
        assert laplacian(build_graph(1, [])) == [[0]]

    def test_row_sums_and_symmetry(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(1, 9))
            lap = laplacian(g)
            assert all(sum(row) == 0 for row in lap)
            assert all(lap[i][j] == lap[j][i] for i in range(g.n) for j in range(g.n))
            assert all(lap[i][i] == g.degree(i + 1) for i in range(g.n))


class TestQueries:
    def test_neighbors(self):
        p3 = generate("path", 3)
        star = generate("star", 4)
        assert neighbors(p3, 2) == {1, 3}
        assert neighbors(star, 1) == {2, 3, 4}
        assert neighbors(star, 3) == {1}

    def test_neighbors_out_of_range(self):
        with pytest.raises(ValueError):
            neighbors(generate("path", 3), 4)

    def test_connectivity(self):
        assert is_connected(generate("path", 3))
        assert not is_connected(build_graph(2, []))
        assert is_connected(build_graph(1, []))

    def test_connectivity_matches_unionfind(self):
        rng = random.Random(5151)
        for _ in range(120):
            n = rng.randint(1, 10)
            edges = set()
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    if rng.random() < 0.25:
                        edges.add((u, v))
            g = build_graph(n, edges)
            assert is_connected(g) == connected_by_unionfind(g)

    def test_centers(self):
        assert center_vertices(generate("star", 4)) == [1]
        assert center_vertices(generate("complete", 3)) == [1, 2, 3]
        assert center_vertices(generate("cycle", 6)) == []
        assert center_vertices(generate("path", 3)) == [2]

    def test_circulant_recognition(self):
        assert is_circulant_labeled(generate("cycle", 6))
        assert is_circulant_labeled(generate("complete", 4))
        assert not is_circulant_labeled(generate("star", 4))
        # same cycle, relabeled so the structure is hidden under this labeling
        relabeled = build_graph(4, [(1, 3), (3, 2), (2, 4), (4, 1)])
        assert not is_circulant_labeled(relabeled)


EDGE_LIST = """\
# follower graph
3 2

1 2
2 3
"""


class TestEdgeListFormat:
    def test_parse(self):
        g = parse_edge_list(EDGE_LIST)
        assert g.n == 3
        assert g.sorted_edges() == [(1, 2), (2, 3)]

    def test_round_trip(self):
        g = generate("circulant", 7, [1, 2])
        assert parse_edge_list(format_edge_list(g)) == g

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="edge lines"):
            parse_edge_list("3 2\n1 2\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="n m"):
            parse_edge_list("3\n1 2\n")

    def test_header_vertex_budget(self):
        for n in (MAX_VERTICES + 1, 100_000_000):
            with pytest.raises(ValueError, match="exceeds the limit"):
                parse_edge_list(f"{n} 1\n1 2\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_edge_list("# nothing\n\n")

    def test_load(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(EDGE_LIST)
        from leadergame.graphs import load_edge_list

        assert load_edge_list(path).n == 3


def test_random_connected_graph_is_connected():
    rng = random.Random(99)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(1, 10))
        assert is_connected(g)


def test_adjacency_matches_edges():
    g = build_graph(4, [(1, 3), (2, 4)])
    a = adjacency(g)
    assert a[0][2] == a[2][0] == 1
    assert a[1][3] == a[3][1] == 1
    assert sum(sum(row) for row in a) == 4
