"""Undirected follower graphs: construction, named generators, Laplacians.

Vertices are labeled 1..n everywhere: in the API, in edge-list files and in
CLI output. Graphs are immutable after construction and every operation here
is a pure function, so concurrent reads are safe.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

GENERATOR_KINDS = ("path", "cycle", "star", "complete", "circulant")

# Dense Laplacians and exact eliminations are n x n; larger inputs are
# refused before anything of size n is allocated.
MAX_VERTICES = 2000

IntMatrix = list  # list[list[int]], kept loose for 3.10-friendly aliasing


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n.

    ``edges`` holds each edge exactly once as a pair (u, v) with u < v.
    """

    n: int
    edges: frozenset

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def degree(self, i: int) -> int:
        _check_vertex(self, i)
        return sum(1 for (u, v) in self.edges if i == u or i == v)


def _check_vertex(g: Graph, i: int) -> None:
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex {i} out of range 1..{g.n}")


def _check_vertex_count(n: int) -> None:
    if n < 1:
        raise ValueError("vertex count must be >= 1")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def build_graph(n: int, edge_list: Iterable) -> Graph:
    """Build a graph from unordered vertex pairs; repeats are deduplicated."""
    _check_vertex_count(n)
    edges = set()
    for u, v in edge_list:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 1..{n}")
        edges.add((u, v) if u < v else (v, u))
    return Graph(n=n, edges=frozenset(edges))


def generate(kind: str, n: int, connection_set: Sequence | None = None) -> Graph:
    """Generate a member of a named family.

    ``star`` puts the hub at vertex 1. ``circulant`` with offsets O connects
    every i to (i + o - 1 mod n) + 1 for each o in O, so ``cycle`` equals
    ``circulant`` with offsets {1}.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}; expected one of {GENERATOR_KINDS}")
    _check_vertex_count(n)
    if kind != "circulant" and connection_set is not None:
        raise ValueError("connection_set is only meaningful for circulant graphs")
    if kind == "path":
        return build_graph(n, [(i, i + 1) for i in range(1, n)])
    if kind == "star":
        return build_graph(n, [(1, j) for j in range(2, n + 1)])
    if kind == "complete":
        return build_graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
    if kind == "cycle":
        return generate("circulant", n, [1])
    if connection_set is None:
        raise ValueError("circulant graphs need a connection set of offsets")
    offsets = sorted({int(o) for o in connection_set})
    for o in offsets:
        if not 1 <= o <= n // 2:
            raise ValueError(f"circulant offset {o} outside 1..{n // 2}")
    edges = []
    for o in offsets:
        for i in range(1, n + 1):
            edges.append((i, (i + o - 1) % n + 1))
    return build_graph(n, edges)


def adjacency(g: Graph) -> IntMatrix:
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u - 1][v - 1] = 1
        a[v - 1][u - 1] = 1
    return a


def laplacian(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency matrix; symmetric with zero row sums."""
    m = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        m[u - 1][v - 1] -= 1
        m[v - 1][u - 1] -= 1
        m[u - 1][u - 1] += 1
        m[v - 1][v - 1] += 1
    return m


def neighbors(g: Graph, i: int) -> set:
    _check_vertex(g, i)
    out = set()
    for u, v in g.edges:
        if u == i:
            out.add(v)
        elif v == i:
            out.add(u)
    return out


def _adjacency_sets(g: Graph) -> dict:
    nbrs = {i: set() for i in range(1, g.n + 1)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def is_connected(g: Graph) -> bool:
    """Breadth-first sweep from vertex 1; true iff every vertex is reached."""
    nbrs = _adjacency_sets(g)
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.n


def center_vertices(g: Graph) -> list:
    """All vertices adjacent to every other vertex, ascending."""
    nbrs = _adjacency_sets(g)
    return [i for i in range(1, g.n + 1) if len(nbrs[i]) == g.n - 1]


def is_circulant_labeled(g: Graph) -> bool:
    """True iff the adjacency entry (i, j) depends only on (j - i) mod n.

    The test is performed under the given labeling only; recognizing
    circulant structure up to relabeling is not attempted.
    """
    a = adjacency(g)
    n = g.n
    first = a[0]
    return all(a[i][j] == first[(j - i) % n] for i in range(n) for j in range(n))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: a header line "n m" followed by m lines
    "u v" (1-indexed). Blank lines and lines starting with '#' are skipped.
    """
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [r for r in rows if r and not r.startswith("#")]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"first line must be 'n m', got {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    _check_vertex_count(n)
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} edge lines follow")
    edges = []
    for r in rows[1:]:
        parts = r.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {r!r}; expected 'u v'")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def load_edge_list(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.35) -> Graph:
    """Random connected graph: a random recursive tree plus independent extras.

    Deterministic for a given ``rng`` state; used by the self-check suites.
    """
    _check_vertex_count(n)
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return build_graph(n, edges)
