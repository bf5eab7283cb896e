"""Shared test utilities: independent oracles and seeded corpora.

The oracles here deliberately avoid the library's computation paths:
determinants come from permutation expansion, spanning trees from explicit
subset enumeration, connectivity from union-find, inverses from Fraction
Gauss-Jordan, simulated trajectories from a four-stage RK4 loop and an
eigendecomposition.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from leadergame.containment import LeaderLinks
from leadergame.graphs import Graph, random_connected_graph


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_permutation(m) -> int:
    """Sum over permutations; O(n! * n), fine for the sizes used in tests."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
            if prod == 0:
                break
        total += _perm_sign(perm) * prod
    return total


def edges_connect_all(n: int, edges) -> bool:
    """Union-find connectivity over an explicit edge collection."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def connected_by_unionfind(g: Graph) -> bool:
    return edges_connect_all(g.n, g.edges)


def spanning_trees_by_enumeration(g: Graph) -> int:
    """Count (n-1)-edge subsets that connect every vertex."""
    if g.n == 1:
        return 1
    return sum(
        1
        for subset in itertools.combinations(g.sorted_edges(), g.n - 1)
        if edges_connect_all(g.n, subset)
    )


def laplacian_from_edges(g: Graph) -> list:
    """Degree minus adjacency, accumulated edge by edge."""
    lap = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        lap[u - 1][v - 1] -= 1
        lap[v - 1][u - 1] -= 1
        lap[u - 1][u - 1] += 1
        lap[v - 1][v - 1] += 1
    return lap


def inverse_by_gauss_jordan(m) -> list:
    """Inverse of a nonsingular integer matrix by Fraction Gauss-Jordan
    elimination on [m | I]."""
    n = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
        for r, row in enumerate(m)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def inverse_of_l_plus_ones(g: Graph) -> list:
    """Y = (L + 11^T)^-1 by Fraction Gauss-Jordan; g must be connected."""
    return inverse_by_gauss_jordan([[x + 1 for x in row] for row in laplacian_from_edges(g)])


def single_link_closed_form(g: Graph) -> tuple:
    """The k=1 outcome matrix from Y = (L + 11^T)^-1:
    u(i, j) = (1 + Y_ii - Y_ij) / (2 + Y_ii + Y_jj - 2 Y_ij)."""
    y = inverse_of_l_plus_ones(g)
    return tuple(
        tuple(
            (1 + y[i][i] - y[i][j]) / (2 + y[i][i] + y[j][j] - 2 * y[i][j])
            for j in range(g.n)
        )
        for i in range(g.n)
    )


def connected_corpus(seed: int, count: int, n_min: int = 2, n_max: int = 6) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(n_min, n_max)
        p = rng.choice([0.15, 0.3, 0.5, 0.7])
        out.append(random_connected_graph(rng, n, extra_edge_prob=p))
    return out


def random_links(rng: random.Random, n: int, max_each: int = 3) -> LeaderLinks:
    k0 = rng.randint(1, min(max_each, n))
    k1 = rng.randint(1, min(max_each, n))
    return LeaderLinks.from_vertices(
        n, rng.sample(range(1, n + 1), k0), rng.sample(range(1, n + 1), k1)
    )


def flow_system(g: Graph, links: LeaderLinks, ys):
    """M = L + diag(b+d) built from the edge list, and c = b y0 + d y1, so the
    follower flow is x' = -M x + c."""
    m = np.array(laplacian_from_edges(g), dtype=float)
    m += np.diag(np.add(links.b, links.d).astype(float))
    c = np.array(links.b, dtype=float) * float(ys.y0) + np.array(links.d, dtype=float) * float(ys.y1)
    return m, c


def rk4_oracle(g: Graph, links: LeaderLinks, x0, ys, dt: float, t_end: float, tol: float):
    """Classical four-stage RK4, one state per step, with the simulator's
    stopping rule (max-norm increment per unit time below tol, else
    max(1, ceil(t_end / dt)) steps). Returns (states, converged)."""
    m, c = flow_system(g, links, ys)
    x = np.array(x0, dtype=float)
    states = [x]
    for _ in range(max(1, math.ceil(t_end / dt))):
        k1 = c - m @ x
        k2 = c - m @ (x + 0.5 * dt * k1)
        k3 = c - m @ (x + 0.5 * dt * k2)
        k4 = c - m @ (x + dt * k3)
        delta = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = x + delta
        states.append(x)
        if np.max(np.abs(delta)) / dt < tol:
            return np.vstack(states), True
    return np.vstack(states), False


def closed_form_state(g: Graph, links: LeaderLinks, x0, ys, t: float) -> np.ndarray:
    """x(t) = x* + exp(-M t)(x0 - x*) through the eigendecomposition of M."""
    m, c = flow_system(g, links, ys)
    w, vecs = np.linalg.eigh(m)
    x_star = vecs @ ((vecs.T @ c) / w)
    return x_star + vecs @ (np.exp(-w * t) * (vecs.T @ (np.asarray(x0, dtype=float) - x_star)))
