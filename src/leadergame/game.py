"""The two-leader topology game, solved exactly.

Each leader independently attaches to k followers of a connected graph.
Entry u_ij of the outcome matrix is the mean high-leader weight when
leader 0 picks strategy i and leader 1 picks strategy j: an exact rational
strictly between 0 and 1. Leader 0 minimizes, leader 1 maximizes, and a
saddle point of the matrix is an optimal topology of the system.

Three routes are kept on purpose. ``outcome_matrix`` takes one grounded
adjugate per row and a k x k fraction-free correction per entry;
``outcome_entry`` solves each entry independently with one n x n system and
is the oracle the fast route is tested against; ``compare_half`` orders a
single-link entry against 1/2 from adjugate column sums without forming the
entry at all. Their agreement is itself a tested deliverable, and ``verify``
checks the third route against the second on any given graph.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .containment import LeaderLinks, grounded
from .exactmat import adjugate_int, bareiss, determinant_int, identity, plus_diag, solve_rational
from .graphs import Graph, center_vertices, is_circulant_labeled, is_connected, laplacian, neighbors

DEFAULT_STRATEGY_CAP = 20000

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Strategy:
    """A leader's pick of k followers: index is the position in the
    lexicographic enumeration of k-subsets of 1..n."""

    index: int
    n: int
    vertices: tuple

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a strategy must pick at least one follower")
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("strategy vertices must be distinct and ascending")
        if self.vertices[0] < 1 or self.vertices[-1] > self.n:
            raise ValueError(f"strategy vertices outside 1..{self.n}")

    @property
    def k(self) -> int:
        return len(self.vertices)

    @property
    def indicator(self) -> tuple:
        out = [0] * self.n
        for v in self.vertices:
            out[v - 1] = 1
        return tuple(out)


@dataclass(frozen=True)
class OutcomeMatrix:
    """N x N exact outcome matrix over the strategy enumeration.

    Satisfies entries[i][j] + entries[j][i] == 1 and entries[i][i] == 1/2;
    both facts are verified by the test suite rather than assumed during
    construction.
    """

    graph: Graph
    k: int
    strategies: tuple
    entries: tuple

    @property
    def size(self) -> int:
        return len(self.strategies)


@dataclass(frozen=True)
class GameReport:
    """Values, security strategies and (optionally) saddle points.

    ``security_set`` and ``nash_pairs`` hold 0-based strategy indices into
    the matrix enumeration. ``nash_value`` is None when no pure saddle
    point exists.
    """

    upper_value: Fraction
    lower_value: Fraction
    security_set: tuple
    nash_pairs: tuple = ()
    nash_value: Fraction | None = None


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


class Dominance(enum.Enum):
    """How the punctured neighborhood of i compares with that of j."""

    STRICT_SUBSET = "strict-subset"
    EQUAL = "equal"
    STRICT_SUPERSET = "strict-superset"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Shortcut:
    """A structural solution that avoids building the outcome matrix.

    kind "circulant": every strategy pair is optimal and the matrix is
    identically 1/2. kind "center": attaching both leaders to ``center``
    is an optimal topology.
    """

    kind: str
    center: int | None = None


def enumerate_strategies(n: int, k: int, cap: int = DEFAULT_STRATEGY_CAP) -> list:
    """All k-subsets of 1..n in lexicographic order of their vertex lists."""
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    count = math.comb(n, k)
    if count > cap:
        raise ValueError(f"C({n},{k}) = {count} strategies exceeds the cap of {cap}")
    return [
        Strategy(index=i, n=n, vertices=verts)
        for i, verts in enumerate(itertools.combinations(range(1, n + 1), k))
    ]


def outcome_entry(g: Graph, s_i: Strategy, s_j: Strategy) -> Fraction:
    """Exact outcome for the ordered pair (s_i, s_j): the mean of
    (L + diag(s_i + s_j))^-1 s_j over all followers."""
    if s_i.n != g.n or s_j.n != g.n:
        raise ValueError("strategy length does not match the vertex count")
    if s_i.k != s_j.k:
        raise ValueError("both leaders must attach to the same number of followers")
    if not is_connected(g):
        raise ValueError("graph not connected")
    m = grounded(g, LeaderLinks(b=s_i.indicator, d=s_j.indicator))
    x = solve_rational(m, list(s_j.indicator))
    return sum(x, start=Fraction(0)) / g.n


def outcome_matrix(g: Graph, k: int, cap: int = DEFAULT_STRATEGY_CAP) -> OutcomeMatrix:
    """Full outcome matrix for the k-follower game on g.

    Row S takes one elimination of M_S = L + diag(1_S), giving D = det M_S
    and the symmetric integer adjugate A, and z = A 1. Column T adds
    diag(1_T) = U U^T with U = [e_t for t in T]; by the push-through form of
    Woodbury, (M_S + U U^T)^-1 U = M_S^-1 U (I + U^T M_S^-1 U)^-1, so

        u(S, T) = z_T . y / (n d),  d = det(D I + A_TT),  y = d (D I + A_TT)^-1 1,

    one k x k integer elimination per entry. Nothing is assumed about the
    diagonal or the involution u + u^T = 1: every entry is computed, so the
    structural identities stay checkable facts, and ``outcome_entry`` remains
    the independent per-entry oracle.
    """
    if not is_connected(g):
        raise ValueError("graph not connected")
    strategies = enumerate_strategies(g.n, k, cap=cap)
    lap = laplacian(g)
    n = g.n
    eye = identity(n)
    ones = [[1]] * k
    rows = []
    for si in strategies:
        big_d, adj = bareiss(plus_diag(lap, si.indicator), eye)
        z = [sum(row) for row in adj]
        row = []
        for sj in strategies:
            idx = [t - 1 for t in sj.vertices]
            corr = [[adj[r][c] + (big_d if r == c else 0) for c in idx] for r in idx]
            d, y = bareiss(corr, ones)
            num = sum(z[t] * yt[0] for t, yt in zip(idx, y))
            row.append(Fraction(num, n * d))
        rows.append(tuple(row))
    return OutcomeMatrix(graph=g, k=k, strategies=tuple(strategies), entries=tuple(rows))


def _scan(u: OutcomeMatrix) -> tuple:
    """Row maxima and column minima of the outcome matrix."""
    row_max = [max(row) for row in u.entries]
    col_min = [min(col) for col in zip(*u.entries)]
    return row_max, col_min


def _argbest(values, best) -> tuple:
    return tuple(i for i, v in enumerate(values) if v == best)


def security_sets(u: OutcomeMatrix) -> tuple:
    """Row (minimizer) and column (maximizer) security strategy index sets."""
    row_max, col_min = _scan(u)
    return _argbest(row_max, min(row_max)), _argbest(col_min, max(col_min))


def _values(row_max, col_min) -> GameReport:
    upper = min(row_max)
    return GameReport(
        upper_value=upper,
        lower_value=max(col_min),
        security_set=_argbest(row_max, upper),
    )


def game_values(u: OutcomeMatrix) -> GameReport:
    """Upper/lower values and the security set (recorded from the rows;
    the row and column sets coincide, which the test suite verifies)."""
    return _values(*_scan(u))


def nash_equilibria(u: OutcomeMatrix) -> GameReport:
    """Complete report: every pure saddle point of the outcome matrix.

    A saddle point (i, j) is an entry that is both the maximum of its row
    and the minimum of its column. Saddle points exist exactly when the
    upper and lower values coincide, and their common entry is that value.
    """
    row_max, col_min = _scan(u)
    base = _values(row_max, col_min)
    pairs = tuple(
        (i, j)
        for i, row in enumerate(u.entries)
        for j, v in enumerate(row)
        if v == row_max[i] == col_min[j]
    )
    if not pairs:
        return base
    return replace(base, nash_pairs=pairs, nash_value=base.upper_value)


def optimal_topologies(g: Graph, k: int, cap: int = DEFAULT_STRATEGY_CAP) -> list:
    """All optimal leader attachments, as pairs of strategies."""
    u = outcome_matrix(g, k, cap=cap)
    report = nash_equilibria(u)
    return [(u.strategies[i], u.strategies[j]) for i, j in report.nash_pairs]


@functools.lru_cache(maxsize=256)
def _grounded_colsums(g: Graph, i: int) -> tuple:
    """Column sums of adj(L + diag(e_i)), i 1-indexed.

    Cached per (graph, vertex): ``compare_half`` over all pairs, the
    adjugate-minor identity and ``se_set`` then share n adjugates. Graphs
    are frozen and the results are tuples, so no caller can change a
    cached value.
    """
    e_i = [0] * g.n
    e_i[i - 1] = 1
    adj = adjugate_int(plus_diag(laplacian(g), e_i))
    return tuple(sum(col) for col in zip(*adj))


def grounded_adjugate_sum(g: Graph, i: int, j: int) -> int:
    """Sum of column j of adj(L + diag(e_i)): a nonnegative integer equal to
    the spanning-tree count times the column sum of the grounded inverse."""
    for v in (i, j):
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range 1..{g.n}")
    return _grounded_colsums(g, i)[j - 1]


def compare_half(g: Graph, i: int, j: int) -> Ordering:
    """Order the single-link outcome u_ij against 1/2 without forming it.

    The comparison reduces to two integers: the column sums of the adjugates
    of L grounded at i and at j. Both integers are nonnegative because the
    grounded inverses are nonnegative matrices.
    """
    if i == j:
        raise ValueError("vertices must differ")
    if not is_connected(g):
        raise ValueError("graph not connected")
    lhs = grounded_adjugate_sum(g, i, j)
    rhs = grounded_adjugate_sum(g, j, i)
    if lhs < rhs:
        return Ordering.LESS
    if lhs == rhs:
        return Ordering.EQUAL
    return Ordering.GREATER


def m_ij(g: Graph, i: int, j: int) -> int:
    """Determinant of L with row/column i deleted and row j replaced by ones.

    Satisfies grounded_adjugate_sum(g, i, j) == n * tau(g) + m_ij(g, i, j)
    exactly, which the test suite checks on random connected graphs.
    """
    if i == j:
        raise ValueError("vertices must differ")
    if not is_connected(g):
        raise ValueError("graph not connected")
    lap = laplacian(g)
    keep = [v for v in range(1, g.n + 1) if v != i]
    sub = [[lap[r - 1][c - 1] for c in keep] for r in keep]
    sub[keep.index(j)] = [1] * (g.n - 1)
    return determinant_int(sub)


def neighborhood_dominance(g: Graph, i: int, j: int) -> Dominance:
    """Classify the neighbor set of i minus {j} against that of j minus {i}.

    A strict superset forces u_ij < 1/2, equality forces u_ij == 1/2, and a
    strict subset forces u_ij > 1/2; incomparable sets carry no conclusion.
    """
    if i == j:
        raise ValueError("vertices must differ")
    ni = neighbors(g, i) - {j}
    nj = neighbors(g, j) - {i}
    if ni == nj:
        return Dominance.EQUAL
    if ni > nj:
        return Dominance.STRICT_SUPERSET
    if ni < nj:
        return Dominance.STRICT_SUBSET
    return Dominance.INCOMPARABLE


def se_set(g: Graph) -> tuple:
    """Vertices whose single link is never worse than the reply, i.e. the i
    with grounded_adjugate_sum(g, i, k) <= grounded_adjugate_sum(g, k, i)
    for every k. Nonempty exactly when the single-link game has a saddle
    point, and then it equals the security set.
    """
    if not is_connected(g):
        raise ValueError("graph not connected")
    n = g.n
    colsums = [_grounded_colsums(g, i) for i in range(1, n + 1)]
    members = [
        i
        for i in range(1, n + 1)
        if all(colsums[i - 1][k - 1] <= colsums[k - 1][i - 1] for k in range(1, n + 1))
    ]
    return tuple(members)


def shortcut_optimal(g: Graph) -> Shortcut | None:
    """Structural single-link solution, when the graph shape admits one.

    Circulant labeling: every pair is optimal and the matrix is identically
    1/2. Otherwise a center vertex, if present, yields the optimal pair
    (center, center). Returns None when neither shape applies.
    """
    if not is_connected(g):
        raise ValueError("graph not connected")
    if is_circulant_labeled(g):
        return Shortcut(kind="circulant")
    centers = center_vertices(g)
    if centers:
        return Shortcut(kind="center", center=centers[0])
    return None
