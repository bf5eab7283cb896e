"""The two-leader topology game, solved exactly.

Each leader independently attaches to k followers of a connected graph.
Entry u_ij of the outcome matrix is the mean high-leader weight when
leader 0 picks strategy i and leader 1 picks strategy j: an exact rational
strictly between 0 and 1. Leader 0 minimizes, leader 1 maximizes, and a
saddle point of the matrix is an optimal topology of the system.

Two independent routes to the half-comparison are kept on purpose: the
direct rational entry, and an integer comparison of adjugate column sums
that never forms the entry at all. Their agreement is itself a tested
deliverable.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .containment import LeaderLinks, grounded
from .exactmat import adjugate_int, determinant_int, plus_diag, solve_rational
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

    Every entry, the diagonal included, is computed independently so the
    structural identities stay checkable facts.
    """
    if not is_connected(g):
        raise ValueError("graph not connected")
    strategies = enumerate_strategies(g.n, k, cap=cap)
    entries = tuple(
        tuple(outcome_entry(g, si, sj) for sj in strategies) for si in strategies
    )
    return OutcomeMatrix(graph=g, k=k, strategies=tuple(strategies), entries=entries)


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


def _grounded_colsums(lap, i: int) -> list:
    """Column sums of adj(L + diag(e_i)) for the Laplacian ``lap``, i 1-indexed."""
    e_i = [0] * len(lap)
    e_i[i - 1] = 1
    adj = adjugate_int(plus_diag(lap, e_i))
    return [sum(col) for col in zip(*adj)]


def grounded_adjugate_sum(g: Graph, i: int, j: int) -> int:
    """Sum of column j of adj(L + diag(e_i)): a nonnegative integer equal to
    the spanning-tree count times the column sum of the grounded inverse."""
    for v in (i, j):
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range 1..{g.n}")
    return _grounded_colsums(laplacian(g), i)[j - 1]


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
    lap = laplacian(g)
    colsums = [_grounded_colsums(lap, i) for i in range(1, n + 1)]
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
