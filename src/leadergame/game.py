"""The two-leader topology game, solved exactly.

Each leader independently attaches to k followers of a connected graph.
Entry u_ij of the outcome matrix is the mean high-leader weight when
leader 0 picks strategy i and leader 1 picks strategy j: an exact rational
strictly between 0 and 1. Leader 0 minimizes, leader 1 maximizes, and a
saddle point of the matrix is an optimal topology of the system.

Rows from ``outcome_rows`` feed ``outcome_matrix`` and ``reconstruct``.
One elimination of L + 11^T per graph, ``_single_link_adjugate``, answers
every single-link question: the k=1 rows, ``grounded_adjugate_sum``,
``compare_half``, ``se_set`` and the whole k=1 game, ``single_link_report``.
For k >= 2 each row takes one grounded elimination, ``_grounded_adjugate``
(det and adjugate of L + diag(1_S)), and a k x k fraction-free Woodbury
correction per entry. ``outcome_entry`` solves each entry independently
with one n x n system and is the oracle both row routes are tested
against; ``verify`` checks the half-comparison and the se-set against it
on any given graph.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .containment import LeaderLinks, grounded
from .exactmat import bareiss, determinant_int, identity, plus_diag
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


def _check_strategies(g: Graph, strategies) -> None:
    if any(s.n != g.n for s in strategies):
        raise ValueError("strategy length does not match the vertex count")
    if len({s.k for s in strategies}) > 1:
        raise ValueError("both leaders must attach to the same number of followers")
    if not is_connected(g):
        raise ValueError("graph not connected")


def outcome_entry(g: Graph, s_i: Strategy, s_j: Strategy) -> Fraction:
    """Exact outcome for the ordered pair (s_i, s_j): the mean of
    (L + diag(s_i + s_j))^-1 s_j over all followers."""
    _check_strategies(g, (s_i, s_j))
    m = grounded(g, LeaderLinks(b=s_i.indicator, d=s_j.indicator))
    det, x = bareiss(m, [[v] for v in s_j.indicator])
    return Fraction(sum(row[0] for row in x), g.n * det)


def _grounded_adjugate(lap, s, eye) -> tuple:
    """(D, A) with D = det(L + diag(s)) and A its adjugate, from one
    elimination of [L + diag(s) | I]; ``lap`` is L and ``eye`` is I.

    A is a symmetric integer matrix. The grounded matrix is singular exactly
    when some component of the graph holds no vertex of s.
    """
    big_d, adj = bareiss(plus_diag(lap, s), eye)
    if adj is None:
        raise ValueError("graph not connected")
    return big_d, adj


def _rows(g: Graph, strategies: tuple):
    """Outcome rows of a connected graph; see ``outcome_rows``."""
    if not strategies:
        return iter(())
    if strategies[0].k == 1:
        return _single_link_rows(g, [s.vertices[0] - 1 for s in strategies])
    return _woodbury_rows(g, strategies)


def _single_link_rows(g: Graph, idx: list):
    """k=1 rows over the 0-based vertices ``idx`` from (D, K) alone."""
    big_d, adj = _single_link_adjugate(g)
    for i in idx:
        ki = adj[i]
        yield tuple(
            Fraction(big_d + ki[i] - ki[j], 2 * big_d + ki[i] + adj[j][j] - 2 * ki[j]) for j in idx
        )


def _woodbury_rows(g: Graph, strategies: tuple):
    """Rows for k >= 2 from one grounded elimination per row; see ``outcome_rows``."""
    n = g.n
    lap = laplacian(g)
    eye = identity(n)
    ones = [[1]] * strategies[0].k
    cols = [[t - 1 for t in s.vertices] for s in strategies]
    for si in strategies:
        big_d, adj = _grounded_adjugate(lap, si.indicator, eye)
        z = [sum(row) for row in adj]
        row = []
        for idx in cols:
            corr = [[adj[r][c] + (big_d if r == c else 0) for c in idx] for r in idx]
            d, y = bareiss(corr, ones)
            num = sum(z[t] * yt[0] for t, yt in zip(idx, y))
            row.append(Fraction(num, n * d))
        yield tuple(row)


def outcome_rows(g: Graph, strategies):
    """The rows of the outcome matrix over ``strategies``, one at a time,
    in the order given.

    For k = 1 every row reads D = n^2 tau and K = adj(L + 11^T) from the one
    cached elimination per graph: by the resistance-distance identity,

        u(i, j) = (D + K_ii - K_ij) / (2D + K_ii + K_jj - 2K_ij).

    For k >= 2, row S takes one elimination of M_S = L + diag(1_S), giving
    D = det M_S and the symmetric integer adjugate A, and z = A 1. Column T
    adds diag(1_T) = U U^T with U = [e_t for t in T]; by the push-through
    form of Woodbury, (M_S + U U^T)^-1 U = M_S^-1 U (I + U^T M_S^-1 U)^-1, so

        u(S, T) = z_T . y / (n d),  d = det(D I + A_TT),  y = d (D I + A_TT)^-1 1,

    one k x k integer elimination per entry. The inputs are checked before
    the first row is asked for; a caller that stops early skips the rest.
    """
    strategies = tuple(strategies)
    _check_strategies(g, strategies)
    return _rows(g, strategies)


def outcome_matrix(g: Graph, k: int, cap: int = DEFAULT_STRATEGY_CAP) -> OutcomeMatrix:
    """Full outcome matrix for the k-follower game on g, row by row as
    ``outcome_rows`` yields them.

    Nothing is assumed about the diagonal or the involution u + u^T = 1:
    every entry is computed, so the structural identities stay checkable
    facts, and ``outcome_entry`` remains the independent per-entry oracle.
    """
    if not is_connected(g):
        raise ValueError("graph not connected")
    strategies = tuple(enumerate_strategies(g.n, k, cap=cap))
    return OutcomeMatrix(graph=g, k=k, strategies=strategies, entries=tuple(_rows(g, strategies)))


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


@functools.lru_cache(maxsize=16)
def _single_link_adjugate(g: Graph) -> tuple:
    """(D, K) with D = det(L + 11^T) = n^2 tau and K its adjugate (a tuple
    of tuples), from one elimination of [L + 11^T | I], cached per graph.

    By the resistance-distance identity (Klein & Randic 1993) K holds every
    grounded column sum. L + 11^T is singular exactly when g is disconnected.
    """
    big_d, adj = bareiss([[x + 1 for x in row] for row in laplacian(g)], identity(g.n))
    if adj is None:
        raise ValueError("graph not connected")
    return big_d, tuple(map(tuple, adj))


def _check_vertices(g: Graph, *vertices) -> None:
    for v in vertices:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range 1..{g.n}")


def grounded_adjugate_sum(g: Graph, i: int, j: int) -> int:
    """Sum of column j of adj(L + diag(e_i)): a nonnegative integer equal to
    the spanning-tree count times the column sum of the grounded inverse,
    read from K as (D + K_ii - K_ij) / n."""
    _check_vertices(g, i, j)
    big_d, adj = _single_link_adjugate(g)
    return (big_d + adj[i - 1][i - 1] - adj[i - 1][j - 1]) // g.n


def compare_half(g: Graph, i: int, j: int) -> Ordering:
    """Order the single-link outcome u_ij against 1/2 without forming it.

    The comparison reduces to two grounded column sums, which differ by
    (K_ii - K_jj) / n: the sign of K_ii - K_jj decides it.
    """
    if i == j:
        raise ValueError("vertices must differ")
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
    _check_vertices(g, i, j)
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
    for every k: argmin diag K, the information-centrality maximisers
    (Stephenson & Zelen 1989). Always nonempty; the security set.
    """
    _, adj = _single_link_adjugate(g)
    diag = [adj[i][i] for i in range(g.n)]
    return tuple(i + 1 for i in _argbest(diag, min(diag)))


def single_link_report(g: Graph) -> GameReport:
    """The k=1 game solved from K alone, equal to
    ``nash_equilibria(outcome_matrix(g, 1))``: the half-comparison is a total
    preorder, so the se-set is the security set, its square the saddle
    pairs, and the value 1/2.
    """
    sec = tuple(v - 1 for v in se_set(g))
    pairs = tuple(itertools.product(sec, sec))
    return GameReport(HALF, HALF, security_set=sec, nash_pairs=pairs, nash_value=HALF)


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
