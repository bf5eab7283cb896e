"""Self-check suites: re-derive the library's structural guarantees on one
graph, reporting pass/fail per suite with a counterexample on failure.

The structural suites run on ``outcome_matrix``; the single-link suites run
on a matrix built entry by entry with ``outcome_entry``, so the integer
half-comparison and the se-set are checked against an independent n x n
solve, not against the grounded adjugates they are computed from.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .containment import LeaderLinks, LeaderStates, convex_weights, payoffs, steady_state
from .exactmat import spanning_tree_count
from .game import (
    HALF,
    Dominance,
    Ordering,
    OutcomeMatrix,
    compare_half,
    enumerate_strategies,
    game_values,
    grounded_adjugate_sum,
    m_ij,
    nash_equilibria,
    neighborhood_dominance,
    outcome_entry,
    outcome_matrix,
    se_set,
    security_sets,
    shortcut_optimal,
)
from .graphs import Graph, is_connected, laplacian
from .simulate import SimConfig, simulate, stability_limit, terminal_residual


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _random_links(rng: random.Random, n: int) -> LeaderLinks:
    def pick():
        count = rng.randint(1, max(1, min(3, n)))
        return rng.sample(range(1, n + 1), count)

    return LeaderLinks.from_vertices(n, pick(), pick())


def run_checks(g: Graph, k: int = 1, seed: int = 0) -> list:
    """Run every invariant suite on the given graph.

    The connectivity gate comes first; when it fails the remaining checks
    are skipped because they are only defined for connected graphs.
    """
    results = []
    lap = laplacian(g)

    bad = [i for i, row in enumerate(lap) if sum(row) != 0]
    sym = all(lap[i][j] == lap[j][i] for i in range(g.n) for j in range(g.n))
    deg = all(lap[i][i] == g.degree(i + 1) for i in range(g.n))
    results.append(
        CheckResult(
            "laplacian-structure",
            not bad and sym and deg,
            "" if not bad and sym and deg else f"bad rows {bad}, symmetric={sym}, degrees={deg}",
        )
    )

    if not is_connected(g):
        results.append(CheckResult("connectivity-gate", False, "graph not connected"))
        return results
    results.append(CheckResult("connectivity-gate", True))

    u = outcome_matrix(g, k)
    n_s = u.size

    bad_pair = next(
        (
            (i, j)
            for i in range(n_s)
            for j in range(n_s)
            if u.entries[i][j] + u.entries[j][i] != 1
        ),
        None,
    )
    bad_diag = next((i for i in range(n_s) if u.entries[i][i] != HALF), None)
    ok = bad_pair is None and bad_diag is None
    results.append(
        CheckResult(
            "outcome-involution",
            ok,
            "" if ok else f"pair {bad_pair}, diagonal index {bad_diag}",
        )
    )

    report = game_values(u)
    ok = report.lower_value <= HALF <= report.upper_value
    ok = ok and report.lower_value == 1 - report.upper_value
    results.append(
        CheckResult(
            "value-bounds",
            ok,
            "" if ok else f"upper={report.upper_value} lower={report.lower_value}",
        )
    )

    rows, cols = security_sets(u)
    same = set(rows) == set(cols)
    results.append(
        CheckResult("security-set-symmetry", same, "" if same else f"rows={rows} cols={cols}")
    )

    full = nash_equilibria(u)
    if full.upper_value == full.lower_value:
        expected = {(i, j) for i in full.security_set for j in full.security_set}
        ok = set(full.nash_pairs) == expected and full.nash_value == HALF
        detail = "" if ok else f"pairs={full.nash_pairs} value={full.nash_value}"
    else:
        ok = full.nash_pairs == () and full.nash_value is None
        detail = "" if ok else f"pairs={full.nash_pairs}"
    results.append(CheckResult("nash-consistency", ok, detail))

    results.extend(_single_link_checks(g, _entrywise_single_link(g)))
    results.extend(_containment_checks(g, seed))
    return results


def _entrywise_single_link(g: Graph) -> OutcomeMatrix:
    """The single-link outcome matrix from one ``outcome_entry`` solve per entry."""
    s = tuple(enumerate_strategies(g.n, 1))
    entries = tuple(tuple(outcome_entry(g, si, sj) for sj in s) for si in s)
    return OutcomeMatrix(graph=g, k=1, strategies=s, entries=entries)


def _single_link_checks(g: Graph, u1) -> list:
    results = []
    n = g.n
    verts = range(1, n + 1)

    bad = None
    for i in verts:
        for j in verts:
            if i == j:
                continue
            entry = u1.entries[i - 1][j - 1]
            expected = (
                Ordering.LESS if entry < HALF else Ordering.EQUAL if entry == HALF else Ordering.GREATER
            )
            if compare_half(g, i, j) is not expected:
                bad = (i, j)
                break
        if bad:
            break
    results.append(
        CheckResult("half-comparison-agreement", bad is None, "" if bad is None else f"pair {bad}")
    )

    bad = None
    for i in verts:
        for j in verts:
            if i == j:
                continue
            cls = neighborhood_dominance(g, i, j)
            entry = u1.entries[i - 1][j - 1]
            if cls is Dominance.STRICT_SUPERSET and not entry < HALF:
                bad = (i, j, cls)
            elif cls is Dominance.EQUAL and entry != HALF:
                bad = (i, j, cls)
            elif cls is Dominance.STRICT_SUBSET and not entry > HALF:
                bad = (i, j, cls)
            if bad:
                break
        if bad:
            break
    results.append(
        CheckResult("dominance-soundness", bad is None, "" if bad is None else f"case {bad}")
    )

    tau = spanning_tree_count(g)
    bad = next(
        (
            (i, j)
            for i in verts
            for j in verts
            if i != j and grounded_adjugate_sum(g, i, j) != n * tau + m_ij(g, i, j)
        ),
        None,
    )
    results.append(
        CheckResult("adjugate-minor-identity", bad is None, "" if bad is None else f"pair {bad}")
    )

    report = nash_equilibria(u1)
    se = se_set(g)
    if se:
        ok = set(se) == {u1.strategies[i].vertices[0] for i in report.security_set}
        detail = "" if ok else f"se={se} security={report.security_set}"
    else:
        ok = report.upper_value > HALF
        detail = "" if ok else f"se empty but upper={report.upper_value}"
    results.append(CheckResult("se-set-security-match", ok, detail))

    sc = shortcut_optimal(g)
    if sc is None:
        ok, detail = True, "no shortcut applies"
    elif sc.kind == "circulant":
        all_half = all(v == HALF for row in u1.entries for v in row)
        all_pairs = len(report.nash_pairs) == u1.size * u1.size
        ok = all_half and all_pairs
        detail = "" if ok else f"all_half={all_half} pairs={len(report.nash_pairs)}"
    else:
        idx = sc.center - 1
        ok = (idx, idx) in report.nash_pairs
        detail = "" if ok else f"center pair ({sc.center},{sc.center}) not a saddle point"
    results.append(CheckResult("shortcut-agreement", ok, detail))
    return results


def _containment_checks(g: Graph, seed: int) -> list:
    results = []
    rng = random.Random(seed)
    ys = LeaderStates(Fraction(-1), Fraction(1))
    trials = [_random_links(rng, g.n) for _ in range(3)]

    bad = None
    for links in trials:
        w = convex_weights(g, links)
        if any(a + b != 1 for a, b in zip(w.alpha, w.beta)):
            bad = (links, "alpha+beta != 1")
        elif any(not 0 < a < 1 for a in w.alpha) or any(not 0 < b < 1 for b in w.beta):
            bad = (links, "weight outside (0,1)")
        else:
            state = steady_state(g, links, ys)
            if any(not ys.y0 < x < ys.y1 for x in state):
                bad = (links, "steady state outside (y0,y1)")
            else:
                u0, u1 = payoffs(g, links, ys)
                if u0 + u1 != ys.span:
                    bad = (links, "payoffs do not sum to the span")
        if bad:
            break
    results.append(
        CheckResult("convex-weights", bad is None, "" if bad is None else f"{bad}")
    )

    links = trials[0]
    cfg = SimConfig(dt=stability_limit(g, links), t_end=400.0)
    traj = simulate(g, links, [0.0] * g.n, ys, cfg)
    resid = terminal_residual(traj, g, links, ys)
    ok = resid < 1e-6
    results.append(
        CheckResult(
            "simulation-limit",
            ok,
            "" if ok else f"residual {resid:.3e} links b={links.b_vertices()} d={links.d_vertices()}",
        )
    )

    bad = None
    for i in range(1, g.n + 1):
        for j in range(1, g.n + 1):
            lk = LeaderLinks.from_vertices(g.n, [i], [j])
            exact = steady_state(g, lk, ys)
            if (exact[i - 1] - ys.y0) - (ys.y1 - exact[j - 1]) != 0:
                bad = (i, j)
                break
        if bad:
            break
    results.append(
        CheckResult("distance-symmetry", bad is None, "" if bad is None else f"pair {bad}")
    )
    return results
