"""Command-line front end.

Graphs come from generator specs (path:n, cycle:n, star:n, complete:n,
circulant:n:o1,o2) or from edge-list files. Exact values print as reduced
num/den fractions; decimal output rounds half-to-even at --precision places.
Exit status: 0 success, 1 internal failure or failed verification, 2 invalid
input.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .containment import LeaderLinks, LeaderStates
from .exactmat import spanning_tree_count
from .game import (
    DEFAULT_STRATEGY_CAP,
    HALF,
    GameReport,
    enumerate_strategies,
    game_values,
    nash_equilibria,
    outcome_matrix,
    se_set,
    shortcut_optimal,
)
from .graphs import GENERATOR_KINDS, Graph, format_edge_list, generate, load_edge_list
from .reconstruct import (
    BENCHMARK_HUB,
    BENCHMARK_N,
    BENCHMARK_TOL,
    RIM_PAIRS,
    reconstruct_benchmark,
    rim_edges,
)
from .simulate import SimConfig, simulate, terminal_residual, trajectory_csv
from .verify import run_checks


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _decimal(x: Fraction, precision: int) -> str:
    return f"{float(round(x, precision)):.{precision}f}"


def _resolve_graph(spec: str) -> Graph:
    head = spec.split(":", 1)[0]
    if head not in GENERATOR_KINDS:
        return load_edge_list(spec)
    parts = spec.split(":")
    if len(parts) < 2:
        raise ValueError(f"generator spec {spec!r} needs a vertex count, e.g. '{head}:6'")
    n = int(parts[1])
    if head == "circulant":
        if len(parts) != 3:
            raise ValueError("circulant spec is 'circulant:n:o1,o2,...'")
        offsets = [int(tok) for tok in parts[2].split(",") if tok]
        return generate("circulant", n, offsets)
    if len(parts) != 2:
        raise ValueError(f"bad generator spec {spec!r}")
    return generate(head, n)


def _parse_vertices(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValueError(f"bad vertex list {text!r}; expected comma-separated integers")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _cmd_gen(args) -> int:
    g = _resolve_graph(args.graph)
    sys.stdout.write(format_edge_list(g))
    return 0


def _cmd_outcome(args) -> int:
    if args.precision < 0:
        raise ValueError(f"--precision must be >= 0, got {args.precision}")
    g = _resolve_graph(args.graph)
    u = outcome_matrix(g, args.k, cap=args.cap)
    if args.format == "csv":
        for row in u.entries:
            print(",".join(_decimal(v, args.precision) for v in row))
        return 0
    _emit(
        {
            "n": g.n,
            "k": args.k,
            "strategies": [list(s.vertices) for s in u.strategies],
            "matrix": [[_frac(v) for v in row] for row in u.entries],
        }
    )
    return 0


def _cmd_nash(args) -> int:
    g = _resolve_graph(args.graph)
    shortcut = shortcut_optimal(g) if args.k == 1 else None
    shortcut_used = shortcut is not None and shortcut.kind == "circulant"
    if shortcut_used:
        strategies = enumerate_strategies(g.n, 1, cap=args.cap)
        every = tuple(range(len(strategies)))
        report = GameReport(
            upper_value=HALF,
            lower_value=HALF,
            security_set=every,
            nash_pairs=tuple(itertools.product(every, every)),
            nash_value=HALF,
        )
    else:
        u = outcome_matrix(g, args.k, cap=args.cap)
        strategies = u.strategies
        report = nash_equilibria(u)
    verts = [list(s.vertices) for s in strategies]
    _emit(
        {
            "upper_value": _frac(report.upper_value),
            "lower_value": _frac(report.lower_value),
            "security_set": [verts[i] for i in report.security_set],
            "nash_pairs": [[verts[i], verts[j]] for i, j in report.nash_pairs],
            "nash_value": None if report.nash_value is None else _frac(report.nash_value),
            "shortcut_used": shortcut_used,
        }
    )
    return 0


def _cmd_security(args) -> int:
    g = _resolve_graph(args.graph)
    u = outcome_matrix(g, args.k, cap=args.cap)
    report = game_values(u)
    verts = [list(s.vertices) for s in u.strategies]
    _emit(
        {
            "upper_value": _frac(report.upper_value),
            "lower_value": _frac(report.lower_value),
            "security_set": [verts[i] for i in report.security_set],
        }
    )
    return 0


def _cmd_se_set(args) -> int:
    g = _resolve_graph(args.graph)
    _emit({"n": g.n, "se_set": list(se_set(g))})
    return 0


def _cmd_tau(args) -> int:
    g = _resolve_graph(args.graph)
    _emit({"n": g.n, "tau": spanning_tree_count(g)})
    return 0


def _cmd_simulate(args) -> int:
    g = _resolve_graph(args.graph)
    links = LeaderLinks.from_vertices(g.n, _parse_vertices(args.b), _parse_vertices(args.d))
    ys = LeaderStates(Fraction(args.y0), Fraction(args.y1))
    cfg = SimConfig(dt=args.dt, t_end=args.t_end, convergence_tol=args.tol)
    traj = simulate(g, links, [0.0] * g.n, ys, cfg)
    sys.stdout.write(trajectory_csv(traj, ys))
    resid = terminal_residual(traj, g, links, ys)
    state = ",".join(f"{v:.12g}" for v in traj.terminal_state)
    print(
        f"terminal t={traj.times[-1]:.12g} converged={traj.converged} "
        f"state=[{state}] max-residual-vs-analytic={resid:.3e}",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    g = _resolve_graph(args.graph)
    results = run_checks(g, k=args.k, seed=args.seed)
    all_ok = True
    for r in results:
        if r.ok:
            print(f"PASS {r.name}")
        else:
            all_ok = False
            print(f"FAIL {r.name}: {r.detail}")
    return 0 if all_ok else 1


def _cmd_reconstruct(args) -> int:
    matches = reconstruct_benchmark(tol=args.tol)
    out = []
    for g in matches:
        u = outcome_matrix(g, 1)
        report = nash_equilibria(u)
        out.append(
            {
                "edges": [list(e) for e in g.sorted_edges()],
                "rim_edges": [list(e) for e in rim_edges(g)],
                "upper_value": _frac(report.upper_value),
                "lower_value": _frac(report.lower_value),
                "hub_in_security_set": 0 in report.security_set,
                "hub_pair_is_nash": (0, 0) in report.nash_pairs,
            }
        )
    _emit(
        {
            "n": BENCHMARK_N,
            "hub": BENCHMARK_HUB,
            "candidates_searched": 1 << len(RIM_PAIRS),
            "matches": out,
        }
    )
    return 0


def _add_graph_flag(p) -> None:
    p.add_argument(
        "--graph",
        required=True,
        help="generator spec (path:n, cycle:n, star:n, complete:n, circulant:n:o1,o2) or edge-list file",
    )


def _add_game_flags(p) -> None:
    p.add_argument("--k", type=int, default=1, help="followers attached per leader (default 1)")
    p.add_argument("--cap", type=int, default=DEFAULT_STRATEGY_CAP, help="strategy-count cap")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadergame",
        description="Exact zero-sum analysis of two-leader containment control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a graph in edge-list format")
    _add_graph_flag(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("outcome", help="print the exact outcome matrix")
    _add_graph_flag(p)
    _add_game_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--precision", type=int, default=4, help="decimals for csv output")
    p.set_defaults(func=_cmd_outcome)

    p = sub.add_parser("nash", help="solve for saddle points / optimal topologies")
    _add_graph_flag(p)
    _add_game_flags(p)
    p.set_defaults(func=_cmd_nash)

    p = sub.add_parser("security", help="game values and security strategies")
    _add_graph_flag(p)
    _add_game_flags(p)
    p.set_defaults(func=_cmd_security)

    p = sub.add_parser("se-set", help="single-link never-worse vertex set")
    _add_graph_flag(p)
    p.set_defaults(func=_cmd_se_set)

    p = sub.add_parser("tau", help="spanning-tree count")
    _add_graph_flag(p)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("simulate", help="RK4 trajectory as CSV, summary on stderr")
    _add_graph_flag(p)
    p.add_argument("--b", required=True, help="leader-0 vertices, comma-separated")
    p.add_argument("--d", required=True, help="leader-1 vertices, comma-separated")
    p.add_argument("--y0", default="-1", help="leader-0 state (exact rational, default -1)")
    p.add_argument("--y1", default="1", help="leader-1 state (exact rational, default 1)")
    p.add_argument("--dt", type=float, default=None, help="step size (default: auto)")
    p.add_argument("--t-end", type=float, default=100.0, dest="t_end")
    p.add_argument("--tol", type=float, default=1e-9, help="convergence tolerance")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the invariant suites on a graph")
    _add_graph_flag(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "reconstruct-example2",
        help="brute-force the hub benchmark graph from its published matrix",
    )
    p.add_argument("--tol", type=float, default=BENCHMARK_TOL, help="per-entry match tolerance")
    p.set_defaults(func=_cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
