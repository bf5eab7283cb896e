"""Floating-point validation path: fixed-step RK4 for the follower flow.

The exact machinery lives in ``containment``; this module independently
confirms its predictions by integrating x' = A x + c, with
A = -(L + diag(b+d)) and c = b y0 + d y1, by classical fourth-order
Runge-Kutta. On this linear flow one RK4 step is exactly the affine map
x <- P x + q with h = dt A, P = I + h + h^2/2 + h^3/6 + h^4/24 and
q = dt (I + h/2 + h^2/6 + h^3/24) c, so P and q are built once per run and
each step is one matrix-vector product. P is the degree-4 RK4 polynomial,
not exp(dt A): the stepping rule, and so the check, stays RK4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .containment import LeaderLinks, LeaderStates, steady_state
from .graphs import Graph, is_connected, laplacian

DEFAULT_DT_CEILING = 0.01
DEFAULT_T_END = 100.0
DEFAULT_CONVERGENCE_TOL = 1e-9
# Work budget: recorded samples times (n + 3) CSV columns, about 160 MB of
# float64, so a run that never converges cannot store an unbounded trajectory.
MAX_RECORDED_VALUES = 2 * 10**7


@dataclass(frozen=True)
class SimConfig:
    """Integration settings; dt None means min(0.01, stability limit)."""

    dt: float | None = None
    t_end: float = DEFAULT_T_END
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL
    record_stride: int = 1

    def __post_init__(self):
        for name in ("dt", "t_end", "convergence_tol"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples: times strictly increasing, states row-per-time."""

    times: np.ndarray
    states: np.ndarray
    converged: bool

    @property
    def terminal_state(self) -> np.ndarray:
        return self.states[-1]


class Property5Residual(NamedTuple):
    analytic: Fraction
    simulated: float


def _max_degree(g: Graph) -> int:
    return max((g.degree(i) for i in range(1, g.n + 1)), default=0)


def stability_limit(g: Graph, links: LeaderLinks) -> float:
    """Largest admitted RK4 step: 1 / (2 * (max degree + 2)).

    Gershgorin bounds the spectrum of L + diag(b+d) by 2 * max_degree + 2
    regardless of the particular 0/1 attachment pattern, which keeps the
    step well inside the RK4 stability interval for any admissible links.
    """
    return 1.0 / (2.0 * (_max_degree(g) + 2))


def _flow_matrix(g: Graph, links: LeaderLinks) -> np.ndarray:
    """M = L + diag(b+d) as floats; the flow is x' = -M x + b y0 + d y1."""
    m = np.array(laplacian(g), dtype=float)
    m[np.diag_indices(g.n)] += np.add(links.b, links.d)
    return m


def decay_rate(g: Graph, links: LeaderLinks) -> float:
    """Slowest decay rate of the flow: the smallest eigenvalue of L + diag(b+d).

    The distance to the steady state shrinks no faster than exp(-rate t), so a
    small rate explains a run that stops at t_end unconverged.
    """
    return float(np.linalg.eigvalsh(_flow_matrix(g, links))[0])


def simulate(
    g: Graph,
    links: LeaderLinks,
    x0: Sequence,
    ys: LeaderStates,
    cfg: SimConfig = SimConfig(),
) -> Trajectory:
    """Integrate the follower flow until convergence or the horizon.

    Convergence means the max-norm state increment per unit time drops below
    cfg.convergence_tol; otherwise the run stops at t_end and the trajectory
    is flagged as not converged.
    """
    if not is_connected(g):
        raise ValueError("graph not connected")
    if len(links.b) != g.n:
        raise ValueError("link vectors do not match the vertex count")
    if not any(links.b) or not any(links.d):
        raise ValueError("both leaders must attach to at least one follower")
    if len(x0) != g.n:
        raise ValueError("initial state length does not match the vertex count")

    limit = stability_limit(g, links)
    dt = min(DEFAULT_DT_CEILING, limit) if cfg.dt is None else cfg.dt
    if dt > limit:
        raise ValueError(
            f"step size {dt} exceeds the stability limit {limit:.6g} for this system"
        )

    try:
        y0, y1 = float(ys.y0), float(ys.y1)
    except OverflowError:
        raise ValueError("leader states must be within the floating-point range") from None

    x = np.array([float(v) for v in x0], dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    # The states stay near the hull [lo, hi] of x0, y0 and y1, and the floats
    # the run computes must stay finite: the entries of A x reach
    # (2 * max degree + 2) * max|v|, and a CSV distance sum n * (hi - lo).
    lo, hi = min(y0, y1, float(x.min())), max(y0, y1, float(x.max()))
    stage = (2 * _max_degree(g) + 2) * max(-lo, hi)
    if not (math.isfinite(stage) and math.isfinite(g.n * (hi - lo))):
        raise ValueError(
            "the integration would produce non-finite values; the leader and "
            "initial states are too large in magnitude for floating point"
        )

    h = -dt * _flow_matrix(g, links)
    const = np.array(links.b, dtype=float) * y0 + np.array(links.d, dtype=float) * y1
    eye = np.eye(g.n)
    # Horner form: R = I + h/2 + h^2/6 + h^3/24, P = I + h R, q = dt R c.
    r = eye + (h / 2) @ (eye + (h / 3) @ (eye + h / 4))
    p = eye + h @ r
    q = dt * (r @ const)

    max_samples = MAX_RECORDED_VALUES // (g.n + 3)
    times = [0.0]
    states = [x]
    steps = max(1, math.ceil(cfg.t_end / dt))
    converged = False
    # Overflow is reported by the finite check below, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            x_new = p @ x + q
            # x is finite, so a non-finite x_new gives a non-finite rate.
            rate = float(np.abs(x_new - x).max()) / dt
            if not math.isfinite(rate):
                raise ValueError(
                    "state became non-finite during integration; the leader states "
                    "are too large in magnitude for floating point"
                )
            x = x_new
            done = rate < cfg.convergence_tol
            if done or step == steps or step % cfg.record_stride == 0:
                times.append(step * dt)
                states.append(x)
                if len(states) > max_samples:
                    raise ValueError(
                        f"trajectory exceeds {MAX_RECORDED_VALUES} recorded values "
                        "(samples x (n + 3)); shorten t_end or loosen the tolerance"
                    )
            if done:
                converged = True
                break
    return Trajectory(
        times=np.array(times), states=np.vstack(states), converged=converged
    )


def average_distances(traj: Trajectory, ys: LeaderStates) -> tuple:
    """Mean absolute distances of the followers to each leader per sample."""
    y0 = float(ys.y0)
    y1 = float(ys.y1)
    d0 = np.mean(np.abs(traj.states - y0), axis=1)
    d1 = np.mean(np.abs(traj.states - y1), axis=1)
    return d0, d1


def check_property5(
    g: Graph,
    i: int,
    j: int,
    ys: LeaderStates,
    cfg: SimConfig = SimConfig(),
) -> Property5Residual:
    """Distance symmetry of single-link pairs: the limit of x_i - y0 equals
    the limit of y1 - x_j. The analytic residual is exact (and must be zero);
    the simulated residual comes from an RK4 terminal state.
    """
    links = LeaderLinks.from_vertices(g.n, [i], [j])
    exact = steady_state(g, links, ys)
    analytic = abs((exact[i - 1] - ys.y0) - (ys.y1 - exact[j - 1]))
    traj = simulate(g, links, [0.0] * g.n, ys, cfg)
    xt = traj.terminal_state
    simulated = abs((xt[i - 1] - float(ys.y0)) - (float(ys.y1) - xt[j - 1]))
    return Property5Residual(analytic=analytic, simulated=float(simulated))


def trajectory_csv(traj: Trajectory, ys: LeaderStates) -> str:
    """CSV export: header t,x1,...,xn,d0,d1 and one row per sample, every
    value printed with 12 significant digits."""
    n = traj.states.shape[1]
    d0, d1 = average_distances(traj, ys)
    header = "t," + ",".join(f"x{i}" for i in range(1, n + 1)) + ",d0,d1"
    # For finite floats "%.12g" prints the same bytes as format(v, ".12g").
    fmt = ",".join(["%.12g"] * (n + 3))
    lines = [header]
    for t, x, dist0, dist1 in zip(traj.times.tolist(), traj.states, d0.tolist(), d1.tolist()):
        lines.append(fmt % (t, *x.tolist(), dist0, dist1))
    return "\n".join(lines) + "\n"


def terminal_residual(traj: Trajectory, g: Graph, links: LeaderLinks, ys: LeaderStates) -> float:
    """Max entrywise gap between the simulated terminal state and the exact
    steady state; the simulator's primary figure of merit."""
    exact = steady_state(g, links, ys)
    xt = traj.terminal_state
    return float(max(abs(xt[idx] - float(v)) for idx, v in enumerate(exact)))
