import math
import random

import numpy as np
import pytest

from helpers import closed_form_state, connected_corpus, random_links, rk4_oracle
from leadergame.containment import LeaderLinks, LeaderStates, steady_state
from leadergame.graphs import generate, random_connected_graph
from leadergame.simulate import (
    SimConfig,
    Trajectory,
    average_distances,
    check_property5,
    simulate,
    stability_limit,
    terminal_residual,
    trajectory_csv,
)

P3 = generate("path", 3)
K2 = generate("complete", 2)
C6 = generate("cycle", 6)

YS01 = LeaderStates(0, 1)
YSPM = LeaderStates(-1, 1)


def links_of(g, b, d):
    return LeaderLinks.from_vertices(g.n, b, d)


class TestSimulate:
    def test_shared_link_reaches_midpoint(self):
        traj = simulate(P3, links_of(P3, [2], [2]), [0.7, -0.3, 0.2], YSPM)
        assert traj.converged
        assert np.max(np.abs(traj.terminal_state)) < 1e-6

    def test_edge_reaches_thirds(self):
        links = links_of(K2, [1], [2])
        traj = simulate(K2, links, [5.0, -2.0], YS01)
        assert abs(traj.terminal_state[0] - 1 / 3) < 1e-6
        assert abs(traj.terminal_state[1] - 2 / 3) < 1e-6

    def test_equilibrium_start_stays_put(self):
        links = links_of(P3, [1], [3])
        exact = steady_state(P3, links, YS01)
        x0 = [float(v) for v in exact]
        traj = simulate(P3, links, x0, YS01, SimConfig(t_end=1.0))
        drift = np.max(np.abs(traj.states - np.array(x0)))
        steps = len(traj.times)
        assert drift <= 1e-10 * max(steps, 1)

    def test_unstable_step_rejected(self):
        links = links_of(P3, [2], [2])
        limit = stability_limit(P3, links)
        with pytest.raises(ValueError, match="stability"):
            simulate(P3, links, [0.0] * 3, YS01, SimConfig(dt=limit * 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="initial state"):
            simulate(P3, links_of(P3, [1], [2]), [0.0, 0.0], YS01)

    def test_empty_links_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            simulate(P3, LeaderLinks(b=(0, 0, 0), d=(0, 1, 0)), [0.0] * 3, YS01)

    def test_times_strictly_increase(self):
        traj = simulate(C6, links_of(C6, [1], [4]), [0.0] * 6, YSPM)
        assert np.all(np.diff(traj.times) > 0)
        assert np.all(np.isfinite(traj.states))

    def test_terminal_matches_exact_on_corpus(self):
        rng = random.Random(401)
        for g in connected_corpus(seed=403, count=8, n_min=2, n_max=10):
            links = random_links(rng, g.n)
            cfg = SimConfig(dt=stability_limit(g, links), t_end=400.0)
            traj = simulate(g, links, [0.0] * g.n, YSPM, cfg)
            assert terminal_residual(traj, g, links, YSPM) < 1e-6

    def test_terminal_inside_the_hull(self):
        rng = random.Random(409)
        for g in connected_corpus(seed=419, count=6, n_min=2, n_max=8):
            links = random_links(rng, g.n)
            cfg = SimConfig(dt=stability_limit(g, links), t_end=400.0)
            traj = simulate(g, links, [0.0] * g.n, YSPM, cfg)
            x = traj.terminal_state
            assert np.all(x > float(YSPM.y0) - 1e-9)
            assert np.all(x < float(YSPM.y1) + 1e-9)

    def test_halving_dt_barely_moves_the_terminal(self):
        links = links_of(C6, [2], [5])
        base = SimConfig(dt=0.01, t_end=60.0)
        half = SimConfig(dt=0.005, t_end=60.0)
        a = simulate(C6, links, [0.0] * 6, YSPM, base).terminal_state
        b = simulate(C6, links, [0.0] * 6, YSPM, half).terminal_state
        assert np.max(np.abs(a - b)) < 1e-9

    def test_record_stride_thins_samples(self):
        links = links_of(P3, [1], [3])
        dense = simulate(P3, links, [0.0] * 3, YS01, SimConfig(t_end=2.0, record_stride=1))
        thin = simulate(P3, links, [0.0] * 3, YS01, SimConfig(t_end=2.0, record_stride=10))
        assert len(thin.times) < len(dense.times)


class TestPropagator:
    """The precomputed map x <- P x + q against a four-stage RK4 loop."""

    def test_matches_four_stage_oracle(self):
        rng = random.Random(431)
        outcomes = set()
        for t_end in (400.0, 3.0):
            for g in connected_corpus(seed=433, count=10, n_min=2, n_max=10):
                links = random_links(rng, g.n)
                x0 = [rng.uniform(-2.0, 2.0) for _ in range(g.n)]
                ys = LeaderStates(rng.randint(-3, 0), rng.randint(1, 3))
                dt = stability_limit(g, links)
                traj = simulate(g, links, x0, ys, SimConfig(dt=dt, t_end=t_end))
                states, converged = rk4_oracle(g, links, x0, ys, dt, t_end, 1e-9)
                assert traj.converged == converged
                assert traj.states.shape == states.shape
                np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    traj.times, dt * np.arange(len(states)), rtol=1e-15, atol=0
                )
                outcomes.add(converged)
        assert outcomes == {True, False}

    def test_unconverged_terminal_matches_closed_form(self):
        g = random_connected_graph(random.Random(439), 10, extra_edge_prob=0.3)
        links = links_of(g, [1], [10])
        x0 = [0.5 * (-1) ** i for i in range(g.n)]
        traj = simulate(g, links, x0, YSPM, SimConfig(t_end=5.0))
        assert not traj.converged
        expected = closed_form_state(g, links, x0, YSPM, traj.times[-1])
        assert np.max(np.abs(traj.terminal_state - expected)) < 1e-6


class TestConfig:
    def test_bad_values(self):
        for kwargs in (
            {"dt": -0.1},
            {"dt": math.nan},
            {"dt": math.inf},
            {"t_end": 0},
            {"t_end": math.nan},
            {"t_end": math.inf},
            {"convergence_tol": 0},
            {"convergence_tol": math.nan},
            {"convergence_tol": math.inf},
            {"record_stride": 0},
        ):
            with pytest.raises(ValueError):
                SimConfig(**kwargs)

    def test_stability_limit_value(self):
        # max degree 2 on the path of three vertices
        assert math.isclose(stability_limit(P3, links_of(P3, [1], [2])), 1 / 8)


class TestDistances:
    def test_limits_sum_to_span(self):
        traj = simulate(C6, links_of(C6, [1], [3]), [0.0] * 6, YSPM)
        d0, d1 = average_distances(traj, YSPM)
        assert abs((d0[-1] + d1[-1]) - 2.0) < 1e-6

    def test_cycle_distances_reach_one(self):
        for b, d in ([1], [2]), ([1], [3]), ([1], [1]):
            traj = simulate(C6, links_of(C6, b, d), [0.0] * 6, YSPM)
            d0, d1 = average_distances(traj, YSPM)
            assert abs(d0[-1] - 1.0) < 1e-4
            assert abs(d1[-1] - 1.0) < 1e-4

    def test_all_followers_at_low_leader(self):
        links = links_of(P3, [1], [3])
        traj = simulate(P3, links, [float(YSPM.y0)] * 3, YSPM, SimConfig(t_end=0.5))
        d0, d1 = average_distances(traj, YSPM)
        assert d0[0] == 0.0
        assert d1[0] == 2.0


class TestPropertyFive:
    def test_path_analytic_zero(self):
        res = check_property5(P3, 2, 1, YS01)
        assert res.analytic == 0
        assert res.simulated < 1e-6

    def test_same_vertex_both_sides_midpoint(self):
        res = check_property5(C6, 3, 3, YSPM)
        assert res.analytic == 0
        assert res.simulated < 1e-6

    def test_cycle_opposite_pair(self):
        res = check_property5(C6, 1, 4, YSPM)
        assert res.analytic == 0
        assert res.simulated < 1e-6


class TestCsv:
    def test_header_and_shape(self):
        links = links_of(K2, [1], [2])
        traj = simulate(K2, links, [0.0, 0.0], YS01, SimConfig(t_end=1.0))
        text = trajectory_csv(traj, YS01)
        lines = text.strip().splitlines()
        assert lines[0] == "t,x1,x2,d0,d1"
        assert len(lines) == len(traj.times) + 1
        assert all(len(ln.split(",")) == 5 for ln in lines[1:])

    def test_twelve_significant_digits(self):
        links = links_of(K2, [1], [2])
        traj = simulate(K2, links, [1 / 3, 2 / 7], YS01, SimConfig(t_end=0.1))
        first_row = trajectory_csv(traj, YS01).splitlines()[1].split(",")
        assert first_row[1] == f"{1 / 3:.12g}"

    def test_matches_fstring_formatter(self):
        def reference(traj, ys):
            d0, d1 = average_distances(traj, ys)
            n = traj.states.shape[1]
            lines = ["t," + ",".join(f"x{i}" for i in range(1, n + 1)) + ",d0,d1"]
            for idx, t in enumerate(traj.times):
                row = [t, *traj.states[idx], d0[idx], d1[idx]]
                lines.append(",".join(f"{v:.12g}" for v in row))
            return "\n".join(lines) + "\n"

        edge_values = Trajectory(
            times=np.array([0.0, 1e-300, 0.125]),
            states=np.array(
                [[0.0, -0.0, -1e-300], [1e-300, -2.5, 1 / 3], [-1 / 7, 1e12 + 0.5, -123456.789]]
            ),
            converged=False,
        )
        assert trajectory_csv(edge_values, YSPM) == reference(edge_values, YSPM)
        rng = random.Random(443)
        for g in connected_corpus(seed=449, count=4, n_min=2, n_max=8):
            links = random_links(rng, g.n)
            x0 = [rng.uniform(-5.0, 5.0) for _ in range(g.n)]
            traj = simulate(g, links, x0, YSPM, SimConfig(t_end=2.0))
            assert trajectory_csv(traj, YSPM) == reference(traj, YSPM)

    def test_deterministic(self):
        links = links_of(P3, [2], [3])
        a = trajectory_csv(simulate(P3, links, [0.0] * 3, YS01), YS01)
        b = trajectory_csv(simulate(P3, links, [0.0] * 3, YS01), YS01)
        assert a == b
