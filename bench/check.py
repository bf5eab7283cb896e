"""Output checks for benchmark jobs. They run outside the timer.

Exact commands are checked against the game's identities and against entries
recomputed one at a time with ``game.outcome_entry``, the independent route
kept beside any fast path. ``simulate`` is checked against the closed form
x(t) = x* + exp(-M t) (x0 - x*) of the linear follower flow.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np

from leadergame.game import Strategy, outcome_entry
from leadergame.graphs import build_graph

HALF = Fraction(1, 2)
ENTRY_SAMPLES = 3
SIM_TOL = 1e-6
VERIFY_SUITES = {
    "laplacian-structure", "connectivity-gate", "outcome-involution", "value-bounds",
    "security-set-symmetry", "nash-consistency", "half-comparison-agreement",
    "dominance-soundness", "adjugate-minor-identity", "se-set-security-match",
    "shortcut-agreement", "convex-weights", "simulation-limit", "distance-symmetry",
}
EXAMPLE2_RIM = [[3, 4], [4, 5], [5, 6]]


class CheckError(Exception):
    """A job's output is wrong; the message says how."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _fraction(text) -> Fraction:
    _require(isinstance(text, str), f"value {text!r} is not a fraction string")
    num, sep, den = text.partition("/")
    _require(sep == "/", f"value {text!r} is not num/den")
    x = Fraction(int(num), int(den))
    _require(f"{x.numerator}/{x.denominator}" == text, f"value {text!r} is not reduced")
    return x


class Checker:
    """Judges each job's (exit code, stdout, stderr).

    Keeps the k=1 ``nash`` answers so that the following ``se-set`` job on
    the same graph can be compared with them.
    """

    def __init__(self, seed: int, digests: dict | None = None):
        self.seed = seed
        self.digests = digests or {}
        self.nash = {}

    def failure(self, job, rc: int, out: str, err: str, digest: str) -> str | None:
        """None when the job's output is right, else what is wrong with it."""
        try:
            _require(rc == 0, f"exit status {rc}: {err.strip()[:200]}")
            want = self.digests.get(job.index)
            _require(want is None or digest == want, "stdout differs from the recorded digest")
            getattr(self, "_" + job.command.replace("-", "_"))(job, out, err)
        except (CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    # exact commands -----------------------------------------------------

    def _game(self, job):
        g = build_graph(job.n, job.edges)
        strategies = [
            Strategy(index=i, n=job.n, vertices=v)
            for i, v in enumerate(itertools.combinations(range(1, job.n + 1), job.k))
        ]
        return g, strategies

    def _outcome(self, job, out, err):
        data = json.loads(out)
        g, strategies = self._game(job)
        size = len(strategies)
        _require(data["n"] == job.n and data["k"] == job.k, "wrong n or k")
        _require(data["strategies"] == [list(s.vertices) for s in strategies], "wrong strategy list")
        rows = data["matrix"]
        _require(len(rows) == size and all(len(r) == size for r in rows), "matrix shape")
        u = [[_fraction(v) for v in row] for row in rows]
        for i in range(size):
            _require(u[i][i] == HALF, f"diagonal entry {i} is not 1/2")
            for j in range(i + 1, size):
                _require(u[i][j] + u[j][i] == 1, f"entries ({i},{j}) and ({j},{i}) do not sum to 1")
                _require(0 < u[i][j] < 1, f"entry ({i},{j}) outside (0,1)")
        rng = random.Random(self.seed * 100003 + job.index)
        for _ in range(ENTRY_SAMPLES):
            i, j = rng.randrange(size), rng.randrange(size)
            _require(u[i][j] == outcome_entry(g, strategies[i], strategies[j]),
                     f"entry ({i},{j}) differs from outcome_entry")

    def _values(self, job, data):
        g, strategies = self._game(job)
        upper, lower = _fraction(data["upper_value"]), _fraction(data["lower_value"])
        _require(lower == 1 - upper, "lower value is not 1 - upper value")
        _require(lower <= HALF <= upper, "values do not bracket 1/2")
        verts = [list(s.vertices) for s in strategies]
        sec = data["security_set"]
        _require(sec and all(v in verts for v in sec), "security set is not a set of strategies")
        _require(sec == sorted(sec, key=verts.index), "security set out of order")
        # The row of a security strategy peaks at exactly the upper value.
        first = strategies[verts.index(sec[0])]
        row = [outcome_entry(g, first, s) for s in strategies]
        _require(max(row) == upper, "security row maximum is not the upper value")
        return upper, lower, sec, verts

    def _security(self, job, out, err):
        self._values(job, json.loads(out))

    def _nash(self, job, out, err):
        data = json.loads(out)
        upper, lower, sec, verts = self._values(job, data)
        shortcut = job.k == 1 and job.family in ("cycle", "circulant")
        _require(data["shortcut_used"] is shortcut, "shortcut_used flag")
        if shortcut:
            _require(upper == HALF and sec == verts, "circulant graph must be all 1/2")
        if upper == lower:
            _require(_fraction(data["nash_value"]) == upper, "nash value")
            _require(data["nash_pairs"] == [[a, b] for a in sec for b in sec], "nash pairs")
        else:
            _require(data["nash_value"] is None and data["nash_pairs"] == [], "saddle points without a value")
        if job.k == 1:
            self.nash[job.index] = (upper, {v[0] for v in sec})

    def _se_set(self, job, out, err):
        data = json.loads(out)
        _require(data["n"] == job.n, "wrong n")
        _require(job.pair_of in self.nash, "the paired nash job did not pass")
        upper, security = self.nash.pop(job.pair_of)
        se = data["se_set"]
        if se:
            _require(set(se) == security and upper == HALF, "se-set differs from the security set")
        else:
            _require(upper > HALF, "empty se-set although a saddle point exists")

    def _verify(self, job, out, err):
        lines = out.splitlines()
        _require(all(ln.startswith("PASS ") for ln in lines), "verify printed a non-PASS line")
        _require({ln[5:] for ln in lines} == VERIFY_SUITES and len(lines) == len(VERIFY_SUITES),
                 "verify suites differ from the expected set")

    def _reconstruct_example2(self, job, out, err):
        data = json.loads(out)
        _require(data["candidates_searched"] == 1024, "candidate count")
        matches = data["matches"]
        _require(len(matches) == 1 and matches[0]["rim_edges"] == EXAMPLE2_RIM,
                 "reconstruction did not find the single rim 3-4, 4-5, 5-6 graph")
        _require(matches[0]["hub_pair_is_nash"] is True, "hub pair is not a saddle point")

    # simulator ----------------------------------------------------------

    def _simulate(self, job, out, err):
        sim, n = job.sim, job.n
        _require(out.endswith("\n"), "CSV does not end with a newline")
        head, _, rest = out.partition("\n")
        _require(head == "t," + ",".join(f"x{i}" for i in range(1, n + 1)) + ",d0,d1", "CSV header")
        body = rest[:-1].split("\n")
        last = [float(v) for v in body[-1].split(",")]
        _require(len(last) == n + 3, "terminal row width")
        dt, t_end = sim["dt"], sim["t_end"]
        steps = max(1, math.ceil(t_end / dt))
        taken = round(last[0] / dt)
        _require(abs(last[0] - taken * dt) <= 1e-9 * max(1.0, last[0]), "terminal time is not a step")
        _require(len(body) == taken + 1, f"{len(body)} CSV rows for {taken} steps")
        converged = "converged=True" in err
        _require(converged or "converged=False" in err, "summary line lacks converged=")
        _require(converged or taken == steps, "unconverged run stopped before t_end")
        x = np.array(last[1:n + 1])
        _require(np.max(np.abs(x - closed_form(job, last[0]))) <= SIM_TOL,
                 "terminal row differs from the closed form")


def closed_form(job, t: float) -> np.ndarray:
    """x(t) = x* + exp(-M t)(x0 - x*) with x0 = 0 and M = L + diag(b + d)."""
    n, sim = job.n, job.sim
    m = np.zeros((n, n))
    for u, v in job.edges:
        m[u - 1, v - 1] -= 1.0
        m[v - 1, u - 1] -= 1.0
        m[u - 1, u - 1] += 1.0
        m[v - 1, v - 1] += 1.0
    rhs = np.zeros(n)
    for v in sim["b"]:
        m[v - 1, v - 1] += 1.0
        rhs[v - 1] += sim["y0"]
    for v in sim["d"]:
        m[v - 1, v - 1] += 1.0
        rhs[v - 1] += sim["y1"]
    w, vecs = np.linalg.eigh(m)
    x_star = vecs @ ((vecs.T @ rhs) / w)
    return x_star + vecs @ (np.exp(-w * t) * (vecs.T @ (-x_star)))
