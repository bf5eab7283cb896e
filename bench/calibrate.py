"""Machine-speed probe for a shared, noisy host.

On a host shared with other tenants the same job can take 20-30 % longer for
seconds at a time, and a 20 s run is not long enough to average that out.
The benchmark therefore runs this fixed probe before the first job and after
every job, outside the job timer, and scales each job's time by NOMINAL_S
over the median of the probes around it (set-up time: over the median of
all the run's probes). Reported times are then seconds at the nominal
machine speed; the raw figures go to stderr.

The probe is frozen benchmark code, independent of the library, so a change
to the library cannot move it. It mixes the kinds of work the jobs do:
fraction-free integer elimination with Fraction back-substitution, small
numpy matrix-vector products, and float-to-text formatting.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

# Median probe time on the machine the baseline was measured on
# (2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
NOMINAL_S = 0.010

_rng = random.Random(20141026)
_N = 9
_M = [[_rng.randint(-6, 6) + (12 if i == j else 0) for j in range(_N)] for i in range(_N)]
_B = [_rng.randint(-5, 5) for _ in range(_N)]
_A = np.array(_M, dtype=float) / 24.0
_X = np.linspace(-1.0, 1.0, _N)


def _exact() -> Fraction:
    n = _N
    aug = [row[:] + [_B[i]] for i, row in enumerate(_M)]
    prev = 1
    for k in range(n - 1):
        pivot, top = aug[k][k], aug[k]
        for i in range(k + 1, n):
            row, lead = aug[i], aug[i][k]
            for j in range(k + 1, n + 1):
                row[j] = (pivot * row[j] - lead * top[j]) // prev
            row[k] = 0
        prev = pivot
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        x[i] = acc / aug[i][i]
    return sum(x, start=Fraction(0))


def _floats() -> int:
    x = _X.copy()
    size = 0
    for _ in range(150):
        x = x - 0.01 * (_A @ x)
        size += len(",".join(f"{v:.12g}" for v in x))
    return size


def probe() -> float:
    """Seconds taken by one fixed unit of mixed work."""
    t0 = time.perf_counter()
    for _ in range(20):
        _exact()
    _floats()
    return time.perf_counter() - t0
