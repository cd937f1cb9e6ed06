"""Host speed, measured by timing a fixed kernel next to every pass.

On a shared host the speed of a vCPU swings by about 1.5x, in phases that
last from seconds to minutes, so a pass time taken alone mostly measures
the phase the run happened to land in.  The benchmark therefore times this
kernel just before and just after each command of a pass and reports the
command's time rescaled to the reference speed,

    t_ref = t * REF_UNIT_S / u,

where `u` is the geometric mean of the kernel's time per call in the two
windows; a pass's `wall_ref_s` is the sum over its commands.  Set-up
samples are rescaled the same way.  The kernel uses only numpy, scipy and
plain Python, in the kinds of work blowlab's hot paths do (banded solves,
cumulative integrals and elementwise maps on grid-sized arrays, scalar
Python arithmetic), and none of blowlab's code, so a change to blowlab
cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg import solve_banded

# Time per kernel call on the host the figures in README.md come from
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17) in its fast
# phase.  It only sets the scale: `wall_ref_s` is the pass time on that
# host at that speed.
REF_UNIT_S = 2.2e-3
WINDOW_S = 0.15

_N = 2048
_R = np.linspace(0.0, 40.0, _N)
_DR = _R[1] - _R[0]
_BANDED = np.empty((3, _N))
_BANDED[0] = -1.0
_BANDED[1] = 4.0 + 0.01 * _R
_BANDED[2] = -1.0
_X = np.random.default_rng(0).standard_normal(_N)


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    y = _X
    for _ in range(16):
        y = solve_banded((1, 1), _BANDED, y)
        y = np.tanh(y) + 0.5 * np.sqrt(np.abs(y)) * np.exp(-0.01 * _R)
        c = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * _DR)))
        y = y - c / (1.0 + _R)
    s = 0.0
    for i in range(3000):
        s += math.sin(1e-3 * i) * s * 1e-6 + 1e-3 * i
    return float(y[-1]) + s


def unit_seconds() -> float:
    """Mean wall time of one kernel call over about WINDOW_S seconds."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= WINDOW_S:
            return elapsed / calls
