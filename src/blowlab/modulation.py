"""Reduced modulation dynamics for the scale and drift parameters.

The closed system

    db/ds      = -b^2 (1 + 2/|log b|)
    dlam/ds    = -b lam
    dt/ds      = lam^2

encodes the leading-order evolution extracted from the profile construction:
the 2/|log b| correction is the radiation flux, and reintegrating it produces
the blow-up speed lam(t) ~ (T-t)/|log(T-t)|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .profiles import log_binv

RTOL = 1e-10  # relative tolerance of every RK45 integration of the system
FIT_DECADES = 1.0  # fit_blowup_law's window: the final decades of lam decay


@dataclass(frozen=True)
class ReducedTrajectory:
    s: np.ndarray
    b: np.ndarray
    lam: np.ndarray
    t: np.ndarray
    tau: np.ndarray  # T_est - t, accumulated backward so deep values keep precision
    T_est: float
    T_est_alt: float


def _rhs(_s, state):
    b, lam, _t = state
    db = -b * b * (1.0 + 2.0 / log_binv(b))
    return (db, -b * lam, lam * lam)


def integrate_reduced(b0: float, lambda0: float, s_end: float,
                      n_samples: int = 600) -> ReducedTrajectory:
    """Integrate the reduced system with an adaptive embedded RK pair."""
    if not (0.0 < b0 < 1.0):
        raise ValueError("need 0 < b0 < 1")
    if lambda0 <= 0 or s_end <= 0:
        raise ValueError("need lambda0 > 0 and s_end > 0")

    def b_vanishes(_s, state):
        return state[0] - 1e-280

    def lam_underflow(_s, state):
        return state[1] - 1e-280

    b_vanishes.terminal = True
    lam_underflow.terminal = True

    s_eval = np.unique(np.concatenate([
        [0.0], np.logspace(np.log10(max(s_end * 1e-8, 1e-8)), np.log10(s_end), n_samples - 1)
    ]))
    s_eval = np.clip(s_eval, 0.0, s_end)
    # b and lambda span many orders of magnitude: control them relatively
    atol = [1e-300, 1e-300, 1e-16 * lambda0**2 * min(s_end, 1.0 / b0**2)]
    sol = solve_ivp(
        _rhs, (0.0, s_end), (b0, lambda0, 0.0), method="RK45",
        rtol=RTOL, atol=atol,
        dense_output=False, t_eval=s_eval,
        events=[b_vanishes, lam_underflow], max_step=np.inf,
    )
    if not sol.success:
        raise RuntimeError(f"reduced integration failed: {sol.message}")
    if sol.t_events[0].size or sol.t_events[1].size:
        raise RuntimeError("b or lambda underflowed before s_end")
    s, (b, lam, t) = sol.t, sol.y
    tau_end, T_alt = _estimate_blowup_time(s, b, lam)
    tau = _stable_tau(s, lam, t, tau_end)
    T_est = t[-1] + tau_end
    return ReducedTrajectory(s=s, b=b, lam=lam, t=t, tau=tau,
                             T_est=T_est, T_est_alt=float(t[-1] + T_alt))


def _stable_tau(s, lam, t, tau_end):
    """T - t at every sample without forming T - t directly.

    Absolute t saturates at T once T - t drops below one ulp of T, so deep
    increments are recovered from quadrature of lam^2 on the samples and
    accumulated backward from the far end where tau is known.
    """
    dt = np.diff(t)
    safe = dt > 1e-8 * np.maximum(t[1:], 1e-300)
    if not np.all(safe) and len(s) > 3:
        pos = s > 0
        spl = CubicSpline(np.log(s[pos]), 2.0 * np.log(lam[pos]))
        nodes, wts = np.polynomial.legendre.leggauss(8)
        ls = np.log(s[pos])
        a, bnd = ls[:-1], ls[1:]
        half = 0.5 * (bnd - a)
        mid = 0.5 * (bnd + a)
        u = mid[:, None] + half[:, None] * nodes[None, :]
        seg = half * np.einsum("ij,j->i", np.exp(spl(u) + u), wts)
        dt_fix = np.empty_like(dt)
        n_head = len(s) - pos.sum()  # segments touching s = 0 keep the raw diff
        dt_fix[:n_head] = dt[:n_head]
        dt_fix[n_head:] = seg
        dt = np.where(safe, dt, dt_fix)
    tau = np.empty_like(t)
    tau[-1] = tau_end
    tau[:-1] = tau_end + np.cumsum(dt[::-1])[::-1]
    return tau


def _tail_integral(s_end, lam_end):
    """Model tail int_s^inf lam^2 ds for lam ~ C (log s)^2 / s."""
    L = np.log(s_end)
    return lam_end**2 * s_end * sum(
        math.comb(4, k) * math.factorial(k) / L**k for k in range(5)
    )


def _estimate_blowup_time(s, b, lam):
    """Remaining time T - t(s_end), extrapolated two ways.

    The sharp estimate extends the integration far past s_end (adaptive
    steps grow with s, so this is cheap), accumulating the increment from
    zero to dodge absolute-t cancellation, and closes with the model tail
    once it is negligible.  The alternative applies the tail model at s_end
    directly; the discrepancy measures how converged the law is.
    """
    tail_alt = _tail_integral(s[-1], lam[-1])
    state = (b[-1], lam[-1], 0.0)
    s_now = s[-1]
    window = lam[-1] ** 2 * s[-1]
    for _ in range(60):
        s_far = 1e4 * s_now
        sol = solve_ivp(
            _rhs, (s_now, s_far), state, method="RK45",
            rtol=RTOL,
            atol=[1e-300, 1e-300, 1e-18 * window],
        )
        if not sol.success:
            return float(tail_alt), float(tail_alt)
        state = tuple(sol.y[:, -1])
        s_now = sol.t[-1]
        if _tail_integral(s_now, state[1]) < 1e-6 * window or s_now > 1e250:
            break
    tau_end = state[2] + _tail_integral(s_now, state[1])
    return float(tau_end), float(tail_alt)


def b_of_s_asymptotic(s: float) -> float:
    """Two-term reference law b(s) = 1/s - 2/(s log s)."""
    s = float(s)
    if s <= np.e**2:
        raise ValueError("asymptotic law needs s > e^2")
    return 1.0 / s - 2.0 / (s * np.log(s))


@dataclass(frozen=True)
class BlowupFit:
    kappa: float
    exponent: float
    residual: float
    T_est: float
    T_est_alt: float
    window: tuple


def fit_blowup_law(traj: ReducedTrajectory) -> BlowupFit:
    """Fit lam(t) against (T-t)/|log(T-t)|^2 over the final lam-decade.

    Returns the regression slope (expected 1), the prefactor, and the RMS
    residual of log lam in the fit window.
    """
    lam, t, tau = traj.lam, traj.t, traj.tau
    span = lam[0] / lam[-1]
    if span < 100.0:
        raise ValueError("trajectory spans fewer than 2 decades of lam decay")
    mask = (lam <= lam[-1] * 10.0**FIT_DECADES) & (tau > 0)
    x = np.log(tau[mask]) - 2.0 * np.log(np.abs(np.log(tau[mask])))
    z = np.log(lam[mask])
    slope, intercept = np.polyfit(x, z, 1)
    resid = float(np.sqrt(np.mean((z - (slope * x + intercept)) ** 2)))
    return BlowupFit(
        kappa=float(np.exp(intercept)),
        exponent=float(slope),
        residual=resid,
        T_est=traj.T_est,
        T_est_alt=traj.T_est_alt,
        window=(float(t[mask][0]), float(t[mask][-1])),
    )
