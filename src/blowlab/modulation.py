"""Reduced modulation dynamics for the scale and drift parameters.

The closed system

    db/ds      = -b^2 (1 + 2/|log b|)
    dlam/ds    = -b lam
    dt/ds      = lam^2

encodes the leading-order evolution extracted from the profile construction:
the 2/|log b| correction is the radiation flux.  In L = |log b| it integrates
exactly.  With L0 = |log b0|, d = L - L0, S(x) = x^4 + 10x^3 + 42x^2 + 92x + 92
and C = lam0^2 / (b0 (L0+2)^4):

    s     = e^L - e^L0 - 2 e^-2 (Ei(L+2) - Ei(L0+2))
    b     = b0 e^-d
    lam   = lam0 e^-d ((L+2)/(L0+2))^2
    T - t = C e^-d S(L),   T = C S(L0)

so lam/(T-t) is proportional to (L+2)^2/S(L) ~ 1/L^2 while |log(T-t)| ~ L:
the blow-up speed lam(t) ~ (T-t)/|log(T-t)|^2 read off directly.  Each
sample inverts s(d) by Newton.  Two differences cancel where d is small:
Ei(L+2) - Ei(L0+2), so s integrates its first unit of d by quadrature, and
T - (T-t), so t is formed from the increment S(L) - S(L0) expanded in d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expi

from .profiles import log_binv

S_MAX = 1e280  # largest s_end: b ~ 1/s, and lam, T - t for lambda0 ~ 1, stay normal doubles
FIT_DECADES = 1.0  # fit_blowup_law's window: the final decades of lam decay
FIT_MIN_DECAY = 100.0  # fit_blowup_law's trajectory decays lam at least this much
HEAD = 1.0  # s(d) by quadrature for d <= HEAD, where the Ei difference cancels
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
S_POLY = np.polynomial.Polynomial([92.0, 92.0, 42.0, 10.0, 1.0])


@dataclass(frozen=True)
class ReducedTrajectory:
    s: np.ndarray
    b: np.ndarray
    lam: np.ndarray
    t: np.ndarray
    tau: np.ndarray  # T_est - t = C e^-d S(L), formed directly so deep values keep precision
    T_est: float


@np.errstate(over="ignore", invalid="ignore")  # an overflowed C or T fails the guard
def integrate_reduced(b0: float, lambda0: float, s_end: float,
                      n_samples: int = 600) -> ReducedTrajectory:
    """Evaluate the exact solution of the reduced system on log-spaced s."""
    if not (0.0 < b0 < 1.0):
        raise ValueError("need 0 < b0 < 1")
    if not (0.0 < lambda0 < np.inf and 0.0 < s_end <= S_MAX):
        raise ValueError(f"need finite lambda0 > 0 and 0 < s_end <= {S_MAX:g}")
    # the log-spaced part starts at max(1e-8, 1e-8 s_end), or 8 decades
    # below s_end once s_end <= 1e-8, so that it starts below s_end
    lo = max(s_end * 1e-8, 1e-8) if s_end > 1e-8 else s_end * 1e-8
    s = np.unique(np.concatenate([
        [0.0], np.logspace(np.log10(lo), np.log10(s_end), n_samples - 1)
    ]))
    s = np.clip(s, 0.0, s_end)
    L0 = log_binv(b0)
    d = _d_of_s(s, L0)
    L = L0 + d
    decay = np.exp(-d)
    C = np.float64(lambda0) ** 2 / (b0 * (L0 + 2.0) ** 4)
    S0 = S_POLY(L0)
    increment = S_POLY(np.polynomial.Polynomial([L0, 1.0])) - S0  # S(L0 + d) - S0 in powers of d
    b = b0 * decay
    lam = lambda0 * decay * ((L + 2.0) / (L0 + 2.0)) ** 2
    t = C * (-np.expm1(-d) * S0 - decay * increment(d))
    tau = C * decay * S_POLY(L)
    T_est = C * S0
    if not all(np.finfo(float).tiny <= v < np.inf for v in (b[-1], lam[-1], tau[-1], T_est)):
        raise ValueError(f"b, lambda or T - t at s_end={s_end:g} is not a positive normal double")
    return ReducedTrajectory(s=s, b=b, lam=lam, t=t, tau=tau, T_est=float(T_est))


def _s_of_d(d, L0):
    """s(d) = int_0^d e^(L0+x) (L0+x)/(L0+x+2) dx, the time in s to reach L0 + d."""
    s = np.empty_like(d)
    head = d <= HEAD
    u = L0 + 0.5 * d[head, None] * (1.0 + GL_NODES)
    s[head] = 0.5 * d[head] * ((np.exp(u) * u / (u + 2.0)) @ GL_WEIGHTS)
    L = L0 + d[~head]
    s[~head] = (np.exp(L0) * np.expm1(d[~head])
                - 2.0 * np.exp(-2.0) * (expi(L + 2.0) - expi(L0 + 2.0)))
    return s


def _d_of_s(s, L0):
    """Invert s(d) by Newton.  s(d) is increasing and convex, and the start
    log1p(s b0 (L0+2)/L0) lies above the root, so the iterates fall to it."""
    d = np.log1p(s * math.exp(-L0) * (L0 + 2.0) / L0)
    for _ in range(100):
        L = L0 + d
        step = (_s_of_d(d, L0) - s) / (np.exp(L) * L / (L + 2.0))
        d = d - step
        if np.all(np.abs(step) <= 1e-8 * np.minimum(d, 1.0)):
            return d
    raise RuntimeError("Newton inversion of s(d) did not converge")


@dataclass(frozen=True)
class BlowupFit:
    kappa: float
    exponent: float
    residual: float
    T_est: float
    window: tuple


def fit_blowup_law(traj: ReducedTrajectory) -> BlowupFit:
    """Fit lam(t) against (T-t)/|log(T-t)|^2 over the final lam-decade.

    Returns the regression slope (expected 1), the prefactor, and the RMS
    residual of log lam in the fit window.
    """
    lam, t, tau = traj.lam, traj.t, traj.tau
    span = lam[0] / lam[-1]
    if span < FIT_MIN_DECAY:
        raise ValueError(f"trajectory decays lam {span:.3g}-fold, below {FIT_MIN_DECAY:g}")
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
        window=(float(t[mask][0]), float(t[mask][-1])),
    )
