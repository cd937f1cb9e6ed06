"""Reduced modulation dynamics for the scale and drift parameters.

The closed system

    db/ds      = -b^2 (1 + 2/|log b|)
    dlam/ds    = -b lam
    dt/ds      = lam^2

encodes the leading-order evolution extracted from the profile construction:
the 2/|log b| correction is the radiation flux.  In L = |log b| it integrates
exactly.  With L0 = |log b0|, d = L - L0, S(x) = x^4 + 10x^3 + 42x^2 + 92x + 92
and C = lam0^2 / (b0 (L0+2)^4):

    s     = int_0^d e^(L0+x) (L0+x)/(L0+x+2) dx
    b     = b0 e^-d
    lam   = lam0 e^-d ((L+2)/(L0+2))^2
    t     = C int_0^d e^-x (L0+x) (L0+x+2)^3 dx
    T - t = C e^-d S(L),   T = C S(L0)

so lam/(T-t) is proportional to (L+2)^2/S(L) ~ 1/L^2 while |log(T-t)| ~ L:
the blow-up speed lam(t) ~ (T-t)/|log(T-t)|^2 read off directly.  Both
integrands are positive, so the two integrals are summed over unit panels
in d with no cancellation at any d or b0, and each sample inverts s(d) by
Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import log_binv

S_MAX = 1e280  # largest s_end: b ~ 1/s, and lam, T - t for lambda0 ~ 1, stay normal doubles
FIT_DECADES = 1.0  # fit_blowup_law's window: the final decades of lam decay
FIT_MIN_DECAY = 100.0  # fit_blowup_law's trajectory decays lam at least this much
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
S_POLY = np.polynomial.Polynomial([92.0, 92.0, 42.0, 10.0, 1.0])
TINY = np.finfo(float).tiny  # the smallest normal double


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
    b = b0 * decay
    lam = lambda0 * decay * ((L + 2.0) / (L0 + 2.0)) ** 2
    t = C * _panel_integral(d, L0, -1.0, _dt_integrand)
    tau = C * decay * S_POLY(L)
    T_est = C * S_POLY(L0)
    if not all(TINY <= v < np.inf for v in (b[-1], lam[-1], tau[-1], T_est)):
        raise ValueError(f"b, lambda or T - t at s_end={s_end:g} is not a positive normal double")
    return ReducedTrajectory(s=s, b=b, lam=lam, t=t, tau=tau, T_est=float(T_est))


def _panel_integral(d, L0, sign, f):
    """int_0^d e^(sign x) f(L0 + x) dx for each entry of d >= 0, by the
    20-node Gauss-Legendre rule on every whole unit panel [j, j+1] below d
    and on the partial panel [floor(d), d].  e^(sign x) is formed as
    e^(sign j) e^(sign tau), tau in [0, 1], so that exp never takes a large
    rounded argument."""
    m = np.floor(d)
    j = np.arange(m.max())
    tau = 0.5 * (1.0 + GL_NODES)
    panels = np.exp(sign * j) * ((np.exp(sign * tau) * f(L0 + j[:, None] + tau))
                                 @ (0.5 * GL_WEIGHTS))
    prefix = np.concatenate([[0.0], np.cumsum(panels)])
    r = d - m
    tau = 0.5 * r[:, None] * (1.0 + GL_NODES)
    last = 0.5 * r * ((np.exp(sign * tau) * f(L0 + m[:, None] + tau)) @ GL_WEIGHTS)
    return prefix[m.astype(np.intp)] + np.exp(sign * m) * last


def _ds_integrand(L):
    return L / (L + 2.0)


def _dt_integrand(L):
    return L * (L + 2.0) ** 3


def _s_of_d(d, L0):
    """s(d) = int_0^d e^(L0+x) (L0+x)/(L0+x+2) dx, the time in s to reach L0 + d."""
    return math.exp(L0) * _panel_integral(d, L0, 1.0, _ds_integrand)


def _d_of_s(s, L0):
    """Invert s(d) by Newton.  s(d) is increasing and convex, and the start
    log1p(s b0 (L0+2)/L0) lies above the root, so the iterates fall to it.
    The stop scale min(d, 1) is kept normal, so that a subnormal d stops."""
    d = np.log1p(s * math.exp(-L0) * (L0 + 2.0) / L0)
    for _ in range(100):
        L = L0 + d
        step = (_s_of_d(d, L0) - s) / (np.exp(L) * L / (L + 2.0))
        d = d - step
        if np.all(np.abs(step) <= 1e-8 * np.clip(d, TINY, 1.0)):
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
