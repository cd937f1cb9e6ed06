"""Property-based numerical checks of the weighted functional inequalities.

Each suite draws seeded families of radial test functions, evaluates both
sides of an inequality with the grid quadrature, and reports the worst
observed ratio.  Constants are always fitted, never asserted against
anything external: what the suites certify is finiteness and stability
under resampling and refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import radial
from .profiles import M_DEFAULT, direction_phi, log_binv

# the sample families: smooth (C^4 at least) for every suite `verify` runs
FAMILIES = ("gaussian-bumps", "polynomial-decay")
SAMPLER_SUPPORT = 40.0  # radius scale of the samples; a grid reaches 2.5 times it
GRID_Y_MIN = 1e-3
GRID_Y_MAX = 400.0
HARDY_R = 100.0  # outer radius of the second and third Hardy controls
HARDY_GAMMA = 1.0  # extra power of y in the third Hardy control
# a gaussian ring is evaluated where |z| < BUMP_REACH only: past |z| = 27.3,
# exp(-z^2) underflows to exactly +0
BUMP_REACH = 27.5


@dataclass(frozen=True)
class InequalityReport:
    name: str
    samples: int
    worst_ratio: float
    violated: bool
    tolerance: float
    details: dict = field(default_factory=dict, repr=False)

    def to_json_dict(self):
        out = {
            "name": self.name,
            "samples": self.samples,
            "worst_ratio": self.worst_ratio,
            "violated": self.violated,
            "tolerance": self.tolerance,
        }
        out.update({k: v for k, v in self.details.items() if np.isscalar(v)})
        return out


class TestFunctionSampler:
    """Seeded generator of smooth radial test functions with f'(0) = 0.

    families: FAMILIES, 'gaussian-bumps' and 'polynomial-decay', both smooth
    closed forms carrying exact first and second derivatives.
    """

    def __init__(self, seed: int = 0, family: str = "gaussian-bumps"):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self._rng = np.random.default_rng(seed)

    def sample(self, grid: radial.RadialGrid, derivatives: bool = False):
        """One sample on the grid: its values, or with derivatives=True the
        tuple (values, d/dy values, d2/dy2 values).  Both forms make the same
        draws and evaluate the values with the same expression."""
        y = grid.nodes
        if grid.y_max < 2.5 * SAMPLER_SUPPORT:
            raise ValueError("grid too small for the sampler support window")
        rng = self._rng
        if self.family == "gaussian-bumps":
            y2 = grid.y2
            f = np.zeros_like(y)
            if derivatives:
                fp = np.zeros_like(y)
                fpp = np.zeros_like(y)
            # each bump's (a, c, w) from one draw; lo + (hi - lo) u is the
            # bits of rng.uniform(lo, hi) on the same stream
            draws = rng.random(3 * rng.integers(2, 5)).tolist()
            for ua, uc, uw in zip(draws[::3], draws[1::3], draws[2::3]):
                a = -1.0 + 2.0 * ua
                c = 0.5 * SAMPLER_SUPPORT * uc
                # keep the ring width resolvable on a log grid: w grows with c
                lo, hi = max(1.0, 0.35 * c), max(2.0, 0.5 * c)
                w = lo + (hi - lo) * uw
                # ring bump exp(-z^2), z = (y^2-c^2)/w^2: even in y, C-infinity.
                # Outside the ring's window it and its derivatives are +-0,
                # which leave f, f' and f'' (never -0) as they are
                c2, w2 = c**2, w**2
                ring = slice(*y2.searchsorted((c2 - BUMP_REACH * w2, c2 + BUMP_REACH * w2)))
                z = y2[ring] - c2
                z /= w2
                g = np.multiply(z, z)
                np.negative(g, out=g)
                np.exp(g, out=g)
                if derivatives:
                    yr = y[ring]
                    yw = 2.0 * yr / w2
                    gp = g * (-2.0 * z) * yw
                    gpp = g * ((2.0 * z * 2.0 * yr / w2) ** 2 - 2.0 * yw**2
                               - 2.0 * z * 2.0 / w2)
                    gp *= a
                    fp[ring] += gp
                    gpp *= a
                    fpp[ring] += gpp
                g *= a
                f[ring] += g
            return (f, fp, fpp) if derivatives else f
        # the other family, polynomial-decay
        draws = rng.random(5)
        s = 1.0 + (0.3 * SAMPLER_SUPPORT - 1.0) * float(draws[0])
        coef = -1.0 + 2.0 * draws[1:]
        u = (y / s) ** 2
        e = np.exp(-u)
        p = coef[0] + u * (coef[1] + u * (coef[2] + u * coef[3]))
        f = p * e
        if not derivatives:
            return f
        up = 2.0 * y / s**2
        dp = coef[1] + u * (2.0 * coef[2] + 3.0 * coef[3] * u)
        d2p = 2.0 * coef[2] + 6.0 * coef[3] * u
        fp = e * up * (dp - p)
        fpp = e * ((2.0 / s**2) * (dp - p) + up**2 * (d2p - 2.0 * dp + p))
        return f, fp, fpp


def _log_weight(y):
    return 1.0 + np.abs(np.log(y))


def _grid_derivatives(grid, v):
    """First and second derivative on the log grid (for fitted-ratio checks)."""
    vt, vp = radial.log_gradient(grid, v)
    return vp, (radial.log_gradient(grid, vt)[0] - vt) / grid.y2


class _Denominators(NamedTuple):
    """The sample-free divisors of the weighted ratios on one grid: the
    y-powers times a log weight L^2 (y^2 itself is grid.y2)."""

    lw2: np.ndarray
    y2_lw2: np.ndarray
    y4_lw2: np.ndarray
    y6_lw2: np.ndarray
    y4_1y4_lw2: np.ndarray  # y^4 (1 + y^4) L^2


def _denominators(grid, lw2: np.ndarray) -> _Denominators:
    """The divisors for the log weight lw2 = L^2, once per grid: the suites'
    _log_weight(y)**2 or the spotcheck's 1 + log^2 y.  Each is built in the
    operation order of the quotient it divides, so every quotient keeps its bits."""
    y = grid.nodes
    return _Denominators(lw2=lw2, y2_lw2=y**2 * lw2, y4_lw2=y**4 * lw2,
                         y6_lw2=y**6 * lw2, y4_1y4_lw2=y**4 * (1 + y**4) * lw2)


def default_grid(n: int = 4096, M: float = M_DEFAULT) -> radial.RadialGrid:
    """Suite grid out to at least 2M, the support of Phi_M; the inner cutoff
    stays at 1e-3 because fourth-order stencils near the origin amplify one
    ulp of an O(1) sample by (h^2 y^2)^-2, and no inequality mass lives
    below it."""
    return radial.make_grid(GRID_Y_MIN, max(GRID_Y_MAX, 2.0 * M), n)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def hardy_suite(sampler: TestFunctionSampler, n: int,
                grid: radial.RadialGrid) -> InequalityReport:
    """Integration-by-parts identity for the radial bilaplacian energy plus
    the three weighted Hardy controls, as sample-wide fitted ratios."""
    if n < 50:
        raise ValueError("need at least 50 samples")
    y = grid.nodes
    w = grid.weights
    # the sample-free factors, masks and masked weights, once per suite
    y2 = grid.y2
    den = _denominators(grid, _log_weight(y) ** 2)
    in_r = y <= HARDY_R
    band = (y >= 1.0) & (y <= 2.0)
    ring = (y >= 1.0) & (y <= HARDY_R)
    w_in, w_band, w_ring = w[in_r], w[band], w[ring]
    den2 = den.y4_lw2[in_r]
    den3 = (y ** (4 + HARDY_GAMMA) * den.lw2)[ring]
    den3p = (y ** (2 + HARDY_GAMMA) * den.lw2)[ring]
    worst = {"identity": 0.0, "hardy1": 0.0, "hardy2": 0.0, "hardy3": 0.0}
    for _ in range(n):
        v, vp, vpp = sampler.sample(grid, derivatives=True)
        v2, vp2 = v**2, vp**2
        vp2_y2 = vp2 / y2
        lap = vpp + 3.0 * vp / y
        lhs_id = np.dot(w, lap**2)
        pp_term = np.dot(w, vpp**2)
        p_term = np.dot(w, vp2_y2)
        rhs_id = pp_term + 3.0 * p_term
        scale = max(lhs_id, rhs_id, 1e-300)
        worst["identity"] = max(worst["identity"], abs(lhs_id - rhs_id) / scale)
        worst["hardy1"] = max(worst["hardy1"], (pp_term + p_term) / max(lhs_id, 1e-300))
        band_term = np.dot(w_band, v2[band])
        lhs2 = np.dot(w_in, v2[in_r] / den2)
        rhs2 = np.dot(w_in, vp2_y2[in_r]) + band_term
        worst["hardy2"] = max(worst["hardy2"], lhs2 / max(rhs2, 1e-300))
        lhs3 = np.dot(w_ring, v2[ring] / den3)
        rhs3 = np.dot(w_ring, vp2[ring] / den3p) + band_term
        worst["hardy3"] = max(worst["hardy3"], lhs3 / max(rhs3, 1e-300))
    tolerance = 1e-6
    return InequalityReport(
        name="hardy", samples=n, worst_ratio=worst["hardy2"],
        violated=worst["identity"] > tolerance, tolerance=tolerance,
        details=worst,
    )


def subpositivity_suite(sampler: TestFunctionSampler, n: int,
                        grid: radial.RadialGrid) -> InequalityReport:
    """(Hu, u) >= -C (u, psi)^2 with the fitted constant C = zeta/(psi,psi)."""
    w = grid.weights
    pair = radial.unstable_mode(grid)
    c_fit = pair.zeta / float(np.dot(w, pair.psi * pair.psi))
    worst = -np.inf
    violated = 0
    tol = 1e-8
    for _ in range(n):
        v = sampler.sample(grid)
        quad = float(np.dot(w, radial.apply_H(grid, v) * v))
        proj = float(np.dot(w, v * pair.psi))
        v_sq = float(np.dot(w, v * v))
        margin = (quad + c_fit * proj**2) / max(v_sq, 1e-300)
        worst = max(worst, -margin)
        if margin < -tol:
            violated += 1
    return InequalityReport(
        name="subpositivity", samples=n, worst_ratio=float(worst),
        violated=violated > 0, tolerance=tol,
        details={"C_fit": c_fit, "violations": violated},
    )


def _h_ratio(grid, u, den: _Denominators):
    """Second-order coercivity ratio for one sample array; den is
    the suites' _denominators."""
    w = grid.weights
    up, upp = _grid_derivatives(grid, u)
    hu = radial.apply_H(grid, u)
    num = (np.dot(w, upp**2) + np.dot(w, up**2 / grid.y2)
           + np.dot(w, u**2 / den.y4_lw2))
    return num / max(np.dot(w, hu**2), 1e-300)


def coercivity_H_suite(sampler: TestFunctionSampler, n: int, M: float = M_DEFAULT, *,
                       grid: radial.RadialGrid) -> InequalityReport:
    """Fitted constant of the second-order coercivity under (u, Phi_M) = 0."""
    w = grid.weights
    direction = direction_phi(M, grid)
    phi = direction.Phi_M
    den = _denominators(grid, _log_weight(grid.nodes) ** 2)
    worst = 0.0
    ratios = []
    for _ in range(n):
        v = sampler.sample(grid)
        c = float(np.dot(w, v * phi)) / direction.norm_sq
        ratio = _h_ratio(grid, v - c * phi, den)
        ratios.append(ratio)
        worst = max(worst, ratio)
    return InequalityReport(
        name="coercivity_H", samples=n, worst_ratio=float(worst),
        violated=not np.isfinite(worst), tolerance=np.inf,
        details={"median_ratio": float(np.median(ratios)), "M": M},
    )


def _double_project(grid, phi, v):
    """Subtract the span of {Phi_M, H Phi_M} to enforce both pairings."""
    w, p, hp = grid.weights, phi.Phi_M, phi.H_Phi_M
    hv = radial.apply_H(grid, v)
    rhs = np.array([float(np.dot(w, v * p)), float(np.dot(w, hv * p))])
    gram = np.array([[phi.norm_sq, phi.pair_H], [phi.pair_H, phi.H_norm_sq]])
    try:
        a, bcoef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise RuntimeError("projection Gram matrix is degenerate")
    return v - a * p - bcoef * hp


def coercivity_H2_suite(sampler: TestFunctionSampler, n: int, M: float = M_DEFAULT, *,
                        grid: radial.RadialGrid) -> InequalityReport:
    """Fitted constant of the fourth-order coercivity under the double
    orthogonality (u, Phi_M) = (Hu, Phi_M) = 0."""
    w = grid.weights
    phi = direction_phi(M, grid)
    p = phi.Phi_M
    p_norm = float(np.sqrt(phi.norm_sq))
    den = _denominators(grid, _log_weight(grid.nodes) ** 2)
    worst = 0.0
    ratios = []
    resid = 0.0
    for _ in range(n):
        v = sampler.sample(grid)
        u = _double_project(grid, phi, v)
        ratio = _h2_ratio(grid, u, den)
        ratios.append(ratio)
        worst = max(worst, ratio)
        un = float(np.sqrt(np.dot(w, u * u)))
        resid = max(resid, abs(float(np.dot(w, u * p))) / (p_norm * max(un, 1e-300)))
    return InequalityReport(
        name="coercivity_H2", samples=n, worst_ratio=float(worst),
        violated=not np.isfinite(worst), tolerance=np.inf,
        details={"median_ratio": float(np.median(ratios)),
                 "projection_residual": float(resid), "M": M},
    )


def _h2_ratio(grid, u, den: _Denominators):
    """Full fourth-order coercivity ratio for one sample array; den is
    the suites' _denominators."""
    hu = radial.apply_H(grid, u)
    h2u = radial.apply_H(grid, hu)
    up, upp = _grid_derivatives(grid, u)
    num = _fourth_order_sum(grid, den, u, up, upp, hu)
    return num / max(np.dot(grid.weights, h2u**2), 1e-300)


def _fourth_order_sum(grid, den: _Denominators, u, up, upp, hu):
    """The six weighted terms that |H^2 u|^2 controls: |H u|, its first two
    derivatives and u with its first two derivatives, each squared over its
    y-power times L^2, given u's derivatives (up, upp) and hu = H u."""
    w = grid.weights
    hup, hupp = _grid_derivatives(grid, hu)
    return (
        np.dot(w, hu**2 / den.y4_lw2)
        + np.dot(w, hup**2 / den.y2_lw2)
        + np.dot(w, hupp**2 / den.lw2)
        + np.dot(w, u**2 / den.y4_1y4_lw2)
        + np.dot(w, up**2 / den.y6_lw2)
        + np.dot(w, upp**2 / den.y4_lw2)
    )


def interpolation_spotcheck(grid: radial.RadialGrid, eps: np.ndarray,
                            b: float) -> InequalityReport:
    """Left sides of the bootstrap interpolation bounds against
    E2 = |H eps|^2 and E4 = |H^2 eps|^2, and the sup-norm bound scaled by
    its b-power.  Ratios are logged, not asserted.
    """
    y, w = grid.nodes, grid.weights
    he = radial.apply_H(grid, eps)
    h2e = radial.apply_H(grid, he)
    E2 = float(np.dot(w, he * he))
    E4 = float(np.dot(w, h2e * h2e))
    ep, epp = _grid_derivatives(grid, eps)
    den = _denominators(grid, 1.0 + np.log(y) ** 2)
    lhs_e4 = _fourth_order_sum(grid, den, eps, ep, epp, he)
    lhs_e2 = np.dot(w, eps**2 / den.y4_lw2) + np.dot(w, ep**2 / den.y2_lw2) \
        + np.dot(w, epp**2)
    sup_tail = float(np.max(np.abs(eps / (1.0 + y)))) ** 2
    details = {
        "estun_over_E4": float(lhs_e4 / E4) if E4 > 0 else np.inf,
        "estunbis_over_E2": float(lhs_e2 / E2) if E2 > 0 else np.inf,
        "supnorm_tail": sup_tail,
        "supnorm_over_b3logC": sup_tail / (b**3 * log_binv(b) ** 2),
    }
    zero_input = float(np.max(np.abs(eps))) == 0.0
    worst = 0.0 if zero_input else details["estun_over_E4"]
    return InequalityReport(
        name="interpolation", samples=1, worst_ratio=float(worst),
        violated=False, tolerance=np.inf, details=details,
    )
