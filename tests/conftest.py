import math

import numpy as np
import pytest
from scipy.integrate import quad

from blowlab import flow, inequalities as ineq, profiles, radial


@pytest.fixture(scope="session")
def grid():
    """Default profile-scale grid shared across the suite."""
    return radial.make_grid(1e-4, 4e3, 4096)


@pytest.fixture(scope="session")
def fine_grid():
    return radial.make_grid(1e-4, 4e3, 8192)


@pytest.fixture(scope="session")
def eigenpair(grid):
    return radial.unstable_mode(grid)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def l2_window(grid, values, y_hi=100.0):
    mask = grid.nodes <= y_hi
    return float(np.sqrt(np.dot(grid.weights[mask], values[mask] ** 2)))


# ---------------------------------------------------------------------------
# closed forms behind the asymptotic constants of T1 and the radiation
# ---------------------------------------------------------------------------


def resonance_mass(y):
    """I1(y) = int_0^y (Lambda Q)^2 s^3 ds in closed form, with w = y^2/8.

    I1 = (32/3) [3 log(1 + w) - w (3 + 6w + 7w^2)/(1 + w)^3]
       = 64 log y - (32/3)(7 + 9 log 2) + O(1/y^2).
    """
    w = np.asarray(y, dtype=float) ** 2 / 8.0
    return 32.0 / 3.0 * (3.0 * np.log1p(w) - w * (3.0 + 6.0 * w + 7.0 * w * w) / (1.0 + w) ** 3)


# T1 = -Gamma I1 + Lambda Q int_0^y Lambda Q Gamma s^3 ds with Gamma -> 1/16 and
# Lambda Q ~ -8/y^2, so T1 = -4 (log y - T1_FAR_CONSTANT) - 192 log^2 y / y^2
# + O(log y / y^2); a regular T1 can only add multiples of Lambda Q -> 0.
T1_FAR_CONSTANT = 5.0 / 3.0 + 1.5 * math.log(2.0)

# mu_chi = int_1^2 chi(x) dx/x for the unit cutoff; with I1's expansion it
# fixes int chi_{B0/4} (Lambda Q)^2 y^3 dy = 32 |log b| + RADIATION_OFFSET + O(b)
CUTOFF_LOG_MEAN = quad(lambda x: radial.cutoff(1.0, x) / x, 1.0, 2.0,
                       epsabs=0.0, epsrel=1e-13)[0]
RADIATION_OFFSET = (64.0 * (CUTOFF_LOG_MEAN - math.log(4.0))
                    - 32.0 / 3.0 * (7.0 + 9.0 * math.log(2.0)))


def radiation_mass_exact(b):
    """int chi_{B0/4} (Lambda Q)^2 y^3 dy = -int chi'_{B0/4} I1 dy = 64/c_b."""
    scale = b**-0.5 / 4.0
    return quad(lambda y: -radial.cutoff(scale, y, 1) * resonance_mass(y),
                scale, 2.0 * scale, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def radiation_scaled_asymptotic(b):
    """c_b |log b| / 2 = 32 L / (32 L + RADIATION_OFFSET), L = |log b|."""
    lb = math.log(1.0 / b)
    return 32.0 * lb / (32.0 * lb + RADIATION_OFFSET)


# ---------------------------------------------------------------------------
# independent references the program does not use
# ---------------------------------------------------------------------------


def whole_profile(b, grid):
    """(Q~_b, zeta_b) built exactly on the whole grid: the reference that
    every prefix build, lattice node and checkpoint is checked against."""
    return profiles.localized_profile(b, grid, grid.n)


class ExactProfileCache(flow.ProfileCache):
    """A ProfileCache that `decompose` can read Q~_b from directly, built
    exactly on the whole profile grid; a run reads it through its
    ProfileMemo instead.  It keeps its last build, so a request at the b
    before reuses it.  The build goes through the `flow` name, so a test
    that patches flow.localized_profile sees each miss."""

    built = (None, None)  # (b, Q~_b) of the last build

    def q_b(self, b: float) -> np.ndarray:
        if self.built[0] != b:
            self.built = (b, flow.localized_profile(b, self.grid, self.grid.n)[0])
        return self.built[1]


def cumulative_integral_one_lane(grid, integrand, head):
    """Single-lane reference for cumulative_integral: one running integral
    int_0^{y_i} g y^3 dy, its float64 panel increments cast to longdouble
    and summed alone, plus the head, rounded to float64."""
    n = integrand.size
    left, right = grid.panels
    inc = left[:n - 1] * integrand[:-1] + right[:n - 1] * integrand[1:]
    out = np.empty(n)
    out[0] = head
    out[1:] = np.cumsum(inc.astype(np.longdouble)) + head
    return out


def coercivity_H_adversarial(grid):
    """Coercivity ratio of the unprojected near-kernel direction
    chi_10 Lambda Q, which shows that the orthogonality projection of the
    coercivity suites is needed."""
    y = grid.nodes
    return float(ineq._h_ratio(grid, radial.cutoff(10.0, y) * radial.lambda_q(y),
                               ineq._denominators(grid, ineq._log_weight(y) ** 2)))


def neg_laplacian_by_diagonal(grid):
    """-Delta's (dl, d, du) filled diagonal by diagonal from the stencil
    factors, as radial.lu_factor takes them; the last row is zero."""
    ep, em, epm, inv, reg = grid.stencil
    dl = np.empty(grid.n - 1)
    np.multiply(inv, -em, out=dl[:-1])
    dl[-1] = 0.0
    d = np.empty(grid.n)
    d[0] = reg
    np.multiply(inv, epm, out=d[1:-1])
    d[-1] = 0.0
    du = np.empty(grid.n - 1)
    du[0] = -reg
    np.multiply(inv, -ep, out=du[1:])
    return dl, d, du


def b_of_s_asymptotic(s):
    """Two-term large-s law b(s) = 1/s - 2/(s log s) of the reduced system."""
    s = float(s)
    if s <= np.e**2:
        raise ValueError("asymptotic law needs s > e^2")
    return 1.0 / s - 2.0 / (s * np.log(s))
