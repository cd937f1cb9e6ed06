"""Full radial PDE flow with modulation decomposition and shooting.

The equation du/dt = u'' + 3u'/r + u^3 is integrated on a log-graded radial
grid with an implicit diffusion solve and explicit cubic reaction,
step-doubling error control, and remeshing in the self-similar variable
when the bubble scale halves.  The diffusion matrix is tridiagonal, and a
diagonal scaling W (a discrete y^4 weight, the grid's `dirichlet_system`)
makes it symmetric positive definite, as -Delta is self-adjoint in
L^2(y^3 dy), so each implicit system is solved by LDL^T without pivoting.

Every accepted step re-decomposes the solution as u = (Q_loc(b) +
eps)_lambda through the two orthogonality pairings against the localized
direction Phi_M, with Q_loc(b) served by the quintic through exact profile
builds on a fixed lattice in b, which every run on a ProfileCache shares,
and tracks the unstable-mode amplitude kappa = (eps, psi).
The shooting driver `shoot` bisects the initial amplitude a+ on the sign
of the recorded exit, between the run config's bracket or one it grows
itself; each probe ends where its decomposition is lost.

The equation is invariant under u -> u(t/l^2, r/l)/l, so a run is solved in
units of its initial scale lambda0, which every length, time and amplitude
below is in, and `simulate` rescales its checkpoints once at the end.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import radial
from .config import B_FLOOR, B_FLOOR_EXIT, RunConfig
from .profiles import direction_phi, localized_profile, log_binv, resolves, zone_radii

E_OF_Q = 4.0 / 3.0  # energy of the stationary bubble, = 1/2*16/3 - 1/4*16/3

# flow grid, in units of lambda0
Y_MIN_FLOW = 0.02  # the first grid's first node
R_MAX_FACTOR = 20.0  # times B1(b0), the first grid's last node at least
# profile grid
PROFILE_Y_MIN = 1e-4
PROFILE_N = 3072
# stepping, in units of lambda0 (u in 1/lambda0, t in lambda0^2)
ATOL_STEP = 1e-9
DS_INIT = 1e-3
DS_CAP = 0.5
U3_MAX = np.cbrt(np.finfo(float).max)  # u^3 is finite exactly for |u| below this
U_CAP = 1e12  # a run whose max|u| exceeds this (in 1/lambda0) ends as an overflow
# decomposition
NEWTON_TOL = 1e-11
NEWTON_MAX = 16
# the profile lattice in b: exact Q~_b at b_k = k MEMO_STEP, the step
# halved at most MEMO_HALVINGS times, and the bound on a served Q~_b's
# pairings relative to their scales
MEMO_STEP = 2.0**-16
MEMO_HALVINGS = 6
MEMO_TOL = 0.1 * NEWTON_TOL
# Delta^6 over the nodes k-2, .., k+4, and prod_{j != i} (i - j) over the
# quintic's nodes i = -2, .., 3, its Lagrange denominators
SEXTIC = (1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0)
LAGRANGE = (-120.0, 24.0, -12.0, 12.0, -24.0, 120.0)
# bracket search: grow from the admissible window up to this multiple of it
BRACKET_GROW = 4.0
BRACKET_MAX_FACTOR = 1e7
# bookkeeping
CHECKPOINT_EVERY = 20
LAMBDA_DECAY_TARGET = 10.0
DISSIPATION_DROP = 10.0


class RunClass(enum.Enum):
    TypeII_tracking = "TypeII_tracking"
    ExitUnstablePlus = "ExitUnstablePlus"
    ExitUnstableMinus = "ExitUnstableMinus"
    Dissipation = "Dissipation"
    GridExhausted = "GridExhausted"


_EXIT_SIGN = {RunClass.ExitUnstableMinus: -1, RunClass.ExitUnstablePlus: +1}


def admissible_window(b: float, factor: float) -> float:
    """factor times the admissible unstable amplitude b^2.5/|log b|."""
    return factor * b**2.5 / log_binv(b)


def _flow_r_max(b0: float, reach: float) -> float:
    """Outer radius of a run's flow grid in units of lambda0, R_MAX_FACTOR
    B1(b0) or more: it holds the decomposition's windows y <= reach while
    lambda stays below 0.95/0.9."""
    return max(R_MAX_FACTOR * zone_radii(b0)[1], reach / 0.9)


class ProfileCache:
    """The profile-side values of one pairing radius M, each a function of
    b and M alone, shared by every run on the cache.

    Formed once: the profile grid, the direction Phi_M, the unstable mode,
    the decomposition's windows and the gate pairings.  Grown as runs ask
    (see ProfileMemo): the exact Q~_b at lattice points b_k = k h, h being
    MEMO_STEP or one of its halvings, on the decomposition prefix and keyed
    by the float b_k, so a coarse node is an even node of the finer
    levels; and the gate radius of each interval [b_k, b_k + h) served.  A
    value kept here has the bits any run would have formed, so what a run
    reads does not depend on the runs before it.  `init_data` builds Q~_b0
    on the whole profile grid, and each checkpoint builds Q~_b and zeta_b on
    its covered prefix (`profiles.localized_profile`), keeping neither."""

    def __init__(self, params: RunConfig):
        self.M = params.M
        # the last node is 4.2 B1 at the b floor, and 40 M
        y_max = max(4.2 * zone_radii(B_FLOOR)[1], 40.0 * params.M)
        self.grid = radial.make_grid(PROFILE_Y_MIN, y_max, PROFILE_N)
        self.phi = direction_phi(params.M, self.grid)
        self.eig = radial.unstable_mode(self.grid)
        # the pairing and psi windows are prefixes of the profile grid; n holds both
        y = self.grid.nodes
        self.pair_n = int(np.count_nonzero(y <= 2.2 * params.M))
        psi_cut = max(60.0, 40.0 / np.sqrt(self.eig.zeta))
        self.psi_n = int(np.count_nonzero(y <= psi_cut))
        self.n = max(self.pair_n, self.psi_n)
        self.reach = float(y[self.n - 1])  # the largest y the decomposition reads
        # the pairing vectors weighted over their windows, w Phi_M, w H Phi_M
        # and w psi, which the decomposition's pairings and the lattice gate
        # read, and the gate's pairings: (w v, |v| over v's window)
        w = self.grid.weights
        vectors = ((self.phi.Phi_M, self.pair_n), (self.phi.H_Phi_M, self.pair_n),
                   (self.eig.psi, self.psi_n))
        self.weighted = tuple(w[:m] * v[:m] for v, m in vectors)
        self.gates = [(wv, float(np.sqrt(np.dot(wv, v[:m]))))
                      for wv, (v, m) in zip(self.weighted, vectors)]
        self.nodes = {}  # b_k -> the exact Q~_b on the decomposition prefix
        self.radii = {}  # (h, k) -> the gate radius on [b_k, b_k + h)

    def node(self, b: float) -> np.ndarray:
        """The exact Q~_b at a lattice point b, built on its first request."""
        q = self.nodes.get(b)
        if q is None:
            q = self.nodes[b] = localized_profile(b, self.grid, self.n)[0]
        return q

    def radius(self, h: float, k: int) -> float:
        """The gate on [b_k, b_k + h): the largest |prod_{i=-2..3} (t - i)|,
        t = b/h - k, at which the sextic term through b_{k-2}, .., b_{k+4},
        f[b_{k-2}, .., b_{k+4}] prod_i (b - b_{k+i}) = Delta^6 Q~ / 6! prod_i (t - i),
        pairs against each gate vector v within MEMO_TOL / 2 of the scale
        |v| |Q~_{b_k}| over v's window."""
        r = self.radii.get((h, k))
        if r is None:
            d6 = sum(c * self.node((k + i) * h) for c, i in zip(SEXTIC, range(-2, 5)))
            q = self.node(k * h)
            w = self.grid.weights
            r = math.inf
            for wv, v_norm in self.gates:
                m = wv.size
                term = abs(float(np.dot(wv, d6[:m]))) / 720.0
                if term > 0.0:
                    scale = v_norm * float(np.sqrt(np.dot(w[:m], q[:m] * q[:m])))
                    r = min(r, 0.5 * MEMO_TOL * scale / term)
            self.radii[(h, k)] = r
        return r


class ProfileMemo:
    """One run's reader of the Q~_b lattice on its ProfileCache.

    With k = floor(b/h), Q~_b is served by the quintic through the six
    nodes b_{k-2}, .., b_{k+3} (in Lagrange form; on this middle interval
    the Lebesgue sum is at most 1.39, so the nodes' roundoff stays as
    small as it is) when the sextic term through the seventh node b_{k+4}
    passes the cache's gate on [b_k, b_k + h): that term pairs against
    w Phi_M and w H Phi_M over the pairing window and against w psi over
    the psi window within MEMO_TOL / 2 of each pairing's scale.  The step
    starts at h = MEMO_STEP and halves, at most MEMO_HALVINGS times, past
    each level whose gate fails or whose stencil leaves the b the profile
    grid resolves; a b on a node returns that node's bits.  A b no level
    passes is built exactly for this run (`profiles.localized_profile` on
    the decomposition prefix, with the bits of a whole-grid build there),
    and the last such build is kept.

    A served value depends on b alone, so runs on one cache read the same
    bits in any order.  So do the run's counts: `read` holds the distinct
    exact profiles it read, every node of each stencil it tried and its own
    builds, whether or not an earlier run already built them, and `serves`
    counts the requests the lattice answered.
    """

    def __init__(self, cache: ProfileCache):
        self.cache = cache
        self.grid, self.phi, self.eig = cache.grid, cache.phi, cache.eig
        self.pair_n, self.psi_n, self.n = cache.pair_n, cache.psi_n, cache.n
        self.reach, self.weighted = cache.reach, cache.weighted
        self.read = set()  # b of each exact Q~_b read: lattice nodes and own builds
        self.serves = 0  # requests the lattice answered, at a node or by its quintic
        self.built = (None, None)  # (b, Q~_b) of the run's last build off the lattice
        self.interval = (None, None)  # ((h, k), its six quintic nodes stacked) last served

    def q_b(self, b: float) -> np.ndarray:
        """Q~_b on the decomposition prefix: at or between lattice nodes, or built."""
        cache, h = self.cache, MEMO_STEP
        for _ in range(MEMO_HALVINGS + 1):
            k = math.floor(b / h)
            # an interval with a radius has a resolved stencil; a level whose
            # stencil is not resolved is passed over as a failed gate
            if (h, k) in cache.radii or (resolves(self.grid, (k - 2) * h)
                                         and resolves(self.grid, (k + 4) * h)):
                t = b / h - k  # exact
                if t == 0.0:
                    self.read.add(b)
                    self.serves += 1
                    return cache.node(b)
                stencil = [(k + i) * h for i in range(-2, 5)]
                self.read.update(stencil)
                d = [t - i for i in range(-2, 4)]
                prod = math.prod(d)
                if abs(prod) <= cache.radius(h, k):
                    if self.interval[0] != (h, k):
                        self.interval = ((h, k), np.array([cache.node(x) for x in stencil[:6]]))
                    self.serves += 1
                    return np.dot([prod / (di * den) for di, den in zip(d, LAGRANGE)],
                                  self.interval[1])
            h *= 0.5
        self.read.add(b)
        if self.built[0] != b:
            self.built = (b, localized_profile(b, self.grid, self.n)[0])
        return self.built[1]


@dataclass(frozen=True)
class FlowState:
    grid: radial.RadialGrid
    u: np.ndarray

    @property
    def r(self) -> np.ndarray:
        return self.grid.nodes


@dataclass(frozen=True)
class Checkpoint:
    step: int
    t: float
    s: float
    lam: float
    b: float
    kappa: float
    E: float
    E1: float
    E2: float
    E2_hat: float
    u_max: float
    res_phi: float
    res_hphi: float
    decomposed: bool = True


@dataclass
class FlowTrajectory:
    params: RunConfig
    checkpoints: list
    termination: str
    classification: RunClass | None
    steps: int
    step_rejects: int = 0  # step_flow rejects over the run
    decompose_lost_step: int | None = None  # step whose decomposition failed
    newton_iterations: int = 0  # decompose iterations over its successful calls
    jacobian_builds: int = 0  # fresh Newton Jacobians over the run
    profile_builds: int = 0  # distinct exact Q~_b the run read: lattice nodes and its own builds
    profile_serves: int = 0  # Q~_b requests the lattice answered, at a node or between nodes
    remeshes: int = 0  # flow grids rebuilt in the self-similar variable over the run

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(c, name) for c in self.checkpoints])

    @property
    def lambda_decay(self) -> float:
        """lambda0 over the smallest lambda the checkpoints recorded."""
        return float(self.params.lambda0 / np.nanmin(self.series("lam")))


# ---------------------------------------------------------------------------
# flow grid and stepping
# ---------------------------------------------------------------------------


def _flow_grid(r_min: float, r_max: float, nodes_per_decade: int) -> radial.RadialGrid:
    n = max(int(np.ceil(nodes_per_decade * np.log10(r_max / r_min))) + 1, 64)
    return radial.make_grid(r_min, r_max, n)


def _u_eval(grid: radial.RadialGrid, u: np.ndarray):
    """Evaluator of u on the flow grid: evaluate(y, t, lam) is u at the
    radii lam y, y ascending with t = log y, and with an even-parabola
    extension below the first node (radial regularity u'(0) = 0).  The
    radii below r0 are a prefix, which it forms lam y on; past it, it reads
    the spline, built on the grid's frame, at log lam + t, one logarithm per
    call.  At lam = 1 it reads y and t themselves."""
    spl = radial.CubicSpline(grid.spline_frame, u)
    r = grid.nodes
    r0, r1 = r[0], r[1]
    c2 = (u[1] - u[0]) / (r1**2 - r0**2)
    u00 = u[0] - c2 * r0**2

    def evaluate(y: np.ndarray, t: np.ndarray, lam: float) -> np.ndarray:
        # the prefix lam y < r0: searched on y, then settled on the rounded
        # products, which rise with y
        k = int(y.searchsorted(r0 / lam))
        while k and lam * y[k - 1] >= r0:
            k -= 1
        while k < y.size and lam * y[k] < r0:
            k += 1
        out = np.empty_like(y)
        low = np.multiply(lam, y[:k], out=out[:k])
        np.multiply(low, low, out=low)
        low *= c2
        low += u00
        spl(t[k:] + math.log(lam), out[k:])
        return out

    return evaluate


def step_flow(grid: radial.RadialGrid, u: np.ndarray, u_max: float, dt: float,
              rtol: float, atol: float):
    """One accepted IMEX step with step-doubling control, from u with
    u_max = max|u|, which the caller forms once per state.

    A trial solves (I + h (-Delta)) v_new = v + h v^3 once from u at h = dt
    and twice at h = dt/2, on the n - 1 unknowns below r_max, where the
    Dirichlet value u_new = u holds: the new state's last entry is u[-1]
    itself, bit for bit.  Each system is solved in the symmetric form
    W (I + h (-Delta)) of `grid.dirichlet_system`, positive definite for
    every h >= 0, by LDL^T without pivoting: each system by one
    `radial.spd_factor`, the dt system then by one `radial.spd_substitute`
    and the dt/2 system by two, for the mid and the half step.

    Returns (u_new, dt_taken, dt_next, n_rejects).  A u whose cube is not
    finite (a non-finite u included) raises RuntimeError at once; a
    non-finite trial step counts as a reject.
    """
    if not u_max < U3_MAX:
        raise RuntimeError("non-finite or overflowing u^3; solver failure")
    scale = atol + rtol * u_max
    w, wd, we, c = grid.dirichlet_system
    ub = u[-1]
    v = u[:-1]
    v3 = v**3
    # the half step's state: the last substitution of a trial writes its
    # unknowns into the first n - 1 entries, the right-hand side they start as
    new = np.empty_like(u)
    new[-1] = ub
    rejects = 0
    while True:
        h = 0.5 * dt
        try:
            rhs = w * (v + dt * v3)
            rhs[-1] -= (dt * c) * ub
            full = radial.spd_substitute(radial.spd_factor(w + dt * wd, dt * we), rhs)
            factor = radial.spd_factor(w + h * wd, h * we)
            rhs = w * (v + h * v3)
            rhs[-1] -= (h * c) * ub
            mid = radial.spd_substitute(factor, rhs)
            rhs = new[:-1]
            np.multiply(w, mid + h * mid**3, out=rhs)
            rhs[-1] -= (h * c) * ub
            half = radial.spd_substitute(factor, rhs)
        except np.linalg.LinAlgError:
            raise RuntimeError("implicit system is not positive definite; solver failure")
        full -= half
        err = float(np.abs(full, out=full).max()) / scale
        if not math.isfinite(err):
            err = 1e6
        if err <= 1.0:
            grow = min(2.0, max(0.3, 0.9 / math.sqrt(max(err, 1e-12))))
            return new, dt, dt * grow, rejects
        rejects += 1
        dt *= max(0.1, 0.9 / math.sqrt(err))
        if rejects > 60:
            raise RuntimeError("step size collapsed; solver failure")


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def _field(cache: ProfileCache | ProfileMemo, u_eval, lam: float, n: int) -> np.ndarray:
    """F_lam = lam u(lam y) on the first n nodes of the profile grid."""
    grid = cache.grid
    field = u_eval(grid.nodes[:n], grid.t[:n], lam)
    field *= lam
    return field


def _pairings(cache: ProfileCache | ProfileMemo, eps: np.ndarray):
    """(eps, Phi_M) and (eps, H Phi_M) over the pairing window, against the
    cache's weighted w Phi_M and w H Phi_M."""
    w_phi, w_hphi, _ = cache.weighted
    eps = eps[:cache.pair_n]
    return float(np.dot(w_phi, eps)), float(np.dot(w_hphi, eps))


def _pairing_scales(cache: ProfileCache | ProfileMemo, field: np.ndarray):
    """Scales of the two pairings: |Phi_M| and |H Phi_M| times the norm of the
    field over the pairing window, which is scale free and stays meaningful
    when eps vanishes identically."""
    n = cache.pair_n
    f = field[:n]
    norm = float(np.sqrt(np.dot(cache.grid.weights[:n], f * f)))
    return (np.sqrt(cache.phi.norm_sq) * norm,
            float(np.sqrt(cache.phi.H_norm_sq)) * norm)


def _covered(cache: ProfileCache, lam: float, r_max: float) -> int:
    """Length of the profile-grid prefix the flow grid covers, y <= 0.95 r_max/lam."""
    return int(np.count_nonzero(cache.grid.nodes <= 0.95 * r_max / lam))


def _kappa(cache: ProfileCache | ProfileMemo, eps: np.ndarray) -> float:
    """Unstable-mode amplitude kappa = (eps, psi) over the psi window,
    against the cache's weighted w psi."""
    return float(np.dot(cache.weighted[2], eps[:cache.psi_n]))


def decompose(cache: ProfileMemo, grid: radial.RadialGrid, u: np.ndarray,
              seed: tuple, J: np.ndarray | None = None):
    """2D Newton on (lambda, b) zeroing (eps, Phi_M) and (eps, H Phi_M).

    Q~_b comes from `cache.q_b`, a run's ProfileMemo, which serves it from
    the lattice of its ProfileCache, mostly without a build.  Each Newton
    point evaluates the field F_lam
    and subtracts Q~_b once, into the eps its pairings read.  Given a
    Jacobian `J` carried from a nearby
    state (the previous step of a trajectory), the first update uses it as
    a chord.  If the line search rejects every step along the carried J, it
    is refreshed at the current point and the update retried; every later
    update uses a fresh `_jacobian`.  So the soliton tube is declared lost
    only by an update along a fresh Jacobian, as without `J`.

    u is the state on the flow grid `grid`, read only where the grid holds
    it, on y <= 0.95 r_max/lam, which must contain the pairing and psi
    windows (y <= `cache.reach`).

    Returns (lam, b, diagnostics dict), whose "eps" covers the pairing and
    psi windows at the returned (lambda, b), "jacobian" is the Jacobian last
    used (to carry to the next call) and "jacobian_builds" counts the
    fresh ones.  Raises RuntimeError when the Newton iteration leaves the
    soliton tube: a seed b the profile grid does not resolve, a seed lambda
    whose windows leave the flow grid, or no admissible descent step.
    """
    lam, b = seed
    r_cap = 0.95 * grid.y_max  # u is read on r <= r_cap
    if not resolves(cache.grid, b):
        raise RuntimeError(f"decomposition seed b={b:g} outside the profile grid's range")
    if cache.reach > r_cap / lam:
        raise RuntimeError(f"decomposition window y <= {cache.reach:g} leaves the flow "
                           f"grid at lambda={lam:g}")
    u_eval = _u_eval(grid, u)
    n = cache.n
    field = _field(cache, u_eval, lam, n)
    s1, s2 = _pairing_scales(cache, field)
    eps = field - cache.q_b(b)[:n]
    r1, r2 = _pairings(cache, eps)
    merit = (r1 / s1) ** 2 + (r2 / s2) ** 2

    def update(J):
        """Damped step along J^-1 (r1, r2): the accepted (lam, b, eps, r1,
        r2, merit), or None when the line search rejects every alpha."""
        try:
            dlam, db = np.linalg.solve(J, [r1, r2])
        except np.linalg.LinAlgError:
            raise RuntimeError("decomposition Jacobian is singular")
        dlam = min(max(dlam, -0.2 * lam), 0.2 * lam)
        db = min(max(db, -0.5 * b), 0.5 * b)
        # damped update: the pairing surface is strongly curved in lambda
        for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625):
            lam_t, b_t = lam - alpha * dlam, b - alpha * db
            if not (lam_t > 0 and cache.reach <= r_cap / lam_t
                    and resolves(cache.grid, b_t)):
                continue
            eps_t = _field(cache, u_eval, lam_t, n) - cache.q_b(b_t)[:n]
            r1_t, r2_t = _pairings(cache, eps_t)
            merit_t = (r1_t / s1) ** 2 + (r2_t / s2) ** 2
            if merit_t < merit * (1.0 - 1e-4 * alpha) or merit_t < NEWTON_TOL**2:
                return lam_t, b_t, eps_t, r1_t, r2_t, merit_t
        return None

    carried = J is not None
    builds = 0
    for it in range(1, NEWTON_MAX + 1):
        if abs(r1) <= NEWTON_TOL * s1 and abs(r2) <= NEWTON_TOL * s2:
            break
        trial = update(J) if carried else None
        if trial is None:  # no carried J, or no descent along it
            J = _jacobian(cache, u_eval, lam, b)
            builds += 1
            trial = update(J)
        carried = False
        if trial is None:
            # stalled at the evaluation-noise floor of the pairings
            if abs(r1) <= 1e3 * NEWTON_TOL * s1 and abs(r2) <= 1e3 * NEWTON_TOL * s2:
                break
            raise RuntimeError("decomposition left the soliton tube")
        lam, b, eps, r1, r2, merit = trial
    else:
        raise RuntimeError("decomposition Newton did not converge")
    diag = {
        "res_phi": abs(r1) / s1,
        "res_hphi": abs(r2) / s2,
        "iterations": it,
        "jacobian": J,
        "jacobian_builds": builds,
        "u_eval": u_eval,
        "eps": eps,
    }
    return lam, b, diag


def _jacobian(cache: ProfileMemo, u_eval, lam: float, b: float):
    """Finite-difference Jacobian of the pairings at (lam, b), with Q~_b
    from `cache.q_b`, as in `decompose`.

    The pairings depend on b only through -Q~_b, so the b-column is field
    free: the one-sided difference -(Q~_{b+db} - Q~_b, Phi_M)/db (and the
    same against H Phi_M), the pairings of Q~_b - Q~_{b+db}.  Q~_b, which
    both lambda-columns subtract too, is the one the current point just
    read, so the column costs at most one profile build, and none when the
    lattice serves b + db.
    Being first order, it takes a tenth of the centred step.  The
    lambda-column stays centred: the pairing surface is strongly curved in
    lambda, and one-sided it added Newton iterations while saving no
    profile build.

    Along a trajectory `decompose` reuses this matrix as a chord for the
    next call's first update, and calls here again (one profile build)
    only when that update finds no descent or a second update is needed.
    """
    dl = 1e-6 * lam
    db = 1e-7 * max(b, 1e-4)
    n = cache.pair_n
    q = cache.q_b(b)[:n]
    r1p, r2p = _pairings(cache, _field(cache, u_eval, lam + dl, n) - q)
    r1m, r2m = _pairings(cache, _field(cache, u_eval, lam - dl, n) - q)
    c1, c2 = _pairings(cache, q - cache.q_b(b + db)[:n])
    return np.array([
        [(r1p - r1m) / (2 * dl), c1 / db],
        [(r2p - r2m) / (2 * dl), c2 / db],
    ])


def flow_energies(grid: radial.RadialGrid, eps: np.ndarray, zeta_b: np.ndarray):
    """E1, E2 and the second-localization E2_hat of eps, with zeta_b the
    radiation part of its profile.  Both cover the same prefix of the
    profile grid; they are zero beyond it."""
    n = eps.size
    pad = np.zeros(grid.n - n)
    eps_hat = np.concatenate((eps + zeta_b, pad))
    eps = np.concatenate((eps, pad))
    he = radial.apply_H(grid, eps)
    # keep stencil noise at the coverage edge out
    keep = n if n == grid.n else max(n - 6, 0)
    w = grid.weights * (np.arange(grid.n) < keep)
    _, dy = radial.log_gradient(grid, eps)
    e1 = float(np.dot(w, dy * dy))
    e2 = float(np.dot(w, he**2))
    he_hat = radial.apply_H(grid, eps_hat)
    e2_hat = float(np.dot(w, he_hat**2))
    return e1, e2, e2_hat


def flow_energy(grid: radial.RadialGrid, u: np.ndarray) -> float:
    """Dissipated energy 1/2 int |grad u|^2 - 1/4 int u^4 (r^3 dr measure)."""
    _, du = radial.log_gradient(grid, u)
    return float(np.dot(grid.weights, 0.5 * du * du - 0.25 * u**4))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def init_data(cache: ProfileCache, params: RunConfig):
    """Q_loc(b0) + a+ psi in units of lambda0 (at scale 1), sampled on a
    flow grid of the run's nodes_per_decade."""
    b0, a_plus = params.b0, params.a_plus
    window = admissible_window(b0, 2.0)
    if abs(a_plus) > 10.0 * window:
        warnings.warn(
            f"unstable amplitude {a_plus:g} exceeds 10x the admissible "
            f"window {window:g}", stacklevel=2)
    grid = _flow_grid(Y_MIN_FLOW, _flow_r_max(b0, cache.reach), params.nodes_per_decade)
    y = grid.nodes
    q = localized_profile(b0, cache.grid, cache.grid.n)[0]
    u0 = _u_eval(cache.grid, q + a_plus * cache.eig.psi)
    inside = y <= cache.grid.y_max
    vals = np.empty_like(y)
    vals[inside] = u0(y[inside], grid.t[inside], 1.0)
    vals[~inside] = radial.q_soliton(y[~inside])
    return FlowState(grid=grid, u=vals)


def _extrapolated_seed(grid: radial.RadialGrid, history: list, dt: float, lam: float,
                       b: float) -> tuple:
    """(lam, b) extrapolated linearly in t a step dt past the last two
    decomposed states, `history` = [(lam, b, dt that reached it)] * 2.  The
    last state (lam, b) itself without two states, or when the extrapolation
    leaves lam > 0 or a b the profile grid resolves."""
    if len(history) < 2:
        return lam, b
    (lam_prev, b_prev, _), (_, _, dt_last) = history
    ratio = dt / dt_last
    lam_s, b_s = lam + ratio * (lam - lam_prev), b + ratio * (b - b_prev)
    if lam_s > 0 and resolves(grid, b_s):
        return lam_s, b_s
    return lam, b


def simulate(params: RunConfig, cache: ProfileCache | None = None,
             stop_at_loss: bool = False) -> FlowTrajectory:
    """One PDE run from `init_data`, decomposed after every accepted step.

    It is solved in units of lambda0, from lambda = 1, and then its
    checkpoints' t, lambda and max|u| are scaled by lambda0^2, lambda0 and
    1/lambda0; every other column and count is scale invariant.
    Once the decomposition is lost the run keeps stepping without it, or,
    with `stop_at_loss`, ends at that step as `decomposition_lost`.

    A given `cache` must have been built for the same `M` as `params`, or
    ValueError is raised.  The Newton Jacobian, the seed history and the
    memo's counts live in this call only, and what the cache keeps depends
    on b and M alone, so runs sharing a cache do not depend on each other.
    """
    if cache is None:
        cache = ProfileCache(params)
    elif cache.M != params.M:
        raise ValueError(f"cache built for M={cache.M:g}; the run has M={params.M:g}")
    state = init_data(cache, params)
    grid, u = state.grid, state.u
    lam, b = 1.0, params.b0
    dt = DS_INIT
    t = s = 0.0
    u0_max = umax = float(np.max(np.abs(u)))
    dd = None
    checkpoints = []
    termination = "budget"
    lost_step = None  # the step whose decomposition failed
    rejects = remeshes = 0
    iterations = jacobians = 0
    jac = None  # the last decomposition's Jacobian, carried to the next
    history = []  # decomposed (lam, b, dt that reached it), the last two
    memo = ProfileMemo(cache)  # Q~_b for the decompositions of this run
    kappa = 0.0

    step = 0
    while step < params.max_steps:
        step += 1
        dt = min(dt, DS_CAP * lam**2)
        try:
            u, dt_taken, dt, n_rejects = step_flow(grid, u, umax, dt, params.rtol_step,
                                                   ATOL_STEP)
        except RuntimeError:
            termination = "solver_failure"
            break
        rejects += n_rejects
        t += dt_taken
        umax = float(np.abs(u).max())
        if not math.isfinite(umax) or umax > U_CAP:
            termination = "overflow"
            break

        lam_old = lam
        if lost_step is None:
            seed = _extrapolated_seed(cache.grid, history, dt_taken, lam, b)
            try:
                lam, b, dd = decompose(memo, grid, u, seed, jac)
            except RuntimeError:
                lost_step = step
            else:
                jac = dd["jacobian"]
                iterations += dd["iterations"]
                jacobians += dd["jacobian_builds"]
                history = history[-1:] + [(lam, b, dt_taken)]
        s += dt_taken * 0.5 * (1.0 / lam_old**2 + 1.0 / lam**2)
        if lost_step is not None and stop_at_loss:
            termination = "decomposition_lost"
            break

        if lost_step is None:
            kappa = _kappa(memo, dd["eps"])
            window = admissible_window(b, params.kappa_exit_factor)
            if abs(kappa) > window:
                termination = "exit_plus" if kappa > 0 else "exit_minus"
                break
            if lam <= 1.0 / LAMBDA_DECAY_TARGET:
                termination = "tracked"
                break
            if b <= B_FLOOR_EXIT:
                termination = "b_floor"
                break

        if step % CHECKPOINT_EVERY == 0 or step == 1:
            cp = _make_checkpoint(cache, step, t, s, grid, u, umax, lam, b, kappa,
                                  lost_step is None, dd)
            checkpoints.append(cp)
            if cp.E < E_OF_Q and umax < u0_max / DISSIPATION_DROP:
                termination = "dissipated"
                break

        if lam < (grid.y_min / Y_MIN_FLOW) / 2.0:
            grid, u = _remesh(params, grid, u, lam)
            umax = float(np.max(np.abs(u)))
            remeshes += 1

    checkpoints.append(_make_checkpoint(cache, step, t, s, grid, u, umax, lam, b, kappa,
                                        lost_step is None, None))
    lambda0 = params.lambda0
    checkpoints = [replace(c, t=c.t * (lambda0 * lambda0), lam=c.lam * lambda0,
                           u_max=c.u_max / lambda0) for c in checkpoints]
    traj = FlowTrajectory(
        params=params, checkpoints=checkpoints, termination=termination,
        classification=None, steps=step,
        step_rejects=rejects, decompose_lost_step=lost_step,
        newton_iterations=iterations, jacobian_builds=jacobians,
        profile_builds=len(memo.read), profile_serves=memo.serves, remeshes=remeshes,
    )
    traj.classification = classify(traj)
    return traj


def _make_checkpoint(cache, step, t, s, grid, u, umax, lam, b, kappa, decomposed, dd):
    if not decomposed:
        e1 = e2 = e2h = np.nan
        res1 = res2 = np.nan
    else:
        # one evaluation and one exact profile build over the covered
        # prefix, which holds both windows
        u_eval = dd["u_eval"] if dd else _u_eval(grid, u)
        n = _covered(cache, lam, grid.y_max)
        field = _field(cache, u_eval, lam, n)
        q, zeta = localized_profile(b, cache.grid, n)
        eps = field - q
        e1, e2, e2h = flow_energies(cache.grid, eps, zeta)
        kappa = _kappa(cache, eps)
        r1, r2 = _pairings(cache, eps)
        s1, s2 = _pairing_scales(cache, field)
        res1, res2 = abs(r1) / s1, abs(r2) / s2
    return Checkpoint(
        step=step, t=t, s=s, lam=lam, b=b, kappa=kappa,
        E=flow_energy(grid, u), E1=e1, E2=e2, E2_hat=e2h,
        u_max=umax, res_phi=res1, res_hphi=res2,
        decomposed=decomposed,
    )


def _remesh(params: RunConfig, grid: radial.RadialGrid, u, lam):
    """Rebuild the grid in the self-similar variable once lambda halves."""
    new = _flow_grid(Y_MIN_FLOW * lam, grid.y_max, params.nodes_per_decade)
    return new, _u_eval(grid, u)(new.nodes, new.t, 1.0)


# ---------------------------------------------------------------------------
# classification, diagnostics, shooting
# ---------------------------------------------------------------------------


def classify(traj: FlowTrajectory) -> RunClass:
    if traj.termination == "exit_plus":
        return RunClass.ExitUnstablePlus
    if traj.termination == "exit_minus":
        return RunClass.ExitUnstableMinus
    if traj.termination == "dissipated":
        return RunClass.Dissipation
    if traj.termination in ("tracked", "b_floor") and \
            traj.series("lam")[-1] <= traj.params.lambda0 / LAMBDA_DECAY_TARGET:
        return RunClass.TypeII_tracking
    return RunClass.GridExhausted


def modulation_residuals(traj: FlowTrajectory) -> dict:
    """Centered-difference residuals of the two modulation laws in s, and
    the two tracked bootstrap ratios at the same checkpoints.

    Only checkpoints with a live decomposition enter; once the run leaves
    the soliton tube the frozen (lambda, b) carry no information.  Fewer
    than five of them give no residual: every array is then empty, under
    the same six keys.
    """
    live = [c for c in traj.checkpoints if c.decomposed]
    if len(live) < 5:
        live = []
    s = np.array([c.s for c in live])
    lam = np.array([c.lam for c in live])
    b = np.array([c.b for c in live])
    ds = s[2:] - s[:-2]
    ok = ds > 0
    dlog_lam = (np.log(lam[2:]) - np.log(lam[:-2]))[ok] / ds[ok]
    b_s = (b[2:] - b[:-2])[ok] / ds[ok]
    b_mid = b[1:-1][ok]
    lb = np.array([log_binv(x) for x in b_mid])
    e2 = np.array([c.E2 for c in live])[1:-1][ok]
    kappa = np.array([c.kappa for c in live])[1:-1][ok]
    return {"s": s[1:-1][ok], "lam_res": dlog_lam + b_mid,
            "b_res": b_s + b_mid**2 * (1.0 + 2.0 / lb), "b_mid": b_mid,
            "E2_ratio": e2 / (b_mid**2 * lb**5),
            "kappa_ratio": np.abs(kappa) * lb / b_mid**2.5}


def lyapunov_series(traj: FlowTrajectory) -> dict:
    """Monitored monotone quantity E2_hat/lam^2.

    Returns "t" and "E2hat_over_lam2" over the checkpoints with a finite
    E2_hat.
    """
    t = traj.series("t")
    lam = traj.series("lam")
    e2h = traj.series("E2_hat")
    good = np.isfinite(e2h)
    t, lam, e2h = t[good], lam[good], e2h[good]
    return {"t": t, "E2hat_over_lam2": e2h / lam**2}


@dataclass
class ShootingResult:
    bracket: tuple
    iterations: int
    best: FlowTrajectory
    history: list


def _exit_sign(traj: FlowTrajectory) -> int:
    """+1 / -1 for an unstable exit on the focusing / dispersing side, else 0."""
    return _EXIT_SIGN.get(traj.classification, 0)


def _probe(params: RunConfig, cache: ProfileCache, a: float) -> FlowTrajectory:
    """One shooting run at amplitude a, with the window warning silenced.

    It ends where its decomposition is lost: after that it can no longer
    exit, and its last kappa and smallest lambda, which are all `shoot`
    reads of a run that does not exit, stay frozen."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate(replace(params, a_plus=a), cache=cache, stop_at_loss=True)


def shoot(params: RunConfig, cache: ProfileCache | None = None) -> ShootingResult:
    """Bisect the unstable amplitude `params.budget` times between
    opposite-sign exits.

    The bracket is (`params.bracket_lo`, `params.bracket_hi`), whose runs
    must exit on opposite sides, or ValueError is raised.  When either is
    NaN, a symmetric bracket is grown from the admissible window until its
    exits have opposite signs, and the two runs that closed it are its ends.
    The admissible window of the continuous problem is far smaller than the
    actual unstable threshold at moderate b (the profile residual forces
    the unstable mode at a rate that scales with the radiation constant),
    so a workable bracket typically sits several orders above the window.
    """
    cache = cache or ProfileCache(params)
    if np.isnan(params.bracket_lo) or np.isnan(params.bracket_hi):
        window = admissible_window(params.b0, 2.0)
        a = window
        while a <= BRACKET_MAX_FACTOR * window:
            lo_traj, hi_traj = _probe(params, cache, -a), _probe(params, cache, +a)
            if _exit_sign(lo_traj) * _exit_sign(hi_traj) == -1:
                break
            a *= BRACKET_GROW
        else:
            raise RuntimeError("no opposite-sign bracket found within the cap")
    else:
        lo_traj = _probe(params, cache, params.bracket_lo)
        hi_traj = _probe(params, cache, params.bracket_hi)
        if _exit_sign(lo_traj) * _exit_sign(hi_traj) != -1:
            raise ValueError(
                f"bracket endpoints classify as {lo_traj.classification} / "
                f"{hi_traj.classification}; need opposite unstable exits")
    if _exit_sign(lo_traj) > 0:
        lo_traj, hi_traj = hi_traj, lo_traj
    a_lo, a_hi = lo_traj.params.a_plus, hi_traj.params.a_plus
    best = max([lo_traj, hi_traj], key=lambda tr: tr.lambda_decay)
    history = [(a_lo, a_hi)]
    it = 0
    for it in range(1, params.budget + 1):
        mid = 0.5 * (a_lo + a_hi)
        if mid in (a_lo, a_hi):
            break  # bracket at floating point resolution
        traj = _probe(params, cache, mid)
        if traj.lambda_decay > best.lambda_decay:
            best = traj
        # a run without an unstable exit sides with the sign of its last kappa
        if (_exit_sign(traj) or (1 if traj.series("kappa")[-1] >= 0 else -1)) > 0:
            a_hi = mid
        else:
            a_lo = mid
        if traj.classification is RunClass.TypeII_tracking:
            break
        history.append((a_lo, a_hi))
        if abs(a_hi - a_lo) < 1e-12 * max(abs(a_lo), abs(a_hi)):
            break
    return ShootingResult(bracket=(a_lo, a_hi), iterations=it, best=best,
                          history=history)

