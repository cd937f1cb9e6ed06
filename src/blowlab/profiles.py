"""Construction of the approximate blow-up profiles and their residual.

The profile family Q_b = Q + b T1 + b^2 T2 + b^3 T3 is generated order by
order by inverting H with the variation-of-parameters formula.  The order-b^2
right-hand side acquires a constant tail at infinity which no decaying
correction can remove; the radiation Sigma_b absorbs it by spreading the
inversion of Lambda Q over the parabolic zone, at the price of a log-small
flux that ultimately drives the b-modulation law.

Sign conventions are fixed so the three defining identities hold exactly:
the order-b coefficient of the residual vanishes (H T1 = -Lambda Q), the
order-b^2 coefficient equals -Sigma_b (H T2 = Sigma_2 with
Sigma_2 = -Sigma_b - y T1' + 3 Q T1^2, which decays at infinity), and the
order-b^3 coefficient vanishes (H T3 = Sigma_3 with
Sigma_3 = T2 - y T2' + 6 Q T1 T2 + T1^3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radial import (
    RadialGrid,
    apply_H,
    cutoff,
    cutoff_laplacian,
    lambda_q,
    lambda_q_prime,
    q_soliton,
    solve_H_with_derivative,
)

B_STAR_DEFAULT = 0.05
M_DEFAULT = 50.0
DB_REL = 1e-3  # relative step of the residual's centred b-difference


def log_binv(b: float) -> float:
    """|log b| as log(1/b), guarded away from the float floor."""
    return float(np.log(1.0 / max(b, 1e-300)))


def zone_radii(b: float) -> tuple[float, float]:
    """(B0, B1) = (1/sqrt b, |log b|/sqrt b)."""
    rb = b ** -0.5
    return rb, log_binv(b) * rb


def resolves(grid: RadialGrid, b: float) -> bool:
    """Whether `grid` carries the localized profiles at b: 0 < b < b* and
    4 B1(b) <= y_max."""
    return 0.0 < b < B_STAR_DEFAULT and 4.0 * zone_radii(b)[1] <= grid.y_max


# ---------------------------------------------------------------------------
# first-order profile, cached per grid
# ---------------------------------------------------------------------------


def _t1_parts(grid: RadialGrid):
    """(T1, T1') with H T1 + Lambda Q = 0 and T1 vanishing at the origin."""
    key = "T1_parts"
    if key not in grid.cache:
        grid.cache[key] = solve_H_with_derivative(grid, -grid.zero_modes[0])
    return grid.cache[key]


def _order_sources(grid: RadialGrid):
    """The b-independent terms of a build, once per grid: (Q, y T1',
    3 Q T1^2, 6 Q T1, T1^3), each formed in the operation order of the
    sums Sigma_2 and Sigma_3 they enter, so every build keeps its bits."""
    key = "order_sources"
    if key not in grid.cache:
        y = grid.nodes
        Q = q_soliton(y)
        T1, T1p = _t1_parts(grid)
        grid.cache[key] = (Q, y * T1p, 3.0 * Q * T1 * T1, 6.0 * Q * T1, T1**3)
    return grid.cache[key]


# ---------------------------------------------------------------------------
# radiation
# ---------------------------------------------------------------------------


def radiation_sigma(b: float, grid: RadialGrid, n: int):
    """Radiation (Sigma_b, c_b, d_b), with Sigma_b on the first n nodes.

    c_b = 64 / int chi_{B0/4} (Lambda Q)^2 normalizes the far field to 64
    Gamma; d_b cancels the Lambda Q tail so the identity Sigma_b = 64 Gamma
    holds exactly beyond 6 B0.  On the inner plateau y <= B0/4 the formula
    reproduces -c_b T1 exactly.  The two pairings run over the whole grid
    whatever n is: chi_{B0/4} vanishes from B0/2 on, but a BLAS dot over
    a prefix may group the same terms differently, so c_b and d_b would
    depend on n in their last bits.
    """
    B0, _ = zone_radii(b)
    if grid.y_max < 6.0 * B0:
        raise ValueError("grid must cover 6*B0 for the radiation")
    lq, _, gm, _ = grid.zero_modes
    chi = cutoff(B0 / 4.0, grid.nodes)
    denom = float(np.dot(grid.weights, chi * lq * lq))
    c_b = 64.0 / denom
    d_b = c_b * float(np.dot(grid.weights, chi * lq * gm))
    lq = lq[:n]
    core = solve_H_with_derivative(grid, c_b * chi[:n] * lq)[0]
    tail = d_b * (1.0 - cutoff(3.0 * B0, grid.nodes[:n])) * lq
    return core + tail, c_b, d_b


# ---------------------------------------------------------------------------
# higher profiles and the assembled set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileSet:
    """What the flow reads of the profile at one b, on grid.nodes.

    Q_b_tilde = Q + chi_{B1} alpha is the localized profile and
    zeta_b = (chi_{B1} - chi_{B0}) alpha its radiation part, with
    alpha = b T1 + b^2 T2 + b^3 T3 the profile correction.  The residual
    builds the orders it reads itself (see _psi_values).
    """

    Q_b_tilde: np.ndarray
    zeta_b: np.ndarray


def assemble_profiles(b: float, grid: RadialGrid,
                      b_star: float = B_STAR_DEFAULT) -> ProfileSet:
    """The profile set at one value of b.

    The grid keeps the last set it built: every reader rereads the set of
    the b it used just before, or builds a new one."""
    key = (float(b), b_star)
    memo = grid.cache.get("profile_sets")
    if memo is not None and key in memo:
        return memo[key]
    _require_resolved(b, grid)
    pset = _build_profiles(b, grid)
    grid.cache["profile_sets"] = {key: pset}
    return pset


def localized_profile(b: float, grid: RadialGrid, n: int) -> np.ndarray:
    """Q~_b on the first n nodes of the grid, and nothing else of its set.

    The set the grid keeps (see assemble_profiles) is sliced when it is at
    b.  Otherwise the three H^-1 solves, the radiation's Sigma_b and the
    chi_{B1} localization run on the n nodes alone.  A value at a node
    reads only the nodes up to it and the constants c_b and d_b, so the
    bits are those of assemble_profiles(b, grid).Q_b_tilde[:n] for any n.
    """
    kept = grid.cache.get("profile_sets", {}).get((float(b), B_STAR_DEFAULT))
    if kept is not None:
        return kept.Q_b_tilde[:n]
    _require_resolved(b, grid)
    return _order_sources(grid)[0][:n] + _corrections(b, grid, n)[-1]


def _require_resolved(b: float, grid: RadialGrid) -> None:
    if not resolves(grid, b):
        raise ValueError(f"grid y_max={grid.y_max:g} does not resolve b={b:g}; "
                         f"need 0 < b < {B_STAR_DEFAULT} and 4*B1(b) <= y_max")


def _corrections(b: float, grid: RadialGrid, n: int):
    """The order-b^2 and order-b^3 solves at b on the first n nodes, and
    the correction they give: (c_b, d_b, sigma2, sigma3, (T2, T2'),
    (T3, T3'), alpha, chi_{B1} alpha).  The one implementation of both
    orders, for a whole set, a prefix and the residual alike."""
    y = grid.nodes[:n]
    T1 = _t1_parts(grid)[0][:n]
    _, y_t1p, q3_t1t1, q6_t1, t1_cube = (part[:n] for part in _order_sources(grid))
    sigma, c_b, d_b = radiation_sigma(b, grid, n)

    # order b^2: the radiation absorbs the O(1) tail of -y T1'
    sigma2 = -sigma - y_t1p + q3_t1t1
    T2, T2p = solve_H_with_derivative(grid, sigma2)

    # order b^3: no further radiation is needed
    sigma3 = T2 - y * T2p + q6_t1 * T2 + t1_cube
    T3, T3p = solve_H_with_derivative(grid, sigma3)

    alpha = b * T1 + b * b * T2 + b**3 * T3
    return c_b, d_b, sigma2, sigma3, (T2, T2p), (T3, T3p), alpha, \
        cutoff(zone_radii(b)[1], y) * alpha


def _build_profiles(b: float, grid: RadialGrid) -> ProfileSet:
    """The profile set at b, built afresh and kept nowhere."""
    alpha, a_t = _corrections(b, grid, grid.n)[-2:]
    return ProfileSet(Q_b_tilde=_order_sources(grid)[0] + a_t,
                      zeta_b=a_t - cutoff(zone_radii(b)[0], grid.nodes) * alpha)


# ---------------------------------------------------------------------------
# residual of the profile under the rescaled flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorReport:
    b: float
    c_b: float
    d_b: float
    norm_H: float
    norm_w8: float
    norm_H2: float
    flux_ratio: float


def _psi_values(b: float, grid: RadialGrid):
    """(c_b, d_b, Psi_tilde): the radiation constants at b and the residual
    Psi_tilde of the chi_{B1}-localized profile under b_s = -b^2,
    lambda_s/lambda = -b.

    It builds the orders it reads and lets them go on return: alpha, its
    derivative alpha' = b T1' + b^2 T2' + b^3 T3' from the closed forms of
    the variation-of-parameters inverse (never from grid differencing), and
    the exact right-hand sides H T2 = Sigma2, H T3 = Sigma3.
    The -b^2 d/db term is a centered finite difference of the localized
    correction chi_{B1} alpha, which picks up the cutoff and radiation
    b-derivatives.  The O(1) pieces are cancelled algebraically before
    evaluation: with alpha the profile correction and H alpha known exactly
    from the defining equations, b Lambda Q_b - Delta Q_b - Q_b^3 collapses
    to b Lambda alpha + b^2 Sigma2 + b^3 Sigma3 - 3 Q alpha^2 - alpha^3 plus
    the cutoff commutators.  Assembling the small remainder directly keeps
    the roundoff floor proportional to the local residual, which the
    fourth-order weighted norms require.
    """
    y = grid.nodes
    c_b, d_b, sigma2, sigma3, (_, T2p), (_, T3p), alpha, _ = _corrections(b, grid, grid.n)
    alpha_p = b * _t1_parts(grid)[1] + b * b * T2p + b**3 * T3p
    B1 = zone_radii(b)[1]
    Q = q_soliton(y)
    order23 = b * b * sigma2 + b**3 * sigma3
    lam_alpha = alpha + y * alpha_p
    chi = cutoff(B1, y)
    chi_p = cutoff(B1, y, 1)
    lap_chi = cutoff_laplacian(B1, y)
    loc_alpha = chi * alpha
    db = DB_REL * b
    lo = _corrections(b - db, grid, grid.n)[-1]
    hi = _corrections(b + db, grid, grid.n)[-1]
    dloc_db = (hi - lo) / (2.0 * db)
    return c_b, d_b, (
        b * (1.0 - chi) * grid.zero_modes[0]
        + b * chi * lam_alpha
        + b * y * chi_p * alpha
        + chi * order23
        - 2.0 * chi_p * alpha_p
        - alpha * lap_chi
        - 3.0 * Q * loc_alpha**2
        - loc_alpha**3
        - b * b * dloc_db
    )


def error_Psi(b: float, grid: RadialGrid, M: float = M_DEFAULT) -> ErrorReport:
    """Weighted norms of the residual Psi_tilde on y <= 2 B1, plus the flux
    (H Psi_tilde, Phi_M) / (Lambda Q, Phi_M) and the radiation constants
    c_b, d_b.  Nothing is left on the grid's profile memo."""
    _require_resolved(b, grid)
    y = grid.nodes
    c_b, d_b, psi = _psi_values(b, grid)
    h_psi = apply_H(grid, psi)
    h2_psi = apply_H(grid, h_psi)
    mask = y <= 2.0 * zone_radii(b)[1]
    w = grid.weights * mask
    norm_H = float(np.dot(w, h_psi**2))
    norm_w8 = float(np.dot(w, psi**2 / (1.0 + y**8)))
    norm_H2 = float(np.dot(w, h2_psi**2))
    phi = direction_phi(M, grid)
    flux = float(np.dot(grid.weights, h_psi * phi.Phi_M)) / phi.pair_lambda_q
    return ErrorReport(b=float(b), c_b=c_b, d_b=d_b, norm_H=norm_H, norm_w8=norm_w8,
                       norm_H2=norm_H2, flux_ratio=float(flux))


# ---------------------------------------------------------------------------
# orthogonality direction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionPhi:
    Phi_M: np.ndarray
    H_Phi_M: np.ndarray
    pair_lambda_q: float
    norm_sq: float
    H_norm_sq: float
    pair_H: float  # (H Phi_M, Phi_M)


def h_of_cutoff_lambda_q(M: float, y: np.ndarray) -> np.ndarray:
    """H(chi_M Lambda Q) in closed form; supported in [M, 2M]."""
    return -lambda_q(y) * cutoff_laplacian(M, y) - 2.0 * cutoff(M, y, 1) * lambda_q_prime(y)


def direction_phi(M: float, grid: RadialGrid) -> DirectionPhi:
    """Phi_M = chi_M Lambda Q - c_M H(chi_M Lambda Q), orthogonal to T1."""
    cache: dict = grid.cache.setdefault("phi_directions", {})
    if M in cache:
        return cache[M]
    if grid.y_max < 2.0 * M:
        raise ValueError("grid must cover 2*M for the localized direction")
    y = grid.nodes
    t1 = _t1_parts(grid)[0]
    s = cutoff(M, y) * lambda_q(y)
    hs = h_of_cutoff_lambda_q(M, y)
    denom = float(np.dot(grid.weights, hs * t1))
    numer = float(np.dot(grid.weights, s * t1))
    if abs(denom) < 1e-12 * max(abs(numer), 1.0):
        raise ValueError(f"degenerate localization radius M={M}")
    c_M = numer / denom
    phi = s - c_M * hs
    h_phi = hs - c_M * apply_H(grid, hs)
    direction = DirectionPhi(
        Phi_M=phi,
        H_Phi_M=h_phi,
        pair_lambda_q=float(np.dot(grid.weights, phi * lambda_q(y))),
        norm_sq=float(np.dot(grid.weights, phi**2)),
        H_norm_sq=float(np.dot(grid.weights, h_phi * h_phi)),
        pair_H=float(np.dot(grid.weights, h_phi * phi)),
    )
    cache[M] = direction
    return direction
