"""Profile construction, radiation, localized bundles, and the residual."""

import gc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from blowlab import profiles, radial

from conftest import (RADIATION_OFFSET, T1_FAR_CONSTANT, l2_window,
                      radiation_mass_exact, resonance_mass, same_bits, whole_profile)

SWEEP = (1e-2, 3e-3, 1e-3, 3e-4)


def test_zone_radii():
    b0, b1 = profiles.zone_radii(1e-4)
    assert b0 == 100.0
    assert abs(b1 - np.log(1e4) * 100.0) < 1e-9


def test_T1_defining_equation(grid, fine_grid):
    errs = []
    for g in (grid, fine_grid):
        t1 = profiles._t1_parts(g)[0]
        res = radial.apply_H(g, t1) + radial.lambda_q(g.nodes)
        errs.append(l2_window(g, res))
    assert np.log2(errs[0] / errs[1]) > 1.7


def test_T1_asymptote_and_origin(grid):
    t1 = profiles._t1_parts(grid)[0]
    y = grid.nodes
    i = np.searchsorted(y, 1e3)
    # the constructed far field is -4 (log y - c_inf): the analytic constant
    # follows from the mass asymptotics of the resonance and Gamma's tail
    assert abs(t1[i] / (-4.0 * (np.log(y[i]) - T1_FAR_CONSTANT)) - 1.0) < 2e-3
    # the often-quoted constant 1/2 does not match this normalization
    assert abs(t1[i] / (-4.0 * (np.log(y[i]) - 0.5)) - 0.656) < 5e-3
    assert abs(t1[0]) <= 0.2 * y[0] ** 2


def test_T1_far_field_closed_forms(fine_grid):
    """The closed forms behind the far-field constants of T1 and c_b."""
    for y in np.logspace(-2, 4, 13):
        ref = quad(lambda s: radial.lambda_q(s) ** 2 * s**3, 0.0, y,
                   epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert abs(resonance_mass(y) / ref - 1.0) < 1e-10, y
    # log y + T1/4 approaches c_inf from below; the leading gap is 48 log^2 y / y^2
    t1 = profiles._t1_parts(fine_grid)[0]
    i = np.searchsorted(fine_grid.nodes, 1e3)
    y = fine_grid.nodes[i]
    gap = T1_FAR_CONSTANT - (np.log(y) + t1[i] / 4.0)
    assert 0.0 < gap < 48.0 * np.log(y) ** 2 / y**2
    # the exact radiation mass is 32 |log b| + K_inf up to O(b)
    lb = np.log(1e30)
    assert abs(radiation_mass_exact(1e-30) - (32.0 * lb + RADIATION_OFFSET)) < 1e-9


def test_radiation_constants_and_plateaus(grid):
    t1 = profiles._t1_parts(grid)[0]
    y = grid.nodes
    expected_c = {1e-2: 59.947, 1e-3: 2.3676, 1e-4: 0.69853}
    for b, c_ref in expected_c.items():
        sigma, c_b, d_b = profiles.radiation_sigma(b, grid, grid.n)
        assert abs(c_b / c_ref - 1.0) < 1e-3, f"c_b drifted at b={b}"
        assert d_b < 0
        b0 = b**-0.5
        inner = y <= b0 / 4.0
        outer = y >= 6.0 * b0
        scale = np.max(np.abs(sigma[inner])) + 1e-30
        # inner plateau is exactly -c_b T1, outer exactly 64 Gamma
        assert np.max(np.abs(sigma[inner] + c_b * t1[inner])) < 1e-10 * max(scale, 1.0)
        assert np.max(np.abs(sigma[outer] - 64.0 * radial.gamma_growing(y[outer]))) < 1e-8


def test_radiation_rejects_bad_b(grid):
    with pytest.raises(ValueError):
        whole_profile(0.2, grid)  # b beyond b*
    with pytest.raises(ValueError):
        profiles.radiation_sigma(1e-9, grid, grid.n)  # 6*B0 beyond the grid


def test_a_prefix_build_keeps_its_bits_wherever_it_ends(grid):
    # c_b and d_b pair over the whole grid: over a prefix that ends just past
    # B0/2, where chi_{B0/4} ends, the BLAS dot grouped the same terms
    # differently and c_b or d_b moved in their last bits.  zeta_b is
    # elementwise in alpha, so its prefix keeps its bits too
    for b in (1e-2, 1e-3, 3e-4):
        full = whole_profile(b, grid)
        k = int(np.count_nonzero(grid.nodes < 0.5 * b**-0.5))
        for n in (64, k - 3, k + 1, k + 5, k + 17, grid.n):
            prefix = profiles.localized_profile(b, grid, n)
            for part, whole in zip(prefix, full):
                assert same_bits(part, whole[:n])


def test_T2_T3_defining_equations_and_bounds(grid, fine_grid):
    b = 1e-3
    grids = (grid, fine_grid)
    # (c_b, d_b, sigma2, sigma3, (T2, T2'), (T3, T3'), alpha, chi_{B1} alpha)
    orders = [profiles._corrections(b, g, g.n) for g in grids]
    for k in (0, 1):  # H T2 = sigma2, then H T3 = sigma3
        errs = [l2_window(g, radial.apply_H(g, c[4 + k][0]) - c[2 + k])
                for g, c in zip(grids, orders)]
        assert np.log2(errs[0] / errs[1]) > 1.5
    (T2, _), (T3, _) = orders[0][4:6]
    y = grid.nodes
    lb = profiles.log_binv(b)
    small = y <= 1.0
    assert np.max(np.abs(T2[small]) / y[small] ** 4) < 0.02
    mid = (y >= 1.0) & (y <= 2.0 * profiles.zone_radii(b)[1])
    assert np.max(np.abs(T2[mid])) * b * lb < 40.0
    bound3 = y[mid] ** 6 / (1.0 + y[mid] ** 4) / (b * lb)
    assert np.max(np.abs(T3[mid]) / bound3) < 5.0


def test_localized_profile_invariants_on_a_prefix(grid):
    # on a prefix that ends inside the chi_{B1} transition and on one past
    # it, Q~_b is Q + alpha inside B1 and Q from 2 B1 on, and zeta_b is the
    # correction between the two localization radii
    b = 1e-3
    B0, B1 = profiles.zone_radii(b)
    assert B0 == b**-0.5
    assert B1 == profiles.log_binv(b) * b**-0.5
    for end in (1.5 * B1, 3.0 * B1):
        n = int(np.count_nonzero(grid.nodes <= end))
        q, zeta = profiles.localized_profile(b, grid, n)
        assert q.shape == zeta.shape == (n,)
        alpha = profiles._corrections(b, grid, n)[-2]
        y = grid.nodes[:n]
        inner = y <= B1
        outer = y >= 2.0 * B1
        assert np.array_equal(q[inner], radial.q_soliton(y[inner]) + alpha[inner])
        assert np.array_equal(q[outer], radial.q_soliton(y[outer]))
        shell = radial.cutoff(B1, y) - radial.cutoff(B0, y)
        assert np.max(np.abs(zeta - shell * alpha)) < 1e-16
        assert np.all(zeta[y <= B0] == 0.0)
        assert np.all(zeta[outer] == 0.0)
        assert outer.any() == (end > 2.0 * B1)


def test_grid_caches_compute_only_on_a_miss(monkeypatch):
    g = radial.make_grid(1e-4, 4000.0, 1024)
    calls = {}
    for name in ("lambda_q", "gamma_growing", "_panel_moments"):
        def counted(*args, _f=getattr(radial, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args)
        monkeypatch.setattr(radial, name, counted)
    rhs = np.exp(-g.nodes)
    first, _ = radial.solve_H_with_derivative(g, rhs)
    second, _ = radial.solve_H_with_derivative(g, rhs)
    # the grid computed its panel moments when make_grid built it
    assert calls == {"lambda_q": 1, "gamma_growing": 1}
    assert np.array_equal(first, second)


def test_assemble_rejects_small_grid():
    g = radial.make_grid(1e-4, 50.0, 256)
    with pytest.raises(ValueError):
        whole_profile(1e-4, g)


def test_zeta_b_norm_sweep(grid):
    # sup bounds with C = 2 and the weighted H, H^2 controls with C = 6
    for b in SWEEP:
        lb = profiles.log_binv(b)
        z = whole_profile(b, grid)[1]
        hz = radial.apply_H(grid, z)
        h2z = radial.apply_H(grid, hz)
        assert np.max(np.abs(z)) ** 2 < 20.0 * b**2 * lb**2
        assert np.dot(grid.weights, hz * hz) / (b**2 * lb**2) < 3000.0
        assert np.dot(grid.weights, h2z * h2z) / (b**4 * lb**6) < 600.0


def test_error_report_masks_and_variants(grid):
    b = 1e-3
    rep = profiles.error_Psi(b, grid)
    assert rep.norm_H > 0 and rep.norm_w8 > 0 and rep.norm_H2 > 0
    assert np.isfinite(rep.flux_ratio)
    # the residual's own build gives the radiation constants of the sweep
    assert same_bits((rep.c_b, rep.d_b), profiles.radiation_sigma(b, grid, grid.n)[1:])
    small = radial.make_grid(1e-4, 100.0, 512)
    with pytest.raises(ValueError):
        profiles.error_Psi(1e-3, small)
    with pytest.raises(ValueError):
        profiles.error_Psi(0.2, grid)  # b beyond b*


@pytest.mark.parametrize("b, M", [(0.04, 50.0), (1e-3, 10.0), (1e-4, 50.0)])
def test_error_report_keeps_the_bits_of_the_whole_grids_residual(grid, b, M):
    # error_Psi forms Psi_tilde on the prefix its sums read, zero beyond;
    # the report is the one the whole grid's residual gives, where 2M
    # (b = 0.04) or 2 B1 (the others) bounds what is read
    rep = profiles.error_Psi(b, grid, M=M)
    c_b, d_b, psi = profiles._psi_values(b, grid, grid.n)
    y, w = grid.nodes, grid.weights * (grid.nodes <= 2.0 * profiles.zone_radii(b)[1])
    h_psi = radial.apply_H(grid, psi)
    h2_psi = radial.apply_H(grid, h_psi)
    phi = profiles.direction_phi(M, grid)
    whole = (c_b, d_b, float(np.dot(w, h_psi**2)), float(np.dot(w, psi**2 / (1.0 + y**8))),
             float(np.dot(w, h2_psi**2)),
             float(np.dot(grid.weights, h_psi * phi.Phi_M)) / phi.pair_lambda_q)
    assert same_bits((rep.c_b, rep.d_b, rep.norm_H, rep.norm_w8, rep.norm_H2,
                      rep.flux_ratio), whole)


def test_residual_norms_sweep_and_slope(grid):
    """Frozen weighted-norm ratios across the b-sweep (tilde variant).

    The b = 1e-2 member is degenerate (the radiation window B0/4 = 2.5 sits
    below the zero of the resonance at sqrt(8)), which inflates every ratio
    there; the three smaller members are mutually stable.
    """
    rows = {}
    for b in SWEEP:
        rep = profiles.error_Psi(b, grid)
        lb = profiles.log_binv(b)
        rows[b] = (rep.norm_H / (b**4 * lb**2), rep.norm_w8 / b**6,
                   rep.norm_H2 * lb**2 / b**6)
    for k, window in ((0, 2.5), (1, 3.0), (2, 6.0)):
        vals = [rows[b][k] for b in SWEEP[1:]]
        assert max(vals) / min(vals) < window, f"ratio {k} unstable: {vals}"
    assert rows[1e-2][0] / rows[3e-3][0] > 5.0  # the degenerate member sticks out
    nh = np.array([rows[b][0] * b**4 * profiles.log_binv(b) ** 2 for b in SWEEP[1:]])
    slope = np.polyfit(np.log(SWEEP[1:]), np.log(nh / np.array(
        [profiles.log_binv(b) ** 2 for b in SWEEP[1:]])), 1)[0]
    assert abs(slope - 4.0) < 0.35


def test_residual_norms_grid_converged(grid, fine_grid):
    a = profiles.error_Psi(1e-3, grid)
    b = profiles.error_Psi(1e-3, fine_grid)
    assert abs(a.norm_H / b.norm_H - 1.0) < 0.02
    assert abs(a.norm_H2 / b.norm_H2 - 1.0) < 0.1


def test_direction_phi(grid):
    for m in (50.0, 100.0):
        phi = profiles.direction_phi(m, grid)
        t1 = profiles._t1_parts(grid)[0]
        scale = np.sqrt(phi.norm_sq) * l2_window(grid, t1, 2 * m)
        pair_t1 = float(np.dot(grid.weights, phi.Phi_M * t1))
        assert abs(pair_t1) < 1e-10 * scale
        y = grid.nodes
        assert np.all(phi.Phi_M[y > 2.0 * m] == 0.0)
        assert phi.norm_sq / np.log(m) < 150.0
    # (Lambda Q, Phi_M)/(64 log M): slow logarithmic approach to 1; frozen
    phi = profiles.direction_phi(1e3, grid)
    assert 0.70 < phi.pair_lambda_q / (64.0 * np.log(1e3)) < 0.78
    with pytest.raises(ValueError):
        profiles.direction_phi(3000.0, grid)


def test_flux_ratio_values(grid):
    """Frozen flux ratios at M = 50.

    The asymptotic -2 b^2/|log b| is approached only logarithmically and
    from below; at these b the measured plateau sits near -4, and the
    b = 1e-2 member is degenerate.
    """
    vals = {}
    for b in (3e-3, 1e-3, 3e-4):
        vals[b] = profiles.error_Psi(b, grid, M=50.0).flux_ratio * profiles.log_binv(b) / b**2
        assert vals[b] < 0  # strictly negative leading term
    assert abs(vals[3e-3] + 6.06) < 0.3
    assert abs(vals[1e-3] + 3.68) < 0.2
    assert abs(vals[3e-4] + 4.00) < 0.2


def test_profile_builds_keep_only_b_independent_values_on_the_grid():
    # the localized profile and the residual build what they read at b (and
    # the residual at b +- db) and keep none of it: after each call, at
    # either b, the grid holds the same b-independent keys
    g = radial.make_grid(1e-4, 4e3, 1024)
    keys = []
    for b in (1e-3, 2e-3):
        profiles.error_Psi(b, g)
        keys.append(set(g.cache))
        profiles.localized_profile(b, g, g.n)
        keys.append(set(g.cache))
    assert all(k == {"T1_parts", "order_sources", "phi_directions"} for k in keys)


def test_a_finished_grid_needs_no_cyclic_collector():
    # nothing a build keeps on the grid refers back to it, so dropping the
    # grid frees it and its cache by reference counting alone
    g = radial.make_grid(1e-4, 4e3, 1024)
    alive = weakref.ref(g)
    gc.disable()
    try:
        profiles.localized_profile(1e-3, g, g.n)
        profiles.error_Psi(1e-3, g)
        del g
        assert alive() is None
    finally:
        gc.enable()
