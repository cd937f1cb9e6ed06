"""Grid, quadrature, closed forms, the operator H, and its inverse."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded
from scipy.special import gammainc

from blowlab import flow, radial
from blowlab.config import RunConfig

from conftest import (cumulative_integral_one_lane, l2_window, neg_laplacian_by_diagonal,
                      same_bits, whole_profile)


# ---------------------------------------------------------------------------
# grid and quadrature
# ---------------------------------------------------------------------------


def test_weight_rule_integrates_the_measure_exactly():
    g = radial.make_grid(1e-4, 1e4, 4096)
    total = np.sum(g.weights)
    assert abs(total / (1e16 / 4.0) - 1.0) < 1e-10


def test_make_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        radial.make_grid(1.0, 0.5, 4096)
    with pytest.raises(ValueError):
        radial.make_grid(1e-4, 1e4, 32)


def test_grid_invariants():
    g = radial.make_grid(1e-3, 100.0, 256)
    assert np.all(np.diff(g.nodes) > 0) and g.nodes[0] > 0
    assert np.all(g.weights > 0)
    # node density increases toward the origin
    assert np.diff(g.nodes)[0] < np.diff(g.nodes)[-1]


def test_radial_writes_nothing_into_the_grid_cache():
    # what the nodes alone determine is a grid attribute: grid.cache holds
    # only the profile module's memos
    g = radial.make_grid(1e-4, 4000.0, 1024)
    f = np.exp(-g.nodes)
    radial.solve_H_with_derivative(g, f)
    radial.apply_H(g, f)
    radial.neg_laplacian_rows(g)
    radial.cumulative_integral(g, f, g.zero_modes[::2], (0.0, 0.0))
    assert g.cache == {}


def test_refinement_is_second_order():
    exact = 6.0 * (gammainc(4, 100.0) - gammainc(4, 1e-3))
    errs = []
    for n in (1024, 2048):
        g = radial.make_grid(1e-3, 100.0, n)
        val = np.dot(g.weights, np.exp(-g.nodes))
        errs.append(abs(val - exact))
    assert errs[0] / errs[1] > 3.9


def test_quadrature_stable_on_smooth_decaying_integrand(grid, fine_grid):
    def q4(g):
        return np.dot(g.weights, radial.q_soliton(g.nodes) ** 4)

    a, b = q4(grid), q4(fine_grid)
    assert abs(a - b) / abs(b) < 1e-3


def test_localized_resonance_mass_vs_logarithm(grid):
    # int chi_M (Lambda Q)^2 grows like 64 log M, with a large finite-size
    # deficit: the constant -141.2 - transition makes it ~27% low at M=1e3
    y = grid.nodes
    m = 1e3
    val = np.dot(grid.weights, radial.cutoff(m, y) * radial.lambda_q(y) ** 2)
    assert 0.70 < val / (64.0 * np.log(m)) < 0.76


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_static_values():
    assert radial.q_soliton(0.0) == 1.0
    assert radial.potential(0.0) == 3.0
    assert abs(radial.gamma_growing(np.sqrt(8.0)) + 0.25) < 1e-14
    assert abs(radial.gamma_growing(1e6) - 1.0 / 16.0) < 1e-8
    assert radial.lambda_q(0.0) == 1.0


def test_wronskian_identity():
    # y^3 (Gamma (Lambda Q)' - Gamma' Lambda Q) = 1, from the closed forms
    y = np.logspace(-3, 3, 100)
    w = y**3 * (
        radial.gamma_growing(y) * radial.lambda_q_prime(y)
        - radial.gamma_growing_prime(y) * radial.lambda_q(y)
    )
    assert np.max(np.abs(w - 1.0)) < 1e-8


def test_gamma_series_matches_closed_form_near_origin():
    y = np.array([1e-3, 3e-3, 1e-2])
    series = 1.0 / (2 * y**2) + radial.GAMMA_LOG_COEFF * np.log(y) + radial.GAMMA_CONST0
    exact = radial.gamma_growing(y)
    assert np.max(np.abs(series / exact - 1.0)) < 1e-7


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------


def test_cutoff_plateau_and_support():
    assert radial.cutoff(5.0, 4.0) == 1.0
    assert radial.cutoff(5.0, 12.0) == 0.0
    mid = radial.cutoff(5.0, 7.5)
    assert 0.0 < mid < 1.0


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=100.0))
def test_cutoff_monotone_with_c2_joins(scale):
    y = np.linspace(0.5 * scale, 2.5 * scale, 2001)
    vals = radial.cutoff(scale, y)
    # monotone up to Horner-evaluation noise of the high-degree step
    assert np.all(np.diff(vals) <= 1e-11)
    # second derivative is continuous (zero) at both joins
    h = 1e-5 * scale
    for joint in (scale, 2 * scale):
        inner = radial.cutoff(scale, joint - h, 2)
        outer = radial.cutoff(scale, joint + h, 2)
        assert abs(inner - outer) < 1e-6 / scale**2


def _clipped_smoothstep(x, order=0):
    """The smoothstep as first written: clip to [0, 1], then evaluate the
    polynomial on every node."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    if order == 0:
        return x**7 * (
            1716.0
            + x * (-9009.0 + x * (20020.0 + x * (-24024.0
                  + x * (16380.0 + x * (-6006.0 + 924.0 * x)))))
        )
    inside = (x > 0.0) & (x < 1.0)
    out = np.zeros_like(x)
    xi = x[inside]
    if order == 1:
        out[inside] = 12012.0 * (xi * (1.0 - xi)) ** 6
    else:
        out[inside] = 72072.0 * (xi * (1.0 - xi)) ** 5 * (1.0 - 2.0 * xi)
    return out


@pytest.mark.parametrize("y_max, n", [(4000.0, 3072), (1e21, 16384)])
def test_cutoff_matches_the_clipped_polynomial_bit_for_bit(y_max, n):
    # evaluating only the transition leaves every value and derivative as
    # the clipped form gives it, the joins x = 0 and x = 1 included
    y = radial.make_grid(1e-4, y_max, n).nodes
    for scale in (0.3, 4.56, 55.0, 1e3, 1e8):
        x = y / scale - 1.0
        for order in (0, 1, 2):
            assert np.array_equal(radial._smoothstep(x, order),
                                  _clipped_smoothstep(x, order)), (scale, order)
        assert np.array_equal(radial.cutoff(scale, y),
                              1.0 - _clipped_smoothstep(x))
    assert _clipped_smoothstep(1.0) == 1.0


def test_cutoff_of_a_scalar_is_a_scalar():
    for y in (4.0, 5.0, 7.5, 10.0, 12.0):
        x = y / 5.0 - 1.0
        for order in (0, 1, 2):
            value = radial.cutoff(5.0, y, order)
            assert isinstance(value, float) and np.ndim(value) == 0
            expected = (1.0 - _clipped_smoothstep(x) if order == 0
                        else -_clipped_smoothstep(x, order) / 5.0**order)
            assert value == expected


# ---------------------------------------------------------------------------
# the operator and its inverse
# ---------------------------------------------------------------------------


def test_log_gradient_is_second_order():
    # Q'(y) = -(y/4)/(1 + y^2/8)^2; the interior error quarters per halving
    errs = []
    for n in (1024, 2048, 4096):
        g = radial.make_grid(1e-3, 100.0, n)
        y = g.nodes
        _, dq = radial.log_gradient(g, radial.q_soliton(y))
        exact = -(y / 4.0) / (1.0 + y**2 / 8.0) ** 2
        errs.append(np.max(np.abs(dq - exact)[1:-1]))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders >= 1.8) & (orders <= 2.2))


def _apply_H_by_closed_form_potential(grid, v):
    # apply_H with V evaluated from its closed form on every call
    y = grid.nodes
    ep, em, _, inv, _ = grid.stencil
    V = radial.potential(y)
    out = np.empty_like(v)
    out[1:-1] = -inv * (
        ep * (v[2:] - v[1:-1]) - em * (v[1:-1] - v[:-2])
    )
    out[0] = -8.0 * (v[1] - v[0]) / (y[1] ** 2 - y[0] ** 2)
    h = grid.h
    ftt = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    ft = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    out[-1] = -(ftt + 2.0 * ft) / y[-1] ** 2
    return out - V * v


def test_grid_kernels_match_their_reference_forms_bit_for_bit():
    # log_gradient reads numpy's non-uniform coefficients from the grid and
    # apply_H reads V from it: on the profile grid, a flow grid and the two
    # suite grids both give what np.gradient and the closed form give
    grids = [
        flow.ProfileCache(RunConfig(command="simulate")).grid,
        flow._flow_grid(flow.Y_MIN_FLOW, 4321.0, 120),
        radial.make_grid(1e-3, 400.0, 4096),
        radial.make_grid(1e-3, 400.0, 8192),
    ]
    rng = np.random.default_rng(11)
    for g in grids:
        y = g.nodes
        for v in (radial.q_soliton(y), np.exp(-y / 7.0) * np.cos(y),
                  rng.normal(size=g.n)):
            vt, vy = radial.log_gradient(g, v)
            ref = np.gradient(v, g.t)
            assert same_bits(vt, ref)
            assert same_bits(vy, ref / y)
            assert same_bits(radial.apply_H(g, v), _apply_H_by_closed_form_potential(g, v))
        assert same_bits(g.V, radial.potential(y))


def test_apply_H_annihilates_the_resonance(grid, fine_grid):
    errs = []
    for g in (grid, fine_grid):
        res = radial.apply_H(g, radial.lambda_q(g.nodes))
        errs.append(l2_window(g, res) / l2_window(g, radial.lambda_q(g.nodes)))
    assert errs[0] < 5e-6
    order = np.log2(errs[0] / errs[1])
    assert order > 1.8


def test_apply_H_on_the_bubble(grid, fine_grid):
    errs = []
    for g in (grid, fine_grid):
        hq = radial.apply_H(g, radial.q_soliton(g.nodes))
        target = -2.0 * radial.q_soliton(g.nodes) ** 3
        errs.append(l2_window(g, hq - target))
    assert np.log2(errs[0] / errs[1]) > 1.8
    zero = radial.apply_H(grid, np.zeros(grid.n))
    assert np.all(zero == 0.0)


def test_neg_laplacian_bands_match_apply_H(grid):
    # one -Delta for the profile grid and the flow grid: the tridiagonal
    # rows and the flux form of apply_H differ only by their summation order
    flow_grid = flow._flow_grid(0.02, 300.0, 120)
    for g in (grid, flow_grid):
        y = g.nodes
        f = (1.0 + y**2) * np.exp(-(y**2) / 50.0)
        rows, factors = radial.neg_laplacian_rows(g)
        dl, d, du = radial.diagonals(rows * factors)
        bf = d * f
        bf[:-1] += du * f[1:]
        bf[1:] += dl * f[:-1]
        ref = radial.apply_H(g, f) + radial.potential(y) * f
        inv = 1.0 / (y**2 * g.h * g.h)
        bound = 16.0 * np.finfo(float).eps * inv * np.max(np.abs(f))
        assert np.all(np.abs(bf - ref)[:-1] <= bound[:-1])
    # the flow grid's weights integrate the measure r^3 dr exactly too
    total = np.sum(flow_grid.weights)
    exact = (flow_grid.y_max**4 - flow_grid.y_min**4) / 4.0
    assert abs(total / exact - 1.0) < 1e-10


def test_neg_laplacian_rows_keep_the_bits_of_each_diagonal():
    # (scale * rows) * factors gives each diagonal's bits, on the profile
    # grid and the 561-node march flow grid
    cache = flow.ProfileCache(RunConfig(command="simulate"))
    march = flow._flow_grid(flow.Y_MIN_FLOW, flow._flow_r_max(0.01, cache.reach), 120)
    assert march.n == 561
    for g in (cache.grid, march):
        rows, factors = radial.neg_laplacian_rows(g)
        for scale in (1.0, 1e-13, 1e-3, 0.5):
            diags = radial.diagonals((scale * rows) * factors)
            for ours, ref in zip(diags, neg_laplacian_by_diagonal(g, scale)):
                assert same_bits(ours, ref)


def test_dirichlet_system_is_the_symmetrized_step_matrix():
    # on the march flow grid, a remeshed one, the profile grid and a grid
    # of 24 decades: W is finite and positive, it symmetrizes -Delta's
    # bands to a few ulps, and the symmetric product is W (I + h(-Delta)) x
    # on the n - 1 rows below the Dirichlet node
    cache = flow.ProfileCache(RunConfig(command="simulate"))
    march = flow._flow_grid(flow.Y_MIN_FLOW, flow._flow_r_max(0.01, cache.reach), 120)
    remeshed, _ = flow._remesh(RunConfig(command="simulate", nodes_per_decade=120), march,
                               radial.q_soliton(march.nodes), 0.4996)
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    for g in (march, remeshed, cache.grid, radial.make_grid(1e-12, 1e12, 64)):
        w, wd, we, c = g.dirichlet_system
        m = g.n - 1
        assert w.shape == wd.shape == (m,) and we.shape == (m - 1,)
        assert np.all(np.isfinite(w)) and np.all(w > 0)
        rows, factors = radial.neg_laplacian_rows(g)
        dl, d, du = radial.diagonals(rows * factors)
        assert np.all(np.abs(w[1:] * dl[:m - 1] - we) <= 4 * eps * np.abs(we))
        for _ in range(8):
            x = rng.normal(size=g.n)
            h = 10.0 ** rng.uniform(-8, 0)
            sym = (w + h * wd) * x[:m]
            sym[:-1] += h * we * x[1:m]
            sym[1:] += h * we * x[:m - 1]
            sym[-1] += h * c * x[m]
            ref = x[:m] + h * (d[:m] * x[:m] + du * x[1:])
            ref[1:] += h * dl[:m - 1] * x[:m - 1]
            size = np.abs(x[:m]) + h * (np.abs(d[:m] * x[:m]) + np.abs(du * x[1:]))
            size[1:] += h * np.abs(dl[:m - 1] * x[:m - 1])
            assert np.all(np.abs(sym - w * ref) <= 1e-14 * w * size)


def test_unstable_mode_keeps_no_rows_on_its_grid():
    # the flow step reads a grid's symmetrized system at every trial and
    # keeps it; the eigenmode reads -Delta's rows once, so the profile and
    # suite grids hold neither (74 KB of system on the 3,072-node profile
    # grid)
    cache = flow.ProfileCache(RunConfig(command="simulate"))
    assert cache.grid.n == 3072 and "dirichlet_system" not in vars(cache.grid)


def test_apply_H_is_symmetric(grid):
    y = grid.nodes
    f = np.exp(-((y - 3.0) ** 2)) * y**2
    g_ = np.exp(-((y - 5.0) ** 2))
    w = grid.weights
    lhs = np.dot(w, radial.apply_H(grid, f) * g_)
    rhs = np.dot(w, f * radial.apply_H(grid, g_))
    scale = np.sqrt(np.dot(w, f * f) * np.dot(w, g_ * g_))
    assert abs(lhs - rhs) <= 1e-8 * scale


def test_solve_H_roundtrip(grid, fine_grid):
    errs = []
    for g in (grid, fine_grid):
        y = g.nodes
        rhs = np.exp(-np.minimum(y, 30.0) ** 2)
        u, _ = radial.solve_H_with_derivative(g, rhs)
        errs.append(l2_window(g, radial.apply_H(g, u) - rhs))
    assert errs[0] < 1e-4
    assert np.log2(errs[0] / errs[1]) > 1.7


def _integrands(y):
    """f for the running-integral tests: smooth and decaying, and a cutoff
    times Lambda Q, exactly zero beyond the cutoff's support."""
    return np.exp(-y) * np.cos(3.0 * y), radial.cutoff(10.0, y) * radial.lambda_q(y)


def test_two_lane_integrals_keep_the_bits_of_one_lane_each():
    # the real and imaginary lanes of one clongdouble sum each add as a
    # longdouble sum alone, on the profile grid and on any prefix of it
    grid = flow.ProfileCache(RunConfig(command="shoot", b0=3e-3)).grid
    assert grid.n == 3072
    lq, _, gm, _ = grid.zero_modes
    for f in _integrands(grid.nodes):
        for n in (1, 2, 64, 2527, grid.n):
            series = radial._series_heads(grid, float(f[0]))
            for heads in (series, (0.0, 0.0), (-1.5, 2.0**-40)):
                got = radial.cumulative_integral(grid, f[:n], (lq[:n], gm[:n]), heads)
                assert got.shape == (2, n)
                for row, mode, head in zip(got, (lq, gm), heads):
                    want = cumulative_integral_one_lane(grid, f[:n] * mode[:n], head)
                    assert same_bits(row, want), (n, head)


def test_running_integrals_are_within_an_ulp_of_the_exact_prefix_sums():
    # each output is the exact sum of the float64 panel increments and the
    # head to within 1 ulp; a float64 (complex128) accumulation misses this
    grid = radial.make_grid(1e-4, 100.0, 600)
    left, right = grid.panels
    lq, _, gm, _ = grid.zero_modes
    for f in _integrands(grid.nodes):
        heads = radial._series_heads(grid, float(f[0]))
        got = radial.cumulative_integral(grid, f, (lq, gm), heads)
        for row, mode, head in zip(got, (lq, gm), heads):
            g = f * mode
            inc = (left * g[:-1] + right * g[1:]).tolist()
            exact = np.array([math.fsum([head] + inc[:k]) for k in range(grid.n)])
            assert np.all(np.abs(row - exact) <= np.spacing(np.abs(exact)))


def test_unstable_mode(grid, fine_grid, eigenpair):
    zeta, psi = eigenpair.zeta, eigenpair.psi
    assert zeta > 0
    # eigenvalue stable under refinement
    zeta_fine = radial.unstable_mode(fine_grid).zeta
    assert abs(zeta - zeta_fine) / zeta_fine < 1e-2
    # frozen reference value for this operator (derived; two-grid stable)
    assert abs(zeta - 0.58608) < 2e-4
    # residual, normalization, orthogonality, decay, sign
    res = radial.apply_H(grid, psi) + zeta * psi
    assert np.sqrt(np.dot(grid.weights, res**2)) / zeta < 1e-5
    assert abs(np.dot(grid.weights, psi * psi) - 1.0) < 1e-12
    lq = radial.lambda_q(grid.nodes)
    ortho = abs(np.dot(grid.weights, psi * lq))
    assert ortho < 1e-6 * np.sqrt(np.dot(grid.weights, psi * psi)) * l2_window(grid, lq)
    psi_fine = radial.unstable_mode(fine_grid).psi
    lq_fine = radial.lambda_q(fine_grid.nodes)
    assert abs(np.dot(fine_grid.weights, psi_fine * lq_fine)) < 0.5 * ortho
    assert abs(psi[-1]) < 1e-8 * np.max(np.abs(psi))
    assert psi[0] > 0


def _banded_unstable_mode(grid):
    """Reference: unstable_mode's shifted inverse iteration with each solve
    through solve_banded on (1, 1) band storage, the form it replaced."""
    h, y = grid.h, grid.nodes
    ep, em = np.exp(h), np.exp(-h)
    c = (1.0 / (y**2 * h * h))[1:-1]
    banded = np.zeros((3, grid.n))
    banded[0, 2:] = -c * ep
    banded[1, 1:-1] = c * (ep + em)
    banded[2, :-2] = -c * em
    c0 = 8.0 / (y[1] ** 2 - y[0] ** 2)
    banded[0, 1] = -c0
    banded[1, 0] = c0
    banded[1] -= radial.potential(y)
    banded[1, -1] = 1.0
    w = grid.weights

    def matvec(x):
        out = banded[1] * x
        out[:-1] += banded[0][1:] * x[1:]
        out[1:] += banded[2][:-1] * x[:-1]
        return out

    x = np.exp(-y)
    x /= np.sqrt(np.dot(w, x * x))
    sigma, best, stale = radial.EIG_SHIFT, np.inf, 0
    for it in range(radial.EIG_MAX_ITER):
        shifted = banded.copy()
        shifted[1] -= sigma
        shifted[1, -1] = 1.0
        x_new = solve_banded((1, 1), shifted, x)
        x_new[-1] = 0.0
        x = x_new / np.sqrt(np.dot(w, x_new * x_new))
        ax = matvec(x)
        mu = np.dot(w, x * ax)
        res = np.sqrt(np.dot(w, (ax - mu * x) ** 2))
        if it >= 8:
            sigma = mu
        if res <= radial.EIG_TOL * max(abs(mu), 1.0):
            break
        if res < best * 0.9:
            best, stale = res, 0
        else:
            stale += 1
            if stale >= 4 and res <= 1e-7 * max(abs(mu), 1.0):
                break
    return float(-mu), (-x if x[0] < 0 else x)


def test_unstable_mode_matches_the_banded_solve_bit_for_bit():
    grid = flow.ProfileCache(RunConfig(command="simulate")).grid
    zeta, psi = _banded_unstable_mode(grid)
    pair = radial.unstable_mode(grid)
    assert pair.zeta == zeta
    assert np.array_equal(pair.psi, psi)


def test_unstable_mode_retries_a_singular_shift(grid, eigenpair, monkeypatch):
    # gtsv's info > 0 (an exactly zero pivot) nudges the shift and retries
    gtsv = radial._gtsv
    calls = []

    def singular_once(*args):
        calls.append(1)
        out = gtsv(*args)
        return out[:4] + (1,) if len(calls) == 1 else out

    monkeypatch.setattr(radial, "_gtsv", singular_once)
    fresh = radial.make_grid(grid.y_min, grid.y_max, grid.n)
    pair = radial.unstable_mode(fresh)
    assert len(calls) > 1
    assert abs(pair.zeta - eigenpair.zeta) <= 1e-9 * eigenpair.zeta
    assert np.max(np.abs(pair.psi - eigenpair.psi)) < 1e-6


# ---------------------------------------------------------------------------
# cubic spline
# ---------------------------------------------------------------------------


def test_cubic_spline_matches_scipy_bit_for_bit():
    # on a flow grid's log nodes, at the queries a decomposition makes, at
    # every knot and mid-panel, and beyond both ends
    from scipy.interpolate import CubicSpline

    params = RunConfig(command="simulate")
    cache = flow.ProfileCache(params)
    u = flow.init_data(cache, params).u
    x = np.log(flow.init_data(cache, params).grid.nodes)
    ours, theirs = radial.CubicSpline(radial.SplineFrame(x), u), CubicSpline(x, u)
    rng = np.random.default_rng(7)
    queries = [np.log(lam * cache.grid.nodes[:cache.pair_n])
               for lam in np.exp(rng.uniform(np.log(0.3), np.log(1.5), 20))]
    queries.append(np.concatenate([x, x[:-1] + 0.5 * np.diff(x),
                                   [x[0] - 1.0, x[-1] + 1.0, -np.inf]]))
    with np.errstate(invalid="ignore"):  # -inf gives NaN in both
        for q in queries:
            assert same_bits(ours(q, np.empty_like(q)), theirs(q))
    # splines on the profile grid, as init_data builds for Q~_b0 + a+ psi
    for values in (whole_profile(params.b0, cache.grid)[0], cache.eig.psi):
        q = np.log(rng.uniform(0.02, cache.grid.y_max, 500))
        ours = radial.CubicSpline(cache.grid.spline_frame, values)
        assert same_bits(ours(q, np.empty_like(q)), CubicSpline(cache.grid.t, values)(q))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
def test_cubic_spline_matches_scipy_on_uneven_knots(n, seed):
    # knots far from uniform send queries through the searched-interval path
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(1e-3, 2.0, n))
    y = rng.normal(size=n)
    q = rng.uniform(x[0] - 1.0, x[-1] + 1.0, 200)
    ours = radial.CubicSpline(radial.SplineFrame(x), y)
    assert same_bits(ours(q, np.empty_like(q)), CubicSpline(x, y)(q))


def test_cubic_spline_needs_four_knots():
    with pytest.raises(ValueError, match="4 knots"):
        radial.SplineFrame(np.arange(3.0))


@pytest.mark.parametrize("n", [64, 605, 3072])
def test_spline_frame_slopes_have_the_bits_of_gtsv(n):
    # a spline on a grid solves its not-a-knot slopes with the gttrs of the
    # frame's one gttrf factor: the bits gtsv gives on the whole system,
    # and then scipy's coefficients, for random values
    from scipy.interpolate import CubicSpline

    grid = radial.make_grid(1e-2, 3e2, n)
    x = grid.t
    dx = np.diff(x)
    rng = np.random.default_rng(n)
    for _ in range(5):
        y = rng.normal(size=n)
        slope = np.diff(y) / dx
        d = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        du = np.concatenate(([x[2] - x[0]], dx[:-1]))
        dl = np.concatenate((dx[1:], [x[-1] - x[-3]]))
        rhs = np.concatenate((
            [((dx[0] + 2 * du[0]) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / du[0]],
            3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
            [(dx[-1] ** 2 * slope[-2] + (2 * dl[-1] + dx[-1]) * dx[-2] * slope[-1]) / dl[-1]]))
        s = radial.tridiagonal_solve(dl, d, du, rhs)
        spl = radial.CubicSpline(grid.spline_frame, y)
        assert spl.frame is grid.spline_frame
        assert same_bits(spl.coeffs[2], s[:-1])
        assert same_bits(spl.coeffs, CubicSpline(x, y).c)


def test_a_grids_spline_frame_lives_and_dies_with_the_grid():
    # every spline on a grid shares the one frame the grid holds, and
    # nothing else keeps the frame once the grid and its splines are gone
    grid = radial.make_grid(1e-2, 3e2, 200)
    first = radial.CubicSpline(grid.spline_frame, np.sin(grid.nodes))
    second = radial.CubicSpline(grid.spline_frame, np.cos(grid.nodes))
    assert first.frame is second.frame is grid.spline_frame
    frame = weakref.ref(grid.spline_frame)
    del first, second, grid
    gc.collect()
    assert frame() is None
