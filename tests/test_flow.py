"""PDE flow, decomposition, classification, and shooting mechanics."""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from blowlab import flow, profiles, radial
from blowlab.config import B_FLOOR, RunConfig
from blowlab.flow import RunClass

from conftest import ExactProfileCache, same_bits, whole_profile


@pytest.fixture(scope="module")
def params():
    return RunConfig(command="simulate", b0=1e-3, nodes_per_decade=100,
                     kappa_exit_factor=1e5, max_steps=4000)


@pytest.fixture(scope="module")
def cache(params):
    return ExactProfileCache(params)


def synthetic_state(cache, lam, b, delta=0.0, shape=None):
    g = flow._flow_grid(flow.Y_MIN_FLOW * lam, 30.0 * lam * flow.zone_radii(b)[1], 100)
    y = g.nodes / lam
    qt = CubicSpline(cache.grid.t, whole_profile(b, cache.grid)[0])
    inside = y <= cache.grid.y_max
    vals = np.where(inside, qt(np.log(np.minimum(y, cache.grid.y_max))),
                    radial.q_soliton(y))
    if delta:
        shape = shape if shape is not None else np.exp(-(y**2)) * y**2
        vals = vals + delta * shape
    return g, vals / lam


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_stationary_bubble_drift(cache):
    lam = 0.5
    g = flow._flow_grid(0.02 * lam, 300.0, 120)
    u = radial.q_soliton(g.nodes / lam) / lam
    u0 = u.copy()
    t, dt = 0.0, 1e-3 * lam**2
    while t < 1.0:
        u, taken, dt, _ = flow.step_flow(g, u, np.max(np.abs(u)), min(dt, 1.0 - t), 1e-5, 1e-9)
        t += taken
    drift = np.max(np.abs(u - u0)) / np.max(np.abs(u0))
    # pure O(h^2) quasi-steady offset at this resolution
    assert drift < 1e-3

    g2 = flow._flow_grid(0.02 * lam, 300.0, 240)
    u2 = radial.q_soliton(g2.nodes / lam) / lam
    u20, t, dt = u2.copy(), 0.0, 1e-3 * lam**2
    while t < 1.0:
        u2, taken, dt, _ = flow.step_flow(g2, u2, np.max(np.abs(u2)), min(dt, 1.0 - t), 1e-5, 1e-9)
        t += taken
    drift2 = np.max(np.abs(u2 - u20)) / np.max(np.abs(u20))
    assert drift2 < 0.35 * drift  # second-order in the mesh


def test_step_flow_fixed_step_time_order():
    # rtol = 1e30 accepts every trial step, so dt stays fixed; the accepted
    # solution (two half steps) converges at first order in dt
    g = flow._flow_grid(0.01, 50.0, 100)
    u0 = radial.q_soliton(g.nodes) + 0.05 * np.exp(-(g.nodes**2))

    def run(n):
        u, dt = u0, 0.05 / n
        for _ in range(n):
            u, taken, _, _ = flow.step_flow(g, u, np.max(np.abs(u)), dt, 1e30, flow.ATOL_STEP)
            assert taken == dt
        return u

    ref = run(6400)
    errs = np.array([np.max(np.abs(run(n) - ref)) for n in (25, 50, 100, 200)])
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all((0.9 <= orders) & (orders <= 1.1)), orders


def test_small_data_dissipates():
    g = flow._flow_grid(0.01, 50.0, 100)
    u = 0.01 * np.exp(-(g.nodes**2))
    t, dt = 0.0, 1e-4
    peaks = [np.max(np.abs(u))]
    energies = [flow.flow_energy(g, u)]
    while t < 2.0:
        u, taken, dt, _ = flow.step_flow(g, u, np.max(np.abs(u)), dt, 1e-5, 1e-12)
        t += taken
        peaks.append(np.max(np.abs(u)))
        energies.append(flow.flow_energy(g, u))
    assert all(np.diff(peaks) <= 1e-12)
    assert all(np.diff(energies) <= 1e-12)


def test_step_keeps_the_boundary_value():
    # the last row of the implicit system is the identity, so the Dirichlet
    # value at r_max is the incoming u[-1], bit for bit, at every step
    g = flow._flow_grid(0.01, 50.0, 100)
    u = radial.q_soliton(g.nodes / 0.5) / 0.5 + 0.1 * np.exp(-(g.nodes**2))
    boundary, dt = u[-1], 1e-4
    for _ in range(200):
        u_new, _, dt, _ = flow.step_flow(g, u, np.max(np.abs(u)), dt, 1e-5, 1e-9)
        assert u_new[-1] == u[-1]
        u = u_new
    assert u[-1] == boundary


def _banded_step(grid, u, dt, rtol, atol):
    """Reference step: each substep solves I + dt(-Delta) on all n rows,
    the last the identity, through solve_banded on (1, 1) band storage,
    with its own bands and none of step_flow's symmetric form."""
    def bands(scale):
        h, y = grid.h, grid.nodes
        ep, em = np.exp(h), np.exp(-h)
        c = scale * (1.0 / (y**2 * h * h))[1:-1]
        out = np.zeros((3, grid.n))
        out[0, 2:] = -c * ep
        out[1, 1:-1] = c * (ep + em)
        out[2, :-2] = -c * em
        c0 = scale * (8.0 / (y[1] ** 2 - y[0] ** 2))
        out[0, 1] = -c0
        out[1, 0] = c0
        return out

    def substep(v, dt):
        rhs = v + dt * v**3
        rhs[-1] = v[-1]
        banded = bands(dt)
        banded[1] += 1.0
        return solve_banded((1, 1), banded, rhs)

    rejects = 0
    while True:
        full = substep(u, dt)
        half = substep(substep(u, 0.5 * dt), 0.5 * dt)
        err = float(np.max(np.abs(half - full))) / (atol + rtol * np.max(np.abs(u)))
        if not np.isfinite(err):
            err = 1e6
        if err <= 1.0:
            factor = min(2.0, max(0.3, 0.9 / np.sqrt(max(err, 1e-12))))
            return half, dt, dt * factor, rejects
        rejects += 1
        dt *= max(0.1, 0.9 / np.sqrt(err))


def _per_step_deviation(grid, u, dt, steps):
    """From each state step_flow reaches, one step_flow step against one
    _banded_step step from that same state and dt: the largest |u - v| over
    max|u| and relative |dt| difference, and the rejects.  The two solve
    one system in different forms, so only roundoff parts them; the error
    estimate divides full - half by rtol max|u|, which magnifies it in the
    step sizes."""
    worst_u = worst_dt = 0.0
    total_rejects = 0
    for _ in range(steps):
        u_max = float(np.max(np.abs(u)))
        got = flow.step_flow(grid, u, u_max, dt, 1e-5, flow.ATOL_STEP)
        ref = _banded_step(grid, u, dt, 1e-5, flow.ATOL_STEP)
        assert got[3] == ref[3]  # the same trials are rejected
        assert got[0][-1] == u[-1]  # the Dirichlet value keeps its bits
        worst_u = max(worst_u, float(np.max(np.abs(got[0] - ref[0]))) / u_max)
        worst_dt = max(worst_dt, abs(got[1] / ref[1] - 1.0), abs(got[2] / ref[2] - 1.0))
        total_rejects += got[3]
        u, dt = got[0], got[2]
    return worst_u, worst_dt, total_rejects


def test_step_flow_matches_the_banded_solve_per_step(params, cache):
    # two flow grids, 500 steps each, from simulate's first step size and
    # from one the controller must cut
    st = flow.init_data(cache, flow.replace(params, b0=0.01))
    g2 = flow._flow_grid(0.01, 50.0, 100)
    u2 = radial.q_soliton(g2.nodes / 0.5) / 0.5 + 0.1 * np.exp(-(g2.nodes**2))
    total_rejects = 0
    for grid, u0, dt0 in ((st.grid, st.u, flow.DS_INIT), (g2, u2, 1e-2)):
        worst_u, worst_dt, rejects = _per_step_deviation(grid, u0, dt0, 500)
        assert worst_u <= 1e-11 and worst_dt <= 1e-6, (worst_u, worst_dt)
        total_rejects += rejects
    assert total_rejects > 0  # the reject path is compared too


def test_step_flow_matches_the_banded_solve_on_the_march_grid(params, cache):
    # 2,000 steps on the 561-node march grid (b0 = 0.01) from the step
    # size simulate starts with
    st = flow.init_data(cache, flow.replace(params, b0=0.01, nodes_per_decade=120))
    assert st.grid.n == 561
    worst_u, worst_dt, rejects = _per_step_deviation(st.grid, st.u, flow.DS_INIT, 2000)
    assert worst_u <= 1e-11 and worst_dt <= 1e-6, (worst_u, worst_dt)
    assert rejects > 0  # the reject path is compared too


def test_each_trial_factors_dt_and_dt_half_once_and_substitutes_three_times(monkeypatch):
    # a trial step: one dt factorization and its substitution, one dt/2
    # factorization and its two substitutions, and no pivoting LU
    g = flow._flow_grid(0.01, 50.0, 100)
    u = radial.q_soliton(g.nodes / 0.5) / 0.5 + 0.1 * np.exp(-(g.nodes**2))
    calls = dict.fromkeys(("spd_factor", "spd_substitute", "lu_factor", "lu_substitute"), 0)

    def counting(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in calls:
        monkeypatch.setattr(radial, name, counting(name, getattr(radial, name)))
    for dt in (1e-4, 1e-2):
        calls.update(dict.fromkeys(calls, 0))
        rejects = flow.step_flow(g, u, np.max(np.abs(u)), dt, 1e-5, 1e-9)[3]
        trials = rejects + 1
        assert calls == {"spd_factor": 2 * trials, "spd_substitute": 3 * trials,
                         "lu_factor": 0, "lu_substitute": 0}
    assert rejects > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_flow_rejects_a_non_finite_state_at_once(monkeypatch, bad):
    g = flow._flow_grid(0.01, 50.0, 100)
    u = radial.q_soliton(g.nodes / 0.5) / 0.5
    u[100] = bad
    calls = []
    for name in ("spd_factor", "spd_substitute", "lu_factor", "lu_substitute"):
        monkeypatch.setattr(radial, name, lambda *a: calls.append(1))
    with pytest.raises(RuntimeError, match="non-finite"):
        flow.step_flow(g, u, np.max(np.abs(u)), 1e-4, 1e-5, 1e-9)
    assert not calls


def test_step_flow_counts_a_non_finite_substep_as_a_reject(monkeypatch):
    g = flow._flow_grid(0.01, 50.0, 100)
    u = radial.q_soliton(g.nodes / 0.5) / 0.5
    expected = flow.step_flow(g, u, np.max(np.abs(u)), 1e-4 * 0.1, 1e-5, 1e-9)
    # the first trial's mid step comes back NaN
    substitute = radial.spd_substitute
    calls = []

    def nan_first(*args):
        calls.append(1)
        x = substitute(*args)
        return np.full_like(x, np.nan) if len(calls) == 1 else x

    monkeypatch.setattr(radial, "spd_substitute", nan_first)
    u_new, taken, dt_next, rejects = flow.step_flow(g, u, np.max(np.abs(u)), 1e-4, 1e-5, 1e-9)
    # err = 1e6 shrinks dt by the floor factor 0.1
    assert rejects == 1 and taken == 1e-4 * 0.1
    assert np.array_equal(u_new, expected[0]) and dt_next == expected[2]


def test_overflowing_state_ends_in_a_solver_failure(monkeypatch):
    # u^3 overflows at any dt: the step fails before any trial solve
    g = flow._flow_grid(0.01, 50.0, 100)
    u = radial.q_soliton(g.nodes / 0.5) / 0.5
    u[100] = 1e110
    calls = []
    for name in ("spd_factor", "spd_substitute", "lu_factor", "lu_substitute"):
        monkeypatch.setattr(radial, name, lambda *a: calls.append(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and without an overflow warning
        with pytest.raises(RuntimeError, match="overflowing"):
            flow.step_flow(g, u, np.max(np.abs(u)), 1e-4, 1e-5, 1e-9)
    assert not calls


def test_singular_implicit_system_ends_the_run_classified(params, cache, monkeypatch):
    g = flow._flow_grid(0.01, 50.0, 100)
    u = radial.q_soliton(g.nodes / 0.5) / 0.5
    # pttrf reports a matrix that is not positive definite with info > 0;
    # the step's dt factorization and its dt/2 factorization each end it
    pttrf = radial._pttrf
    for failing in (1, 2):
        calls = []

        def fails_once(d, e, *overwrite):
            calls.append(1)
            return (d, e, 1) if len(calls) == failing else pttrf(d, e, *overwrite)

        monkeypatch.setattr(radial, "_pttrf", fails_once)
        with pytest.raises(RuntimeError, match="not positive definite"):
            flow.step_flow(g, u, np.max(np.abs(u)), 1e-4, 1e-5, 1e-9)
        assert len(calls) == failing
    monkeypatch.setattr(radial, "_pttrf", lambda d, e, *overwrite: (d, e, 1))
    traj = flow.simulate(flow.replace(params, max_steps=5), cache=cache)
    assert traj.termination == "solver_failure" and traj.steps == 1
    assert traj.classification is RunClass.GridExhausted


def test_energy_of_the_bubble():
    g = flow._flow_grid(1e-4, 2e3, 2000)
    e = flow.flow_energy(g, radial.q_soliton(g.nodes))
    assert abs(e - flow.E_OF_Q) < 1e-3


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_recovers_exact_profile(cache):
    g, u = synthetic_state(cache, 0.5, 1e-3)
    lam, b, dd = flow.decompose(cache, g, u, (0.5 * 1.001, 1e-3 * 1.001))
    assert abs(lam - 0.5) < 1e-5
    assert abs(b - 1e-3) < 1e-6
    assert dd["res_phi"] < 1e-11 and dd["res_hphi"] < 1e-11


@pytest.mark.parametrize("delta", [1e-5, 1e-4])
def test_decompose_synthetic_perturbations(cache, delta):
    g, u = synthetic_state(cache, 0.7, 1e-3, delta=delta)
    lam, b, dd = flow.decompose(cache, g, u, (0.7 * 1.0005, 1e-3))
    assert abs(lam - 0.7) < 10.0 * delta
    assert abs(b - 1e-3) < 10.0 * delta
    assert dd["res_phi"] < 1e-11 and dd["res_hphi"] < 1e-11


def test_resonance_perturbation_moves_lambda_not_b(cache):
    g, u = synthetic_state(cache, 0.7, 1e-3)
    eta = 1e-5
    u2 = u + eta * radial.lambda_q(g.nodes / 0.7) / 0.7
    lam1, b1, _ = flow.decompose(cache, g, u, (0.7, 1e-3))
    lam2, b2, _ = flow.decompose(cache, g, u2, (0.7, 1e-3))
    assert abs(lam2 - lam1) > 5.0 * abs(b2 - b1)


def test_u_eval_reads_the_parabola_prefix_bit_for_bit():
    # on ascending queries lam y all below r0, across it and all above it,
    # the sliced prefix gives what masking each query gives: the parabola
    # at lam y below r0 and the spline at log lam + log y above it
    g = flow._flow_grid(0.02, 300.0, 120)
    r, u = g.nodes, radial.q_soliton(g.nodes / 0.5) / 0.5 + 0.1 * np.exp(-g.nodes**2)
    spl = radial.CubicSpline(radial.SplineFrame(g.t), u)
    c2 = (u[1] - u[0]) / (r[1] ** 2 - r[0] ** 2)
    u00 = u[0] - c2 * r[0] ** 2

    def masked(y, lam):
        rq = lam * y
        out = np.empty_like(rq)
        low = rq < r[0]
        out[low] = u00 + c2 * rq[low] ** 2
        q = math.log(lam) + np.log(y[~low])
        out[~low] = spl(q, np.empty_like(q))
        return out

    evaluate = flow._u_eval(g, u)
    near = np.geomspace(1e-3, 1.0, 300)
    for y, lam in ((np.geomspace(1e-4, 0.9 * r[0], 40), 1.0), (r, 0.7), (r, 1.3),
                   (r[:300], 1.0), (np.concatenate([[0.5 * r[0]], r[:3]]), 1.0),
                   (np.geomspace(r[0], 290.0, 500), 1.0),
                   # lam y_k lands on r0 or next to it, where the searched
                   # prefix is settled on the products
                   (near, r[0] / near[150]), (near, np.nextafter(r[0] / near[150], 0.0)),
                   (near, np.nextafter(r[0] / near[150], 1.0))):
        assert same_bits(evaluate(y, np.log(y), lam), masked(y, lam))
    # at lam = 1 the evaluator reads the spline at the given t itself
    assert same_bits(evaluate(r, g.t, 1.0), u)


def test_decompose_evaluates_each_lambda_once(cache, monkeypatch):
    # F_lam = lam u(lam y) is evaluated once per lambda: the Jacobian's
    # b-column reads no field, and the step's kappa reads the field that
    # decompose returns
    scales = []  # lam of every evaluation
    original = flow._u_eval

    def recording(grid, u):
        evaluate = original(grid, u)

        def wrapped(y, t, lam):
            scales.append(lam)
            return evaluate(y, t, lam)

        return wrapped

    monkeypatch.setattr(flow, "_u_eval", recording)
    g, u = synthetic_state(cache, 0.7, 1e-3, delta=1e-5)
    lam, b, dd = flow.decompose(cache, g, u, (0.7 * 1.02, 1e-3 * 1.1))
    assert dd["iterations"] >= 2
    assert len(scales) == len(set(scales))
    evaluations = len(scales)
    kappa = flow._kappa(cache, dd["eps"])
    assert kappa is not None and len(scales) == evaluations


def test_log_lambda_field_stays_within_roundoff_of_lam_u_of_lam_y(monkeypatch):
    # the field reads the spline at log lam + t instead of log(lam y); at
    # each root of the shoot workload's + probe it stays within 4 eps
    # max|F| of lam u(lam y) formed with one logarithm per query (it moves
    # by at most 1.0 eps max|F|, on 57 to 245 of the 2,527 nodes)
    params = RunConfig(command="shoot", b0=3e-3, kappa_exit_factor=2e4, max_steps=3000)
    cache = flow.ProfileCache(params)
    decompose, roots = flow.decompose, []

    def decomposing(memo, grid, u, seed, J):
        lam, b, dd = decompose(memo, grid, u, seed, J)
        roots.append((grid, u, lam))
        return lam, b, dd

    monkeypatch.setattr(flow, "decompose", decomposing)
    flow._probe(params, cache, 6.95153980321595e-4)
    assert len(roots) == 51
    y = cache.grid.nodes[:cache.n]
    for grid, u, lam in roots:
        r = grid.nodes
        spl = radial.CubicSpline(radial.SplineFrame(np.log(r)), u)
        c2 = (u[1] - u[0]) / (r[1] ** 2 - r[0] ** 2)
        rq = lam * y
        low = rq < r[0]
        want = np.empty_like(rq)
        want[low] = u[0] - c2 * r[0] ** 2 + c2 * rq[low] ** 2
        q = np.log(rq[~low])
        want[~low] = spl(q, np.empty_like(q))
        want *= lam
        field = flow._field(cache, flow._u_eval(grid, u), lam, cache.n)
        assert np.max(np.abs(field - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


@pytest.mark.parametrize("b", [1e-2, 3e-3, 1e-3])
def test_jacobian_b_column_matches_centred_difference(cache, b):
    # the one-sided, field-free b-column against a centred difference of
    # the pairings of one field
    lam = 0.7
    g, u = synthetic_state(cache, lam, b, delta=1e-5)
    u_eval = flow._u_eval(g, u)
    field = flow._field(cache, u_eval, lam, cache.pair_n)
    db = 1e-6 * b
    plus = np.array(flow._pairings(cache, field - cache.q_b(b + db)[:field.size]))
    minus = np.array(flow._pairings(cache, field - cache.q_b(b - db)[:field.size]))
    centred = (plus - minus) / (2.0 * db)
    column = flow._jacobian(cache, u_eval, lam, b)[:, 1]
    assert np.all(np.abs(column - centred) <= 1e-5 * np.abs(centred))


def test_decompose_builds_at_most_two_profiles_per_update(cache, monkeypatch):
    # each Newton update builds Q~ at b + db for the Jacobian and at most
    # one line-search trial; Q~ at the current b is the cache's last build.
    # The cache builds through flow.localized_profile on a miss alone
    g, u = synthetic_state(cache, 0.7, 1e-3, delta=1e-5)
    misses = []
    original = flow.localized_profile

    def counting(b, grid, n):
        misses.append(b)
        return original(b, grid, n)

    monkeypatch.setattr(flow, "localized_profile", counting)
    _, _, dd = flow.decompose(cache, g, u, (0.7 * 0.98, 1e-3 * 0.9))
    iterations = dd["iterations"]
    assert iterations >= 2
    assert misses[0] == 1e-3 * 0.9  # the seed's own build
    assert len(misses) - 1 <= 2 * (iterations - 1)


@pytest.fixture(scope="module")
def carried_jacobian(cache):
    """The Jacobian a decomposition at (0.7, 1e-3) hands to the next call."""
    g, u = synthetic_state(cache, 0.7, 1e-3, delta=1e-5)
    _, _, dd = flow.decompose(cache, g, u, (0.7, 1e-3))
    assert dd["jacobian_builds"] >= 1
    return dd["jacobian"]


def _converged_alike(got, want):
    # the root is fixed only to the residual tolerance NEWTON_TOL, through
    # the Jacobian's conditioning
    (lam, b, dd), (lam_ref, b_ref, _) = got, want
    assert dd["res_phi"] < 1e3 * flow.NEWTON_TOL and dd["res_hphi"] < 1e3 * flow.NEWTON_TOL
    assert abs(lam - lam_ref) <= 1e-9 * lam_ref
    assert abs(b - b_ref) <= 1e-9 * b_ref


def test_decompose_with_a_carried_jacobian_reaches_the_fresh_root(cache, carried_jacobian):
    # the chord from a nearby state converges to the fresh-Jacobian root and
    # saves a Jacobian build
    g, u = synthetic_state(cache, 0.7 * 1.002, 1.003e-3, delta=1e-5)
    seed = (0.7 * 1.001, 1.002e-3)
    fresh = flow.decompose(cache, g, u, seed)
    chord = flow.decompose(cache, g, u, seed, J=carried_jacobian)
    _converged_alike(chord, fresh)
    assert chord[2]["jacobian_builds"] < fresh[2]["jacobian_builds"]


def test_decompose_refreshes_a_wrong_carried_jacobian(cache, carried_jacobian, monkeypatch):
    # with its b-column negated, the carried J points b the wrong way: the
    # line search rejects every alpha, J is refreshed at the seed itself and
    # the update retried
    g, u = synthetic_state(cache, 0.7 * 1.002, 1.003e-3, delta=1e-5)
    seed = (0.7 * 1.002, 1.1e-3)
    fresh = flow.decompose(cache, g, u, seed)
    wrong = carried_jacobian * np.array([1.0, -1.0])
    points = []
    original = flow._jacobian
    monkeypatch.setattr(flow, "_jacobian",
                        lambda c, ev, lam, b: points.append((lam, b)) or original(c, ev, lam, b))
    refreshed = flow.decompose(cache, g, u, seed, J=wrong)
    _converged_alike(refreshed, fresh)
    assert points[0] == seed
    assert refreshed[2]["jacobian_builds"] == len(points)


def test_decompose_signals_tube_loss(cache, carried_jacobian):
    g = flow._flow_grid(0.01, 500.0, 100)
    u = 0.3 * np.exp(-(g.nodes**2))  # nowhere near the soliton family
    with pytest.raises(RuntimeError):
        flow.decompose(cache, g, u, (1.0, 1e-3))
    # a carried Jacobian does not hide the loss: only a fresh one declares it
    with pytest.raises(RuntimeError):
        flow.decompose(cache, g, u, (1.0, 1e-3), J=carried_jacobian)


def test_decompose_below_the_profile_grids_b_is_a_tube_loss(cache):
    # the profile grid resolves b only while 4 B1(b) <= y_max (b down to
    # about 2.3e-4 here); a seed or a line-search trial below that is a lost
    # decomposition, which simulate classifies, never the grid's ValueError
    assert flow.resolves(cache.grid, flow.B_FLOOR)
    assert not flow.resolves(cache.grid, 1.5e-4)
    assert not any(flow.resolves(cache.grid, b) for b in (-1e-3, 0.0, 0.05))
    g = flow._flow_grid(0.01, 500.0, 100)
    u = 0.3 * np.exp(-(g.nodes**2))
    # the first update halves b to 1.5e-4, which the grid cannot resolve
    with pytest.raises(RuntimeError, match="left the soliton tube"):
        flow.decompose(cache, g, u, (1.0, 3e-4))
    with pytest.raises(RuntimeError, match="outside the profile grid"):
        flow.decompose(cache, g, u, (1.0, 1.5e-4))


def test_decompose_reads_u_only_where_the_flow_grid_holds_it(cache):
    # the pairing and psi windows reach y = cache.reach; a flow grid whose
    # 0.95 r_max falls short of lam * reach is a lost decomposition, not a
    # spline extrapolated past r_max
    lam, b = 0.7, 1e-3
    g, u = synthetic_state(cache, lam, b, delta=1e-5)
    assert abs(flow.decompose(cache, g, u, (lam, b))[0] / lam - 1.0) < 1e-3
    short = flow._flow_grid(g.y_min, 0.9 * lam * cache.reach, 100)
    with pytest.raises(RuntimeError, match="leaves the flow grid"):
        flow.decompose(cache, short, np.interp(short.nodes, g.nodes, u), (lam, b))


def test_the_first_flow_grid_holds_the_decomposition_windows():
    # at M = 150 the pairing window reaches y = 329, beyond 0.95 r_max for
    # r_max = 20 B1(0.049) = 272: there the pairings read a spline
    # extrapolated past r_max, and one step moved lambda to 0.952
    params = RunConfig(command="simulate", b0=0.049, M=150.0, max_steps=1)
    cache = flow.ProfileCache(params)
    st = flow.init_data(cache, params)
    assert flow._covered(cache, 1.0, st.r[-1]) >= max(cache.pair_n, cache.psi_n)
    traj = flow.simulate(params, cache=cache)
    assert traj.decompose_lost_step is None
    assert abs(traj.checkpoints[0].lam - 1.0) < 1e-3


def test_simulate_builds_a_profile_per_five_decompositions(monkeypatch):
    # the carried Jacobian and the seed extrapolated in t left about two
    # exact builds per decompose call (3.9 with a fresh Jacobian per update
    # and the last (lam, b) as seed).  The cache's lattice now serves them
    # all: 40 calls read 8 nodes, so a run on a fresh cache builds those 8.
    # A build is a call of profiles.localized_profile on the decomposition
    # prefix; init_data and the checkpoints build on longer prefixes
    params = RunConfig(command="simulate", b0=3e-3, kappa_exit_factor=2e4, max_steps=40)
    cache = flow.ProfileCache(params)
    builds, calls = [], []
    build, decompose = flow.localized_profile, flow.decompose

    def building(b, grid, n):
        if n == cache.n:
            builds.append(b)
        return build(b, grid, n)

    monkeypatch.setattr(flow, "localized_profile", building)
    monkeypatch.setattr(flow, "decompose", lambda *a, **k: calls.append(1) or decompose(*a, **k))
    traj = flow.simulate(params, cache=cache)
    assert traj.steps == len(calls) == 40 and traj.decompose_lost_step is None
    assert traj.profile_builds == len(builds) == len(cache.nodes) > 0
    assert len(builds) / len(calls) <= 0.2


def _served_by_memos(run):
    """Run `run()` and return its result, every Q~_b the lattice served
    between its nodes with the memo that asked, the number of decompose
    calls and the number of exact builds a memo asked for (calls of
    profiles.localized_profile inside ProfileMemo.q_b; init_data and the
    checkpoints build outside it)."""
    served, calls, builds, asking = [], [], [], []
    q_b, decompose, build = flow.ProfileMemo.q_b, flow.decompose, flow.localized_profile

    def recording(memo, b):
        serves = memo.serves
        asking.append(memo)
        try:
            q = q_b(memo, b)
        finally:
            asking.pop()
        if memo.serves > serves and q is not memo.cache.nodes.get(b):
            served.append((b, q, memo))
        return q

    def building(b, grid, n):
        if asking:
            builds.append(b)
        return build(b, grid, n)

    mp = pytest.MonkeyPatch()
    mp.setattr(flow.ProfileMemo, "q_b", recording)
    mp.setattr(flow, "decompose", lambda *a, **k: calls.append(1) or decompose(*a, **k))
    mp.setattr(flow, "localized_profile", building)
    try:
        result = run()
    finally:
        mp.undo()
    return result, served, len(calls), len(builds)


@pytest.fixture(scope="module")
def memo_run():
    """The shoot workload's + probe (b0 = 3e-3, 51 steps) on a fresh cache,
    with every Q~_b the lattice served, the number of decompose calls and
    of exact builds."""
    params = RunConfig(command="shoot", b0=3e-3, kappa_exit_factor=2e4, max_steps=3000)
    cache = flow.ProfileCache(params)
    traj, served, calls, builds = _served_by_memos(
        lambda: flow._probe(params, cache, 6.95153980321595e-4))
    return cache, traj, served, calls, builds


def test_memo_builds_fewer_profiles_than_decompositions(memo_run):
    # b moves by about 6e-5 of itself per step here, about a node spacing
    # 2^-16 every 3 steps, so the quintic through the lattice serves every
    # call: 8 nodes for 51 calls, where exact builds made about 2 per call,
    # the quadratic through the last three 32 and the cubic through the
    # last four, with builds ahead of the drift, 19.  On a fresh cache the
    # run builds what it reads
    _, traj, served, calls, builds = memo_run
    assert traj.termination == "exit_plus" and traj.steps == calls == 51
    assert traj.profile_builds == builds == 8
    assert len(served) > calls


@pytest.mark.parametrize("M", [10.0, 20.0, 50.0])
def test_memo_builds_keep_the_bits_of_the_whole_set(M):
    # an exact build runs the solves, the radiation and the chi_{B1}
    # localization on the decomposition prefix alone; at lattice nodes
    # across the flow's b window it gives the whole grid's Q~_b there, bit
    # for bit.  The lowest, 16 MEMO_STEP, whose 2^-16 stencil leaves the b
    # the grid resolves, is read as a node of the 2^-17 level
    cache = flow.ProfileCache(RunConfig(command="simulate", b0=3e-3, M=M))
    for b in np.geomspace(B_FLOOR, profiles.B_STAR, 12, endpoint=False):
        b = np.floor(b / flow.MEMO_STEP) * flow.MEMO_STEP
        assert profiles.resolves(cache.grid, b)
        memo = flow.ProfileMemo(cache)
        q = memo.q_b(b)
        assert memo.read == {b} and q.size == memo.n < cache.grid.n
        assert same_bits(q, whole_profile(b, cache.grid)[0][:memo.n])
    assert len(cache.nodes) == 12


def test_memos_share_their_caches_gate_pairings(cache):
    # the gate pairings and radii, the lattice nodes and the decomposition
    # prefix depend on M alone, so a cache forms them once for the memos
    # of all its runs
    first, second = flow.ProfileMemo(cache), flow.ProfileMemo(cache)
    assert first.n == cache.n == max(cache.pair_n, cache.psi_n)
    q = first.q_b(1e-3)
    nodes, radii = set(cache.nodes), dict(cache.radii)
    assert same_bits(second.q_b(1e-3), q) and second.read == first.read
    assert set(cache.nodes) == nodes and cache.radii == radii


def _worst_served_error(cache, served):
    """Largest |(v, served - fresh build)| / (|v| |fresh build|) over every
    served Q~_b and each of its cache's gate pairings."""
    w = cache.grid.weights
    worst = 0.0
    for b, q, _ in served:
        exact = whole_profile(b, cache.grid)[0][:q.size]
        for wv, v_norm in cache.gates:
            m = wv.size
            scale = v_norm * np.sqrt(np.dot(w[:m], exact[:m] ** 2))
            worst = max(worst, abs(np.dot(wv, q[:m] - exact[:m])) / scale)
    return worst


def test_memo_serves_q_b_within_its_gate(memo_run):
    # every served Q~_b meets a fresh build within MEMO_TOL of each pairing's
    # scale, at the step sizes of the shoot workload's + and - probes
    # (b0 = 3e-3), of march (b0 = 0.01, whose builds carry far more
    # roundoff) and of two a+ = 0 runs whose gauge holds (M = 20 at
    # b0 = 3e-3, 79 steps, and M = 10 at b0 = 0.01, 70 steps).  The worst
    # read about 0.007, 0.005, 0.47, 0.001 and 0.002 MEMO_TOL
    cache, _, served, _, _ = memo_run
    shoot = RunConfig(command="shoot", b0=3e-3, kappa_exit_factor=2e4, max_steps=3000)
    minus, minus_served, _, _ = _served_by_memos(
        lambda: flow._probe(shoot, cache, -6.95153980321595e-4))
    assert minus.termination == "exit_minus" and len(minus_served) > minus.steps
    assert _worst_served_error(cache, served) <= flow.MEMO_TOL
    assert _worst_served_error(cache, minus_served) <= flow.MEMO_TOL
    params = RunConfig(command="simulate", b0=0.01, kappa_exit_factor=2e4, max_steps=30)
    march_cache = flow.ProfileCache(params)
    march, march_served, _, _ = _served_by_memos(
        lambda: flow.simulate(params, cache=march_cache))
    assert march.decompose_lost_step == 27 and len(march_served) > 27
    assert _worst_served_error(march_cache, march_served) <= flow.MEMO_TOL < flow.NEWTON_TOL
    for b0, M in ((3e-3, 20.0), (0.01, 10.0)):
        params = RunConfig(command="simulate", b0=b0, M=M, kappa_exit_factor=2e4,
                           max_steps=3000)
        run_cache = flow.ProfileCache(params)
        traj, run_served, _, _ = _served_by_memos(
            lambda: flow.simulate(params, cache=run_cache))
        assert traj.decompose_lost_step is None and len(run_served) > traj.steps
        assert _worst_served_error(run_cache, run_served) <= flow.MEMO_TOL, (b0, M)


def _stencil(b, h):
    """The seven lattice nodes b_{k-2}, .., b_{k+4} of step h around b."""
    k = int(np.floor(b / h))
    return {(k + i) * h for i in range(-2, 5)}


def test_memo_halves_the_step_where_the_gate_fails():
    # at M = 150 and b = 1e-3 the sextic term through the 2^-16 nodes pairs
    # at up to about 1,400 MEMO_TOL, and through the 2^-17 nodes above the
    # gate too: the memo serves from the 2^-18 nodes, every coarse node
    # coming back as an even node of the finer levels, within MEMO_TOL of a
    # fresh build
    params = RunConfig(command="simulate", b0=1e-3, M=150.0)
    cache = flow.ProfileCache(params)
    memo = flow.ProfileMemo(cache)
    b, h = 1e-3, flow.MEMO_STEP
    q, _, _, builds = _served_by_memos(lambda: memo.q_b(b))
    assert memo.serves == 1 and _worst_served_error(cache, [(b, q, memo)]) <= flow.MEMO_TOL
    assert memo.read == _stencil(b, h) | _stencil(b, h / 2) | _stencil(b, h / 4)
    assert builds == len(memo.read) == len(cache.nodes) == 14
    assert len(cache.radii) == 3  # one gate radius per interval tried
    # a second run reads the same nodes and builds none
    again, _, _, builds = _served_by_memos(lambda: flow.ProfileMemo(cache).q_b(b))
    assert builds == 0 and same_bits(again, q)


def test_memo_serves_b_near_the_b_floor():
    # in the last 5% of a run that reaches the b floor the 2^-16 stencil
    # leaves the b the profile grid resolves; the memo passes over that
    # level as over a failed gate and serves b from a finer one, within
    # MEMO_TOL of a fresh build (about 0.005 MEMO_TOL at worst)
    cache = flow.ProfileCache(RunConfig(command="shoot", b0=3e-3, kappa_exit_factor=2e4))
    h = flow.MEMO_STEP
    for b in (2.35e-4, 2.5e-4, 2.625e-4, 2.7e-4):
        assert not flow.resolves(cache.grid, (math.floor(b / h) - 2) * h)
        memo = flow.ProfileMemo(cache)
        _, served, _, _ = _served_by_memos(lambda: memo.q_b(b))
        assert memo.serves == len(served) == 1 and b not in memo.read
        assert _worst_served_error(cache, served) <= flow.MEMO_TOL


def test_memo_builds_b_whose_stencil_leaves_the_resolved_range(memo_run):
    # just above the smallest b the profile grid resolves, the nodes below b
    # are not resolved at any level: the run builds b itself, keeps that
    # build for its next request and reads no lattice node
    cache = memo_run[0]
    lo, hi = 0.0, 3e-3
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if flow.resolves(cache.grid, mid) else (mid, hi)
    b = hi * (1.0 + 1e-6)
    assert not flow.resolves(cache.grid, b - 2.0 * flow.MEMO_STEP)
    memo = flow.ProfileMemo(cache)
    nodes = len(cache.nodes)
    q, _, _, builds = _served_by_memos(lambda: memo.q_b(b))
    assert builds == 1 and memo.q_b(b) is q and memo.read == {b} and memo.serves == 0
    assert len(cache.nodes) == nodes
    assert same_bits(q, whole_profile(b, cache.grid)[0][:memo.n])


def test_memo_returns_a_nodes_bits_at_the_node(memo_run):
    # a b on the lattice reads that node alone, bit for bit, at the first
    # step or at a finer one: an odd multiple of 2^-17 whose 2^-16 gate fails
    cache = memo_run[0]
    b = 196 * flow.MEMO_STEP  # 2.99e-3, a node the + probe read
    memo = flow.ProfileMemo(cache)
    assert memo.q_b(b) is cache.nodes[b] and memo.read == {b} and memo.serves == 1
    fine = flow.ProfileCache(RunConfig(command="simulate", b0=1e-3, M=150.0))
    b = 131 * flow.MEMO_STEP / 2
    memo = flow.ProfileMemo(fine)
    q = memo.q_b(b)
    assert q is fine.nodes[b] and memo.read == _stencil(b, flow.MEMO_STEP) | {b}
    assert same_bits(q, whole_profile(b, fine.grid)[0][:memo.n])


def test_checkpoint_energies_are_stable_under_a_last_digits_shift_of_lambda(monkeypatch):
    # a +-1e-11 relative shift of the decomposed lambda, far below what the
    # Newton tolerance pins, may move no energy flow_energies returns by more
    # than 1e-6 relative at a live checkpoint of the shoot workload's + probe.
    # |H^2 eps|^2 failed this: it moved by 1.5e-2 to 2.8e-1 relative, as it
    # measured the interpolation noise of four differences, not eps
    params = RunConfig(command="shoot", b0=3e-3, kappa_exit_factor=2e4, max_steps=3000)
    cache = flow.ProfileCache(params)
    live = []
    make_checkpoint = flow._make_checkpoint

    def record(cache, step, t, s, grid, u, umax, lam, b, kappa, decomposed, dd):
        if decomposed:
            live.append((grid, u, lam, b))
        return make_checkpoint(cache, step, t, s, grid, u, umax, lam, b, kappa, decomposed, dd)

    monkeypatch.setattr(flow, "_make_checkpoint", record)
    flow._probe(params, cache, 6.95153980321595e-4)
    assert len(live) == 4  # steps 1, 20, 40 and the exit at 51
    for grid, u, lam, b in live:
        u_eval = flow._u_eval(grid, u)

        def energies(at):
            n = flow._covered(cache, at, grid.y_max)
            q, zeta = whole_profile(b, cache.grid)
            eps = flow._field(cache, u_eval, at, n) - q[:n]
            return np.array(flow.flow_energies(cache.grid, eps, zeta[:n]))

        base = energies(lam)
        for shift in (1.0 - 1e-11, 1.0 + 1e-11):
            moved = np.abs(energies(lam * shift) - base) / np.abs(base)
            assert (moved <= 1e-6).all(), f"lambda={lam!r}: relative moves {moved}"


def test_live_checkpoints_meet_the_newton_tolerance(memo_run):
    # the checkpoints build Q~_b exactly, so their residuals check the
    # memo's roots against the exact profile
    _, traj, _, _, _ = memo_run
    live = [c for c in traj.checkpoints if c.decomposed]
    assert len(live) == len(traj.checkpoints) >= 4
    assert max(max(c.res_phi, c.res_hphi) for c in live) <= flow.NEWTON_TOL


def test_step_kappa_pairs_the_eps_of_its_decomposition(monkeypatch):
    # the step's kappa reads the eps decompose formed at its root, with no
    # memo request of its own; along the shoot workload's + probe it has
    # the bits of the form that asked the memo for Q~_b again
    params = RunConfig(command="shoot", b0=3e-3, kappa_exit_factor=2e4, max_steps=3000)
    cache = flow.ProfileCache(params)
    decompose, kappa = flow.decompose, flow._kappa
    roots, pairs = [], []

    def decomposing(memo, grid, u, seed, J):
        lam, b, dd = decompose(memo, grid, u, seed, J)
        roots.append((memo, lam, b, dd["u_eval"]))
        return lam, b, dd

    def pairing(c, eps):
        k = kappa(c, eps)
        if isinstance(c, flow.ProfileMemo):
            memo, lam, b, u_eval = roots[-1]
            n = memo.psi_n
            field = flow._field(memo, u_eval, lam, memo.n)[:n]
            parent = np.dot(memo.grid.weights[:n] * memo.eig.psi[:n], field - memo.q_b(b)[:n])
            pairs.append((k, float(parent)))
        return k

    monkeypatch.setattr(flow, "decompose", decomposing)
    monkeypatch.setattr(flow, "_kappa", pairing)
    traj = flow._probe(params, cache, 6.95153980321595e-4)
    assert traj.termination == "exit_plus" and len(pairs) == traj.steps == 51
    assert same_bits(*zip(*pairs))


def _parent_checkpoint_columns(cache, grid, u, lam, b, dd):
    """kappa, res_phi, res_hphi, E1, E2 and E2_hat of a live checkpoint as
    formed before eps was handed on: each pairing subtracts the exact Q~_b
    from the field over its own window and dots it with the weighted
    w v, and the energies pad eps with zeros to the whole profile grid and
    add the whole grid's zeta_b to it."""
    g, w = cache.grid, cache.grid.weights
    u_eval = dd["u_eval"] if dd else flow._u_eval(grid, u)
    n = flow._covered(cache, lam, grid.y_max)
    field = flow._field(cache, u_eval, lam, n)
    q, zeta = whole_profile(b, g)

    def paired(v, m):
        return float(np.dot(w[:m] * v[:m], field[:m] - q[:m]))

    s1, s2 = flow._pairing_scales(cache, field)
    eps = np.zeros(g.n)
    eps[:n] = field - q[:n]
    he = radial.apply_H(g, eps)
    keep = n if n == g.n else max(n - 6, 0)
    wk = w * (np.arange(g.n) < keep)
    _, dy = radial.log_gradient(g, eps)
    he_hat = radial.apply_H(g, eps + zeta)
    return (paired(cache.eig.psi, cache.psi_n),
            abs(paired(cache.phi.Phi_M, cache.pair_n)) / s1,
            abs(paired(cache.phi.H_Phi_M, cache.pair_n)) / s2,
            float(np.dot(wk, dy * dy)), float(np.dot(wk, he**2)),
            float(np.dot(wk, he_hat**2)))


@pytest.mark.parametrize("b0, a_plus, live", [(3e-3, 6.95153980321595e-4, 4), (0.01, 0.0, 2)])
def test_live_checkpoints_keep_the_bits_of_the_parent_forms(monkeypatch, b0, a_plus, live):
    # a checkpoint builds Q~_b and zeta_b once on its covered prefix and
    # hands one eps to its pairings and energies; against the whole-grid
    # build, on the shoot workload's + probe (live at steps 1, 20, 40 and
    # the exit at 51, which has no dd) and on a probe at march's b0 (live at
    # steps 1 and 20, lost at 27) each column keeps its bits
    params = RunConfig(command="shoot", b0=b0, kappa_exit_factor=2e4, max_steps=3000)
    cache = flow.ProfileCache(params)
    make_checkpoint, seen = flow._make_checkpoint, []

    def record(cache, step, t, s, grid, u, umax, lam, b, kappa, decomposed, dd):
        cp = make_checkpoint(cache, step, t, s, grid, u, umax, lam, b, kappa, decomposed, dd)
        if decomposed:
            seen.append((cp, _parent_checkpoint_columns(cache, grid, u, lam, b, dd)))
        return cp

    monkeypatch.setattr(flow, "_make_checkpoint", record)
    flow._probe(params, cache, a_plus)
    assert len(seen) == live
    for cp, parent in seen:
        ours = (cp.kappa, cp.res_phi, cp.res_hphi, cp.E1, cp.E2, cp.E2_hat)
        assert same_bits(ours, parent), f"step {cp.step}"


def test_memo_builds_or_serves_every_request():
    # the march workload's config: its decompositions, all before the loss
    # at step 27, ask the memo for Q~_b 191 times; the lattice serves each
    # between its nodes, and none is at a node or built off the lattice.
    # The run reads 20 nodes (it made 67 builds when the memo served the
    # cubic through its last builds), which a fresh cache builds for it
    params = RunConfig(command="simulate", b0=0.01, kappa_exit_factor=2e4, max_steps=60)
    cache = flow.ProfileCache(params)
    requests = []
    q_b = flow.ProfileMemo.q_b

    def recording(memo, b):
        serves = memo.serves
        q = q_b(memo, b)
        if memo.serves == serves:
            requests.append("built")
        else:
            requests.append("node" if q is cache.nodes.get(b) else "served")
        return q

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow.ProfileMemo, "q_b", recording)
        traj = flow.simulate(params, cache=cache)
    assert traj.decompose_lost_step == 27
    counts = {kind: requests.count(kind) for kind in ("node", "served", "built")}
    assert counts == {"node": 0, "served": 191, "built": 0}
    assert len(requests) == 191 and sum(counts.values()) == len(requests)
    assert traj.profile_builds == len(cache.nodes) == 20
    assert traj.profile_serves == counts["node"] + counts["served"] == 191


def test_probe_ends_at_its_lost_decomposition():
    # b0 = 0.01 loses its decomposition at step 27; a shooting probe stops
    # there with the last kappa and smallest lambda of a run that steps on
    params = RunConfig(command="simulate", b0=0.01, kappa_exit_factor=2e4, max_steps=60)
    cache = flow.ProfileCache(params)
    full = flow.simulate(params, cache=cache)
    probe = flow._probe(params, cache, params.a_plus)
    assert full.termination == "budget" and full.steps == 60
    assert probe.termination == "decomposition_lost"
    assert probe.steps == probe.decompose_lost_step == full.decompose_lost_step == 27
    assert probe.classification is full.classification is RunClass.GridExhausted
    assert probe.series("kappa")[-1] == full.series("kappa")[-1]
    assert np.nanmin(probe.series("lam")) == np.nanmin(full.series("lam"))
    assert probe.checkpoints[:-1] == full.checkpoints[:len(probe.checkpoints) - 1]


# the counts a run reports, and the power of lambda0 each checkpoint column
# carries (the others are scale invariant)
RUN_COUNTS = ("termination", "classification", "steps", "step_rejects",
              "decompose_lost_step", "newton_iterations", "jacobian_builds",
              "profile_builds", "profile_serves", "remeshes")
LAMBDA0_POWER = {"t": 2, "lam": 1, "u_max": -1}


def test_a_run_at_any_lambda0_is_the_unit_run_rescaled():
    # u -> u(t/l^2, r/l)/l maps solutions to solutions, and a run is solved
    # in units of lambda0: t, lambda and max|u| rescale, bit for bit at a
    # power of two.  With an absolute step tolerance and overflow cap the
    # run at 1e-13 ended `overflow` at step 1, and at 1e6 it lost its
    # decomposition at step 10 instead of 27
    params = RunConfig(command="simulate", b0=0.01, kappa_exit_factor=2e4, max_steps=60)
    cache = flow.ProfileCache(params)
    unit = flow.simulate(params, cache=cache)
    assert (unit.steps, unit.decompose_lost_step) == (60, 27)
    for lambda0, rtol in ((2.0**-40, 0.0), (2.0**30, 0.0), (1e-13, 1e-15), (1e6, 1e-15)):
        traj = flow.simulate(flow.replace(params, lambda0=lambda0), cache=cache)
        assert traj.lambda_decay == float(lambda0 / np.nanmin(traj.series("lam")))
        assert [getattr(traj, k) for k in RUN_COUNTS] == [getattr(unit, k) for k in RUN_COUNTS]
        for f in fields(flow.Checkpoint):
            want = unit.series(f.name) * lambda0 ** LAMBDA0_POWER.get(f.name, 0)
            np.testing.assert_allclose(traj.series(f.name), want, rtol=rtol, atol=0,
                                       err_msg=f"{f.name} at lambda0={lambda0!r}")


def test_shoot_at_any_lambda0_is_the_unit_shoot_rescaled():
    # the perfbench `shoot` config; at lambda0 = 2^20 both bracket ends
    # exited minus, and shoot raised ValueError
    a = 6.95153980321595e-4
    params = RunConfig(command="shoot", b0=3e-3, kappa_exit_factor=2e4, max_steps=3000,
                       bracket_lo=-a, bracket_hi=a, budget=1)
    cache = flow.ProfileCache(params)
    unit = flow.shoot(params, cache=cache)
    lambda0 = 2.0**20
    scaled = flow.shoot(flow.replace(params, lambda0=lambda0), cache=cache)
    assert (scaled.history, scaled.bracket, scaled.iterations) == (
        unit.history, unit.bracket, unit.iterations)
    assert scaled.best.params.a_plus == unit.best.params.a_plus
    assert scaled.best.lambda_decay == float(lambda0 / np.nanmin(scaled.best.series("lam")))
    assert [getattr(scaled.best, k) for k in RUN_COUNTS] == [getattr(unit.best, k)
                                                              for k in RUN_COUNTS]
    assert [flow.replace(c, t=c.t / lambda0**2, lam=c.lam / lambda0, u_max=c.u_max * lambda0)
            for c in scaled.best.checkpoints] == unit.best.checkpoints


def test_runs_sharing_a_cache_do_not_depend_on_their_order():
    # the cache keeps Q~_b only at lattice nodes and a served value depends
    # on b alone, and a run counts every node it reads whether or not it
    # built it: the shoot workload's - and + probes, run on one cache in
    # either order, give the same checkpoints and counts
    params = RunConfig(command="shoot", b0=3e-3, kappa_exit_factor=2e4, max_steps=3000)
    a = 6.95153980321595e-4
    runs = []
    for order in ((-a, a), (a, -a)):
        cache = flow.ProfileCache(params)
        runs.append({amp: flow._probe(params, cache, amp) for amp in order})
    for amp in (-a, a):
        first, second = runs[0][amp], runs[1][amp]
        assert [getattr(first, k) for k in RUN_COUNTS] == [getattr(second, k)
                                                            for k in RUN_COUNTS]
        assert first.checkpoints == second.checkpoints
    assert runs[0][a].profile_builds == 8 and runs[0][-a].profile_builds == 7


def test_simulate_rejects_a_cache_built_for_other_settings():
    # the pairing direction Phi_M and its windows come from the cache
    cache = flow.ProfileCache(RunConfig(b0=0.01))
    params = RunConfig(command="shoot", b0=0.01, kappa_exit_factor=2e4, M=20,
                       max_steps=3, bracket_lo=-1e-4, bracket_hi=1e-4, budget=1)
    for run in (flow.simulate, flow.shoot):
        with pytest.raises(ValueError, match="cache built for M=50"):
            run(params, cache=cache)
    assert flow.simulate(flow.replace(params, M=cache.M), cache=cache).steps == 3


def test_a_cache_serves_runs_of_any_nodes_per_decade(monkeypatch):
    # every flow grid, the first one included, takes the run's density
    cache = flow.ProfileCache(RunConfig(b0=0.01))
    params = RunConfig(command="simulate", b0=0.01, kappa_exit_factor=2e4,
                       nodes_per_decade=60, max_steps=3)
    own = flow.simulate(params)  # on a cache built for the run itself
    grids = []
    step_flow = flow.step_flow
    monkeypatch.setattr(flow, "step_flow",
                        lambda grid, *a: grids.append(grid.n) or step_flow(grid, *a))
    traj = flow.simulate(params, cache=cache)
    st = flow.init_data(cache, params)
    dense = flow.init_data(cache, flow.replace(params, nodes_per_decade=120))
    assert grids == [st.grid.n] * 3 and st.grid.n < dense.grid.n
    assert traj.checkpoints == own.checkpoints


def test_init_data_window_warning(params, cache):
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        flow.init_data(cache, params)
        assert not captured
        flow.init_data(cache, flow.replace(params, a_plus=1e-3))  # far beyond 10x the window
        assert any("window" in str(w.message) for w in captured)


def test_init_data_zero_amplitude_has_zero_kappa(cache, params):
    st = flow.init_data(cache, params)
    lam, b, dd = flow.decompose(cache, st.grid, st.u, (1.0, params.b0))
    n = flow._covered(cache, lam, st.r[-1])
    # kappa vanishes up to the pairing tolerance times its scale
    assert abs(flow._kappa(cache, dd["eps"])) < 5e-9
    q, zeta = whole_profile(b, cache.grid)
    eps = flow._field(cache, dd["u_eval"], lam, n) - q[:n]
    e1, e2, e2h = flow.flow_energies(cache.grid, eps, zeta[:n])
    assert e2 < 1e-6  # interpolation floor of the second-order energy
    # the hat-energy is dominated by the genuine radiation term
    hz = radial.apply_H(cache.grid, zeta)
    assert abs(e2h / np.dot(cache.grid.weights, hz * hz) - 1.0) < 0.05


# ---------------------------------------------------------------------------
# runs, classification, shooting
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def unstable_runs(params, cache):
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for sign in (+1, -1):
            amp = sign * 6e-4  # far beyond the forced equilibrium kappa
            out[sign] = flow.simulate(
                flow.replace(params, a_plus=amp), cache=cache)
    return out


def test_exit_classification_signs(unstable_runs):
    assert unstable_runs[+1].classification is RunClass.ExitUnstablePlus
    assert unstable_runs[-1].classification is RunClass.ExitUnstableMinus


def test_twin_runs_grow_at_the_unstable_eigenvalue(cache):
    # the linear flow around Q: step Q and Q + delta psi at a fixed dt that
    # every trial meets, and fit the growth of (u1 - u0, psi)/delta over
    # 0.5 <= t <= 3, where it is a pure exponential; the difference cancels
    # the forced offset kappa* and reads no decomposition.  The rates read
    # 0.58498, 0.58536 and 0.58546 at 60, 120 and 240 nodes per decade,
    # against zeta = 0.58608 on the profile grid
    delta, dt, zeta = 1e-9, 2e-3, cache.eig.zeta
    misses = {}
    for npd in (60, 120, 240):
        g = flow._flow_grid(0.02, 200.0, npd)
        psi = flow._u_eval(cache.grid, cache.eig.psi)(g.nodes, g.t, 1.0)
        u0 = radial.q_soliton(g.nodes)
        u1 = u0 + delta * psi
        t, kappa = [], []
        for k in range(1, 1501):
            u0, _, _, rejects0 = flow.step_flow(g, u0, np.max(np.abs(u0)), dt, 1e-2,
                                                flow.ATOL_STEP)
            u1, _, _, rejects1 = flow.step_flow(g, u1, np.max(np.abs(u1)), dt, 1e-2,
                                                flow.ATOL_STEP)
            assert rejects0 == rejects1 == 0
            t.append(k * dt)
            kappa.append(np.dot(g.weights, (u1 - u0) * psi) / delta)
        t, kappa = np.array(t), np.array(kappa)
        fit = (t >= 0.5) & (t <= 3.0)
        rate = np.polyfit(t[fit], np.log(kappa[fit]), 1)[0]
        misses[npd] = abs(rate / zeta - 1.0)
    assert misses[120] < 0.01 and misses[240] < 0.01, misses
    assert misses[240] < misses[60], misses


def test_dissipation_run(params, cache):
    # deep on the dispersal side the bubble unwinds: the amplitude collapses
    # and the energy falls below the bubble energy at longer horizon
    p = flow.replace(params, a_plus=-3e-3, kappa_exit_factor=1e30,
                     max_steps=30000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = flow.simulate(p, cache=cache)
    assert traj.classification in (RunClass.Dissipation, RunClass.GridExhausted)
    assert traj.remeshes == 1  # lambda halves once before the bubble unwinds
    umax = traj.series("u_max")
    assert umax[-1] < 0.5 * umax[0]
    if traj.classification is RunClass.Dissipation:
        assert traj.checkpoints[-1].E < flow.E_OF_Q


def test_blowup_on_the_focusing_side(params, cache, monkeypatch):
    monkeypatch.setattr(flow, "U_CAP", 1e4)
    p = flow.replace(params, a_plus=+3e-3, kappa_exit_factor=1e9,
                     max_steps=40000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = flow.simulate(p, cache=cache)
    assert traj.classification is RunClass.ExitUnstablePlus or \
        traj.termination == "overflow"
    assert traj.remeshes == 0
    umax = traj.series("u_max")
    assert umax[-1] > 10.0 * umax[0]


@pytest.mark.parametrize("b0, M", [(1e-3, 50.0), (3e-3, 10.0), (1e-2, 10.0)])
def test_decomposition_focuses_at_the_flows_own_rate(b0, M):
    # the gauge's focusing rate -dlog(lambda)/ds / b against the flow's own,
    # dlog(max|u|)/ds / b, which no decomposition enters, between the
    # checkpoints at steps 1 and 40 of an a+ = 0 run with the exits off.
    # They read 0.825 against 0.794, 0.892 against 0.905 and 0.692 against
    # 0.664 here.  Where B1(b0) falls below about 4.4 M the gauge reads
    # lambda wrong: the shoot workload's (3e-3, 50) reads -0.104 against 0.901
    params = RunConfig(command="simulate", b0=b0, M=M, kappa_exit_factor=1e9, max_steps=40)
    traj = flow.simulate(params)
    assert params.a_plus == 0.0 and traj.decompose_lost_step is None
    first, last = (next(c for c in traj.checkpoints if c.step == k) for k in (1, 40))
    ds = last.s - first.s
    b_mean = 0.5 * (first.b + last.b)
    gauge = -(np.log(last.lam) - np.log(first.lam)) / ds / b_mean
    own = (np.log(last.u_max) - np.log(first.u_max)) / ds / b_mean
    assert abs(gauge / own - 1.0) <= 0.1, f"gauge {gauge:.3f}, flow {own:.3f}"


def test_shoot_requires_bracket(params, cache):
    same_side = flow.replace(params, bracket_lo=1e-5, bracket_hi=2e-5, budget=5)
    with pytest.raises(ValueError):
        flow.shoot(same_side, cache=cache)


def test_shoot_bisection_mechanics(params, cache):
    a = 6e-4
    res = flow.shoot(flow.replace(params, bracket_lo=-a, bracket_hi=a, budget=8),
                     cache=cache)
    width = res.bracket[1] - res.bracket[0]
    assert width <= 2.0 * a * 2.0**-8 + 1e-15
    assert res.iterations == 8
    los = [lo for lo, _ in res.history]
    his = [hi for _, hi in res.history]
    assert all(np.diff(los) >= 0) and all(np.diff(his) <= 0)
    assert res.best.steps > 0


def test_shoot_orders_a_reversed_bracket():
    # the perfbench `shoot` config with its bracket ends given the other way
    # round: the + exit as bracket_lo and the - exit as bracket_hi
    a = 6.95153980321595e-4
    params = RunConfig(command="shoot", b0=3e-3, kappa_exit_factor=2e4, max_steps=3000,
                       bracket_lo=-a, bracket_hi=a, budget=1)
    cache = flow.ProfileCache(params)
    ordered = flow.shoot(params, cache=cache)
    reversed_ = flow.shoot(flow.replace(params, bracket_lo=a, bracket_hi=-a), cache=cache)
    assert ordered.history[0] == (-a, a)
    assert (reversed_.history, reversed_.bracket, reversed_.iterations) == (
        ordered.history, ordered.bracket, ordered.iterations)
    assert reversed_.best.params.a_plus == ordered.best.params.a_plus
    assert reversed_.best.checkpoints == ordered.best.checkpoints


def test_shoot_grows_its_bracket_without_rerunning_its_ends(monkeypatch):
    # the perfbench `shoot` config with a NaN bracket: 7 growth pairs, the
    # last of which (+-4^6 windows) closes the bracket, then 1 bisection.
    # Its result is the one shoot gives from that bracket passed explicitly
    params = RunConfig(command="shoot", b0=3e-3, kappa_exit_factor=2e4,
                       max_steps=3000, budget=1)
    cache = flow.ProfileCache(params)
    amplitudes = []
    simulate = flow.simulate
    monkeypatch.setattr(flow, "simulate", lambda p, cache, **kw: amplitudes.append(p.a_plus)
                        or simulate(p, cache=cache, **kw))
    grown = flow.shoot(params, cache=cache)
    w = flow.admissible_window(params.b0, 2.0)
    growth = [sign * w * flow.BRACKET_GROW**k for k in range(7) for sign in (-1, +1)]
    a = growth[-1]
    assert amplitudes == growth + [0.0] and len(amplitudes) == 15
    assert grown.history[0] == (-a, a) and a == 6.95153980321595e-4
    given = flow.shoot(flow.replace(params, bracket_lo=-a, bracket_hi=a), cache=cache)
    assert len(amplitudes) == 18
    assert (grown.history, grown.bracket, grown.iterations) == (
        given.history, given.bracket, given.iterations)
    assert grown.best.params.a_plus == given.best.params.a_plus
    assert grown.best.checkpoints == given.best.checkpoints


def test_shoot_gives_up_growing_at_the_cap(params, cache, monkeypatch):
    # one growth pair fits under a cap of one window; runs that end by
    # budget have no exit sign, so no bracket closes
    monkeypatch.setattr(flow, "BRACKET_MAX_FACTOR", 1.0)
    with pytest.raises(RuntimeError, match="within the cap"):
        flow.shoot(flow.replace(params, max_steps=1), cache=cache)


def _constructed_run(termination, lam_end):
    """A run at lambda0 = 2 whose three live checkpoints take lambda from
    lambda0 down to lam_end, ended by `termination`."""
    params = RunConfig(command="simulate", b0=3e-3, lambda0=2.0, max_steps=60)
    checkpoints = [
        flow.Checkpoint(step=step, t=1e-3 * step, s=0.5 * step, lam=lam, b=3e-3 * lam / 2.0,
                        kappa=1e-9, E=1.3, E1=1e-7, E2=1e-10, E2_hat=1e-10, u_max=1.0 / lam,
                        res_phi=1e-13, res_hphi=1e-13)
        for step, lam in ((1, 2.0), (20, 1.0), (40, lam_end))]
    return flow.FlowTrajectory(params=params, checkpoints=checkpoints,
                               termination=termination, classification=None, steps=40)


@pytest.mark.parametrize("termination", ["tracked", "b_floor"])
def test_classify_reads_the_tenfold_decay_alone(termination):
    # a run that ends tracked or at the b floor is TypeII_tracking once
    # lambda fell to lambda0/10, and GridExhausted when it stayed above
    deep = flow.classify(_constructed_run(termination, 0.2))
    shallow = flow.classify(_constructed_run(termination, 0.25))
    assert deep is RunClass.TypeII_tracking and shallow is RunClass.GridExhausted


def test_modulation_residuals_of_a_short_run_keep_all_six_keys():
    # a 30-step run has fewer than five live checkpoints: no residual, and
    # every one of the six series is there, empty
    traj = flow.simulate(RunConfig(command="simulate", b0=0.01, max_steps=30))
    assert sum(c.decomposed for c in traj.checkpoints) < 5
    res = flow.modulation_residuals(traj)
    assert set(res) == {"s", "lam_res", "b_res", "b_mid", "E2_ratio", "kappa_ratio"}
    assert all(v.shape == (0,) for v in res.values())


def test_lyapunov_series_fields(unstable_runs):
    table = flow.lyapunov_series(unstable_runs[+1])
    assert set(table) == {"t", "E2hat_over_lam2"}


def test_flow_grid_ends_on_the_requested_radii():
    # make_grid pins both ends; exp(log x) alone misses most x by a few ulps
    for x in np.random.default_rng(0).uniform(100.0, 1000.0, 1000):
        nodes = flow._flow_grid(0.02 * x / 500.0, x, 120).nodes
        assert nodes[0] == 0.02 * x / 500.0 and nodes[-1] == x


def test_remesh_keeps_the_dirichlet_radius(params):
    r_max = 921.0340371976184  # march's r_max, whose exp(log r_max) is an ulp above
    grid = flow._flow_grid(0.02, r_max, 120)
    u = radial.q_soliton(grid.nodes)
    assert grid.y_max == r_max
    for lam in (0.5, 0.25, 0.125):
        grid, u = flow._remesh(params, grid, u, lam)
        assert grid.y_max == r_max


def test_remesh_preserves_the_solution(params):
    g = flow._flow_grid(0.02, 100.0, 120)
    r = g.nodes
    u = radial.q_soliton(r) + 0.01 * np.exp(-(r**2))
    g2, u2 = flow._remesh(params, g, u, 0.5)
    r2 = g2.nodes
    assert r2[0] < r[0] and r2[-1] == r[-1]
    overlap = (r2 >= r[0]) & (r2 <= 50.0)
    expected = radial.q_soliton(r2[overlap]) + 0.01 * np.exp(-(r2[overlap] ** 2))
    assert np.max(np.abs(u2[overlap] - expected)) < 1e-5
