"""Acceptance gate: one test per criterion.

Each criterion prints one `[criterion N] PASS/FAIL` line (run with -s to see
them all) with the value the construction predicts beside the measured one.
Criteria 1, 8, 9 and 10 are asserted as stated.  Criteria 2-6 state leading
asymptotic terms of the paper's law lambda ~ (T - t)/|log(T - t)|^2, whose
corrections are O(1/|log b|) (or O(1/log s)); each window is asserted where
the construction's own identities put the leading term inside it, and the
identity that fixes the correction is asserted beside it.  The closed forms
live in conftest.py and are checked in test_profiles.py.

2. H T1 = -Lambda Q with T1 regular at 0 gives, by variation of parameters,
   T1 = -Gamma I1 + Lambda Q int_0^y Lambda Q Gamma s^3 ds with
   I1 = int_0^y (Lambda Q)^2 s^3 ds = 64 log y - (32/3)(7 + 9 log 2) + O(1/y^2).
   Gamma -> 1/16 and Lambda Q ~ -8/y^2 then give
   T1 = -4 (log y - c_inf) + O(log^2 y / y^2), c_inf = 5/3 + (3/2) log 2
   = 2.7064.  The only regular kernel element, Lambda Q, decays and cannot
   move the constant, so no such T1 has the far field -4 (log y - 1/2);
   the window is asserted against c_inf.
3. 64/c_b = int chi_{B0/4} (Lambda Q)^2 y^3 dy = -int chi'_{B0/4} I1 dy
   = 32 |log b| + K_inf + O(b), with K_inf = 64 (mu_chi - log 4)
   - (32/3)(7 + 9 log 2) = -204.22 and mu_chi = int_1^2 chi(x) dx/x.  So
   c_b |log b|/2 = 32 L/(32 L + K_inf), L = |log b|: 3.22 at b = 1e-4, and
   inside [0.85, 1.15] only for b <~ 6e-22.  The window is asserted at
   b = 1e-30 and 1e-40, the exact integral and the plateau identities at
   every b.
4. On y <= B0/4 the residual is b^2 c_b T1 + O(b^3), the term whose
   projection criterion 5 measures as the flux, so
   norm_w8 = b^4 c_b^2 int T1^2 y^3/(1 + y^8) dy (1 + O(b)), not ~ b^6.  The
   sweep leaves out b = 1e-2, where B0/4 = 2.5 lies below the zero sqrt 8 of
   Lambda Q and the radiation degenerates (c_b is 138 times its asymptote).
   The H-norm slope stays as stated and fails: norm_H/b^4 is flat over the
   sweep, so dividing by |log b|^2 tilts the fitted slope by about
   2/|log b| = 0.29, just outside 4 +- 0.3.
5. Where the support [0, 2M] of Phi_M lies on the radiation plateau
   (2M <= B0/4, i.e. b <= 6.25e-6), H Psi = -b^2 c_b Lambda Q there and the
   flux is exactly -c_b b^2; hence flux |log b|/b^2 = -2 (c_b |log b|/2),
   which criterion 3's formula puts at -2.42, -2.32 and -2.20 for b = 1e-16,
   1e-20 and 1e-30.  At the stated b = 3e-3 .. 3e-4, 2M = 100 lies beyond
   B0/4 = 4.6 .. 14; there only the sign is asserted.
6. b_s = -b^2 (1 + 2/|log b|) integrates to
   s b = 1 - 2/log s + 2/log^2 s + O(1/log^3 s), which is 0.866 at s = 1e6:
   the window [0.95, 1.0] is entered only for s >~ 2e17.  It is asserted at
   s = 1e30, and at s = 1e6 the two-term law within log log s / log^2 s.

Criterion 7 is asserted exactly as stated and fails.  A tracked tenfold
decay of lambda needs about 9/b0 of controlled rescaled time, over which the
unstable mode grows like e^(zeta s), zeta = 0.586: about 10^229 at
b0 = 0.01, far beyond what one bisected amplitude in double precision can
control, at any b0.  At b0 = 0.01 every run also loses its decomposition
within a few dozen steps and ends with lambda decayed by a few percent.
"""

import filecmp
import os
import warnings

import numpy as np
import pytest

from blowlab import cli, flow, inequalities as ineq, modulation, profiles, radial
from blowlab.config import RunConfig, parse_config

from conftest import (RADIATION_OFFSET, T1_FAR_CONSTANT, ExactProfileCache,
                      coercivity_H_adversarial, l2_window, radiation_mass_exact,
                      radiation_scaled_asymptotic)


def report(criterion: int, ok: bool, detail: str) -> str:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------


def test_criterion_1_static_identities(grid, fine_grid):
    orders = {}
    for name, build, target in (
        ("H(LambdaQ)", radial.lambda_q, lambda y: np.zeros_like(y)),
        ("H(Q)+2Q^3", radial.q_soliton, lambda y: -2.0 * radial.q_soliton(y) ** 3),
    ):
        errs = []
        for g in (grid, fine_grid):
            res = radial.apply_H(g, build(g.nodes)) - target(g.nodes)
            errs.append(l2_window(g, res))
        orders[name] = np.log2(errs[0] / errs[1])
    y = np.logspace(-3, 3, 100)
    wronskian = np.max(np.abs(
        y**3 * (radial.gamma_growing(y) * radial.lambda_q_prime(y)
                - radial.gamma_growing_prime(y) * radial.lambda_q(y)) - 1.0))
    hardy = ineq.hardy_suite(
        ineq.TestFunctionSampler(seed=7), 50, grid=ineq.default_grid(n=8192))
    ok = (min(orders.values()) >= 1.8 and wronskian < 1e-8
          and hardy.details["identity"] < 1e-6)
    msg = report(1, ok, f"orders={ {k: round(v, 2) for k, v in orders.items()} }, "
                        f"wronskian dev={wronskian:.2e}, "
                        f"hardy identity={hardy.details['identity']:.2e}")
    assert ok, msg


def test_criterion_2_T1_asymptote(grid):
    t1 = profiles._t1_parts(grid)[0]
    i = np.searchsorted(grid.nodes, 1e3)
    y, t1_y = grid.nodes[i], t1[i]
    ratio = t1_y / (-4.0 * (np.log(y) - T1_FAR_CONSTANT))
    ok = 0.98 <= ratio <= 1.02
    msg = report(2, ok, f"T1(1e3)/(-4(log y - c_inf)) = {ratio:.4f} (window "
                        f"[0.98, 1.02]); log y + T1/4 = {np.log(y) + t1_y / 4.0:.4f}, "
                        f"predicted c_inf = 5/3 + (3/2) log 2 = {T1_FAR_CONSTANT:.4f}; "
                        f"against the constant 1/2 the ratio is "
                        f"{t1_y / (-4.0 * (np.log(y) - 0.5)):.4f}")
    assert ok, msg


DEEP_B3 = (1e-30, 1e-40)


@pytest.fixture(scope="module")
def deep_grid():
    """Log grid covering 6 B0 at b = 1e-40 and 4 B1 at b = 1e-30."""
    return radial.make_grid(1e-4, 1e21, 16384)


def test_criterion_3_radiation_constants(grid, deep_grid):
    scaled = {}
    exact = {}
    plateaus_ok = True
    for b, g in [(b, grid) for b in (1e-2, 1e-3, 1e-4)] + [(b, deep_grid) for b in DEEP_B3]:
        t1 = profiles._t1_parts(g)[0]
        y = g.nodes
        sigma, c_b, _ = profiles.radiation_sigma(b, g, g.n)
        lb = profiles.log_binv(b)
        scaled[b] = c_b * lb / 2.0
        exact[b] = 32.0 * lb / radiation_mass_exact(b)
        b0 = b**-0.5
        inner = y <= b0 / 4.0
        outer = y >= 6.0 * b0
        inner_dev = np.max(np.abs(sigma[inner] + c_b * t1[inner]))
        outer_dev = np.max(np.abs(sigma[outer] - 64.0 * radial.gamma_growing(y[outer])))
        plateaus_ok &= inner_dev < 1e-9 and outer_dev < 1e-7
    exact_dev = max(abs(scaled[b] / exact[b] - 1.0) for b in scaled)
    window_ok = all(0.85 <= scaled[b] <= 1.15 for b in DEEP_B3)
    ok = window_ok and exact_dev <= 1e-4 and plateaus_ok
    pairs = {b: f"{v:.3f} (predicted {exact[b]:.3f})" for b, v in scaled.items()}
    msg = report(3, ok, f"c_b|log b|/2 = {pairs} (window [0.85, 1.15] at b = "
                        f"{DEEP_B3}, where 32L/(32L + K_inf) = "
                        f"{[round(radiation_scaled_asymptotic(b), 3) for b in DEEP_B3]}, "
                        f"K_inf = {RADIATION_OFFSET:.2f}); c_b against the exact "
                        f"64/(-int chi' I1): max rel dev {exact_dev:.1e} (need <= 1e-4); "
                        f"plateau identities exact (inner = -c_b T1, outer = "
                        f"64 Gamma): {plateaus_ok}")
    assert ok, msg


SWEEP4 = (3e-3, 1e-3, 3e-4)


@pytest.fixture(scope="module")
def sweep_reports(grid):
    return {b: profiles.error_Psi(b, grid, M=50.0) for b in SWEEP4}


def test_criterion_4_residual_scalings(grid, sweep_reports):
    t1 = profiles._t1_parts(grid)[0]
    t1_w8 = float(np.dot(grid.weights, t1**2 / (1.0 + grid.nodes**8)))
    ratios = {"H": [], "w8": [], "H2": []}
    for b in SWEEP4:
        rep = sweep_reports[b]
        lb = profiles.log_binv(b)
        c_b = profiles.radiation_sigma(b, grid, grid.n)[1]
        ratios["H"].append(rep.norm_H / (b**4 * lb**2))
        ratios["w8"].append(rep.norm_w8 / (b**4 * c_b**2 * t1_w8))
        ratios["H2"].append(rep.norm_H2 * lb**2 / b**6)
    spreads = {k: max(v) / min(v) for k, v in ratios.items()}
    nh = np.array([sweep_reports[b].norm_H for b in SWEEP4])
    lbs = np.array([profiles.log_binv(b) for b in SWEEP4])
    slope = np.polyfit(np.log(SWEEP4), np.log(nh / lbs**2), 1)[0]
    ok = all(s < 5.0 for s in spreads.values()) and abs(slope - 4.0) <= 0.3
    # if norm_H ~ b^4 exactly, the lb^2 division adds the slope of -2 log lb
    flat_slope = 4.0 + np.polyfit(np.log(SWEEP4), -2.0 * np.log(lbs), 1)[0]
    nh_b4 = nh / np.array(SWEEP4) ** 4
    msg = report(4, ok, f"spreads={ {k: round(v, 2) for k, v in spreads.items()} } "
                        f"(need < 5); norm_w8/(b^4 c_b^2 int T1^2 y^3/(1+y^8)) = "
                        f"{[round(v, 4) for v in ratios['w8']]} (predicted 1 + O(b)); "
                        f"slope={slope:.4f} (need 4 +- 0.3; norm_H/b^4 is flat, "
                        f"spread {nh_b4.max() / nh_b4.min():.2f}, so the |log b|^2 "
                        f"division alone predicts {flat_slope:.4f})")
    assert ok, msg


DEEP_B5 = (1e-16, 1e-20, 1e-30)


def test_criterion_5_flux(sweep_reports, deep_grid):
    signs_ok = all(sweep_reports[b].flux_ratio < 0 for b in SWEEP4)
    stated = {b: sweep_reports[b].flux_ratio * profiles.log_binv(b) / b**2 for b in SWEEP4}
    identity = {}
    vals = {}
    for b in (6.25e-6, 1e-6) + DEEP_B5:
        flux = profiles.error_Psi(b, deep_grid, M=50.0).flux_ratio
        c_b = profiles.radiation_sigma(b, deep_grid, deep_grid.n)[1]
        identity[b] = flux / (-c_b * b**2)
        vals[b] = flux * profiles.log_binv(b) / b**2
    identity_ok = all(abs(v - 1.0) <= 1e-3 for v in identity.values())
    in_window = all(-2.6 <= vals[b] <= -1.4 for b in DEEP_B5)
    seq = [vals[b] for b in DEEP_B5]
    trending = abs(seq[2] + 2.0) < abs(seq[0] + 2.0)
    ok = signs_ok and identity_ok and in_window and trending
    pairs = {b: f"{vals[b]:.3f} (predicted {-2.0 * radiation_scaled_asymptotic(b):.3f})"
             for b in DEEP_B5}
    msg = report(5, ok, f"flux*|log b|/b^2 = {pairs} (window [-2.6, -1.4], "
                        f"trending to -2: {trending}); flux/(-c_b b^2) for "
                        f"b <= 6.25e-6 = { {b: round(v, 5) for b, v in identity.items()} } "
                        f"(predicted 1, need +- 1e-3); at the stated b "
                        f"{ {b: round(v, 2) for b, v in stated.items()} }, "
                        f"sign negative: {signs_ok}")
    assert ok, msg


def test_criterion_6_reduced_law():
    tr = modulation.integrate_reduced(0.01, 1.0, 1e6)
    s, sb = tr.s[-1], tr.s[-1] * tr.b[-1]
    L = np.log(s)
    law_dev = abs(sb - (1.0 - 2.0 / L))
    law_ok = law_dev <= np.log(L) / L**2
    deep = modulation.integrate_reduced(0.01, 1.0, 1e30, n_samples=1200)
    s_deep, sb_deep = deep.s[-1], deep.s[-1] * deep.b[-1]
    L_deep = np.log(s_deep)
    sb_ok = 0.95 <= sb_deep <= 1.0 and law_ok
    fit = modulation.fit_blowup_law(deep)
    mask = deep.lam <= deep.lam[-1] * 10.0
    comp = deep.lam[mask] * np.log(deep.tau[mask]) ** 2 / deep.tau[mask]
    drift = comp.max() / comp.min() - 1.0
    fit_ok = abs(fit.exponent - 1.0) <= 0.05 and drift < 0.05
    ok = sb_ok and fit_ok
    msg = report(6, ok, f"s*b(1e30)={sb_deep:.4f} (window [0.95, 1.0]; predicted "
                        f"1 - 2/log s + 2/log^2 s = {1 - 2 / L_deep + 2 / L_deep**2:.4f}); "
                        f"s*b(1e6)={sb:.4f} (predicted {1 - 2 / L + 2 / L**2:.4f}), "
                        f"|s*b - (1 - 2/log s)| = {law_dev:.4f} (need <= log log s/log^2 s "
                        f"= {np.log(L) / L**2:.4f}); "
                        f"deep-window fit exponent={fit.exponent:.4f}, "
                        f"final-decade drift={drift:.3f} (both attained at s=1e30)")
    assert ok, msg


@pytest.fixture(scope="module")
def desk_scale_shot():
    """Criterion-7 runs: the stated bracket, then a widened demonstration."""
    params = RunConfig(command="simulate", b0=0.01, kappa_exit_factor=2.0,
                       max_steps=200_000)
    cache = flow.ProfileCache(params)
    w = flow.admissible_window(params.b0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lo = flow.simulate(flow.replace(params, a_plus=-w), cache=cache)
        hi = flow.simulate(flow.replace(params, a_plus=+w), cache=cache)
    literal_bracket = (lo.classification, hi.classification)
    demo_params = RunConfig(command="shoot", b0=0.01, kappa_exit_factor=2e4,
                            max_steps=12000, budget=40)
    result = flow.shoot(demo_params, cache=cache)  # grows its own bracket
    return literal_bracket, result.history[0], result


def test_criterion_7_desk_scale_simulation(desk_scale_shot):
    literal, bracket, result = desk_scale_shot
    best = result.best
    lam = best.series("lam")
    decay = 1.0 / np.nanmin(lam[np.isfinite(lam)])
    mr = flow.modulation_residuals(best)
    if mr["s"].size:
        lam_res = float(np.max(np.abs(mr["lam_res"]) / mr["b_mid"]))
    else:
        lam_res = np.inf
    width = result.bracket[1] - result.bracket[0]
    mechanics_ok = (result.iterations <= 40
                    and width <= (bracket[1] - bracket[0]) * 2.0**-39)
    tracked_ok = (best.classification is flow.RunClass.TypeII_tracking
                  and decay >= 10.0 and lam_res <= 0.2)
    ok = tracked_ok  # the criterion's substance
    msg = report(
        7, ok,
        f"stated bracket +-2b^2.5/|log b| classifies as "
        f"({literal[0].value}, {literal[1].value}) - no sign change (profile "
        f"residual forces kappa at ~1e3 x the admissible window); widened "
        f"bracket {bracket[1]:.3g} bisected {result.iterations} steps to "
        f"width {width:.2e} (mechanics ok: {mechanics_ok}); deepest run: "
        f"class={best.classification.value}, lambda decay x{decay:.3f} "
        f"(need x10; unstable mode grows e^(zeta s) ~ 10^229 over that "
        f"window), |lam_s/lam + b|/b max={lam_res:.2f}")
    assert ok, msg


def test_criterion_8_orthogonal_decomposition():
    params = RunConfig(command="simulate", b0=1e-3, nodes_per_decade=100)
    cache = ExactProfileCache(params)
    from scipy.interpolate import CubicSpline

    qt = CubicSpline(cache.grid.t, profiles.assemble_profiles(1e-3, cache.grid).Q_b_tilde)
    worst_err = 0.0
    worst_res = 0.0
    for lam_true, delta in ((0.7, 1e-5), (0.7, 1e-4), (1.3, 1e-4)):
        g = flow._flow_grid(0.02 * lam_true, 30.0 * lam_true * 218.0, 100)
        y = g.nodes / lam_true
        inside = y <= cache.grid.y_max
        vals = np.where(inside, qt(np.log(np.minimum(y, cache.grid.y_max))),
                        radial.q_soliton(y))
        u = (vals + delta * np.exp(-(y**2)) * y**2) / lam_true
        lam, b, dd = flow.decompose(cache, g, u, (lam_true * 1.0005, 1e-3))
        worst_err = max(worst_err, abs(lam - lam_true) / (10.0 * delta),
                        abs(b - 1e-3) / (10.0 * delta))
        worst_res = max(worst_res, dd["res_phi"], dd["res_hphi"])
    ok = worst_err < 1.0 and worst_res < 1e-11
    msg = report(8, ok, f"worst (lam, b) error = {worst_err:.3f} x (10 delta), "
                        f"worst orthogonality residual = {worst_res:.2e}")
    assert ok, msg


def test_criterion_9_inequality_suites():
    sgrid = ineq.default_grid()
    refined = ineq.default_grid(n=8192)
    sub = ineq.subpositivity_suite(ineq.TestFunctionSampler(seed=3), 200, grid=sgrid)
    worsts = [
        ineq.coercivity_H_suite(ineq.TestFunctionSampler(seed=s), 100, grid=g).worst_ratio
        for s, g in ((11, sgrid), (211, sgrid), (11, refined))
    ]
    worsts2 = [
        ineq.coercivity_H2_suite(ineq.TestFunctionSampler(seed=s), 100, grid=g).worst_ratio
        for s, g in ((13, sgrid), (313, sgrid), (13, refined))
    ]
    adversarial = coercivity_H_adversarial(grid=sgrid)
    stable = (max(worsts) / min(worsts) < 1.3 and max(worsts2) / min(worsts2) < 1.3)
    ok = (sub.details["violations"] == 0
          and np.isfinite(worsts).all() and np.isfinite(worsts2).all()
          and stable and adversarial >= 10.0 * max(worsts))
    msg = report(9, ok, f"subpositivity violations={sub.details['violations']}/200 "
                        f"(C_fit={sub.details['C_fit']:.4f}); coercivity worst "
                        f"ratios H={max(worsts):.3f} H2={max(worsts2):.3f} "
                        f"(stability < x1.3: {stable}); adversarial/bulk = "
                        f"{adversarial / max(worsts):.1f} (need >= 10)")
    assert ok, msg


def test_criterion_10_determinism(tmp_path):
    cfg = parse_config("command=modulation b0=0.004 s_end=1e5 fit_s_end=1e8")
    m1 = cli.run(cfg, out_override=str(tmp_path))
    m2 = cli.run(cfg, out_override=str(tmp_path))
    same = filecmp.cmp(os.path.join(m1["run_dir"], "trajectory.csv"),
                       os.path.join(m2["run_dir"], "trajectory.csv"),
                       shallow=False)
    ok = bool(same)
    msg = report(10, ok, "identical config re-run produced byte-identical CSV")
    assert ok, msg
