"""Property suites for the weighted functional inequalities."""

import numpy as np
import pytest

from blowlab import inequalities as ineq
from blowlab import profiles, radial

from conftest import coercivity_H_adversarial, same_bits


@pytest.fixture(scope="module")
def sgrid():
    return ineq.default_grid()


@pytest.fixture(scope="module")
def refined():
    return ineq.default_grid(n=8192)


def test_sampler_families_are_regular(sgrid):
    for family in ineq.FAMILIES:
        sampler = ineq.TestFunctionSampler(seed=2, family=family)
        for _ in range(10):
            v, vp, vpp = sampler.sample(sgrid, derivatives=True)
            assert np.all(np.isfinite(v))
            # radial regularity: derivative vanishes toward the origin
            assert abs(vp[0]) < 1e-2 * (np.max(np.abs(v)) + 1e-30)
            # decay at the outer edge
            assert np.max(np.abs(v[sgrid.nodes > 2.4 * ineq.SAMPLER_SUPPORT])) \
                <= 1e-10 * (np.max(np.abs(v)) + 1e-30)


def test_sampler_is_deterministic(sgrid):
    for family in ineq.FAMILIES:
        a = ineq.TestFunctionSampler(seed=5, family=family).sample(sgrid)
        b = ineq.TestFunctionSampler(seed=5, family=family).sample(sgrid)
        assert a.shape == sgrid.nodes.shape
        assert np.array_equal(a, b)
        a = ineq.TestFunctionSampler(seed=5, family=family).sample(sgrid, derivatives=True)
        b = ineq.TestFunctionSampler(seed=5, family=family).sample(sgrid, derivatives=True)
        assert len(a) == 3 and all(np.array_equal(p, q) for p, q in zip(a, b))


@pytest.mark.parametrize("family", ineq.FAMILIES)
def test_values_only_sampling_keeps_the_values_and_the_draws(sgrid, family):
    # the two forms alternate between two samplers of one seed: each sample
    # agrees bit for bit with the other form's values, so every draw after
    # either form is the same
    for seed in (0, 3, 17, 2024):
        a = ineq.TestFunctionSampler(seed=seed, family=family)
        b = ineq.TestFunctionSampler(seed=seed, family=family)
        for k in range(6):
            first, second = (a, b) if k % 2 == 0 else (b, a)
            values = first.sample(sgrid)
            full = second.sample(sgrid, derivatives=True)
            assert same_bits(values, full[0]), (seed, k)


def _sample_by_uniform_draws(rng, grid, family, derivatives):
    """The sampler with one rng.uniform call per parameter, the oracle for
    its batched draws."""
    y = grid.nodes
    if family == "gaussian-bumps":
        y2 = grid.y2
        f, fp, fpp = np.zeros_like(y), np.zeros_like(y), np.zeros_like(y)
        for _ in range(rng.integers(2, 5)):
            a = rng.uniform(-1.0, 1.0)
            c = rng.uniform(0.0, 0.5 * ineq.SAMPLER_SUPPORT)
            w = rng.uniform(max(1.0, 0.35 * c), max(2.0, 0.5 * c))
            c2, w2 = c**2, w**2
            ring = slice(*y2.searchsorted((c2 - ineq.BUMP_REACH * w2,
                                           c2 + ineq.BUMP_REACH * w2)))
            z = y2[ring] - c2
            z /= w2
            g = np.exp(-(z * z))
            if derivatives:
                yr = y[ring]
                yw = 2.0 * yr / w2
                gp = g * (-2.0 * z) * yw
                gpp = g * ((2.0 * z * 2.0 * yr / w2) ** 2 - 2.0 * yw**2 - 2.0 * z * 2.0 / w2)
                fp[ring] += a * gp
                fpp[ring] += a * gpp
            f[ring] += a * g
        return (f, fp, fpp) if derivatives else f
    s = rng.uniform(1.0, 0.3 * ineq.SAMPLER_SUPPORT)
    coef = rng.uniform(-1.0, 1.0, size=4)
    u = (y / s) ** 2
    e = np.exp(-u)
    p = coef[0] + u * (coef[1] + u * (coef[2] + u * coef[3]))
    if not derivatives:
        return p * e
    up = 2.0 * y / s**2
    dp = coef[1] + u * (2.0 * coef[2] + 3.0 * coef[3] * u)
    d2p = 2.0 * coef[2] + 6.0 * coef[3] * u
    return (p * e, e * up * (dp - p),
            e * ((2.0 / s**2) * (dp - p) + up**2 * (d2p - 2.0 * dp + p)))


@pytest.mark.parametrize("family", ineq.FAMILIES)
@pytest.mark.parametrize("derivatives", [False, True])
def test_batched_draws_match_uniform_draws(sgrid, refined, family, derivatives):
    # lo + (hi - lo) u from one rng.random call per sample is the bits of
    # one rng.uniform(lo, hi) per parameter, sample after sample
    for grid in (sgrid, refined):
        for seed in (0, 1, 7, 2024):
            sampler = ineq.TestFunctionSampler(seed=seed, family=family)
            rng = np.random.default_rng(seed)
            for k in range(8):
                got = sampler.sample(grid, derivatives=derivatives)
                want = _sample_by_uniform_draws(rng, grid, family, derivatives)
                assert all(same_bits(g, w) for g, w in zip(np.atleast_2d(got),
                                                          np.atleast_2d(want))), (seed, k)


def _log_derivatives(grid, v):
    vt = np.gradient(v, grid.t)
    return vt / grid.nodes, (np.gradient(vt, grid.t) - vt) / grid.nodes**2


def _h_ratio_by_formula(grid, u):
    # the ratio with every y-power and log weight evaluated in place
    y, w = grid.nodes, grid.weights
    up, upp = _log_derivatives(grid, u)
    hu = radial.apply_H(grid, u)
    num = (np.dot(w, upp**2) + np.dot(w, up**2 / y**2)
           + np.dot(w, u**2 / (y**4 * ineq._log_weight(y) ** 2)))
    return num / max(np.dot(w, hu**2), 1e-300)


def _h2_ratio_by_formula(grid, u):
    y, w = grid.nodes, grid.weights
    lw = ineq._log_weight
    hu = radial.apply_H(grid, u)
    h2u = radial.apply_H(grid, hu)
    up, upp = _log_derivatives(grid, u)
    hup, hupp = _log_derivatives(grid, hu)
    num = (
        np.dot(w, hu**2 / (y**4 * lw(y) ** 2))
        + np.dot(w, hup**2 / (y**2 * lw(y) ** 2))
        + np.dot(w, hupp**2 / lw(y) ** 2)
        + np.dot(w, u**2 / (y**4 * (1 + y**4) * lw(y) ** 2))
        + np.dot(w, up**2 / (y**6 * lw(y) ** 2))
        + np.dot(w, upp**2 / (y**4 * lw(y) ** 2))
    )
    return num / max(np.dot(w, h2u**2), 1e-300)


def _hardy_by_formula(sampler, n, grid):
    # one sample at a time, masks and weights rebuilt per sample
    y, w = grid.nodes, grid.weights
    lw = ineq._log_weight
    gamma = ineq.HARDY_GAMMA
    worst = {"identity": 0.0, "hardy1": 0.0, "hardy2": 0.0, "hardy3": 0.0}
    for _ in range(n):
        v, vp, vpp = sampler.sample(grid, derivatives=True)
        lap = vpp + 3.0 * vp / y
        lhs_id = np.dot(w, lap**2)
        rhs_id = np.dot(w, vpp**2) + 3.0 * np.dot(w, vp**2 / y**2)
        scale = max(lhs_id, rhs_id, 1e-300)
        worst["identity"] = max(worst["identity"], abs(lhs_id - rhs_id) / scale)
        worst["hardy1"] = max(
            worst["hardy1"],
            (np.dot(w, vpp**2) + np.dot(w, vp**2 / y**2)) / max(lhs_id, 1e-300))
        in_r = y <= ineq.HARDY_R
        band = (y >= 1.0) & (y <= 2.0)
        lhs2 = np.dot(w[in_r], (v**2 / (y**4 * lw(y) ** 2))[in_r])
        rhs2 = np.dot(w[in_r], (vp**2 / y**2)[in_r]) + np.dot(w[band], (v**2)[band])
        worst["hardy2"] = max(worst["hardy2"], lhs2 / max(rhs2, 1e-300))
        ring = (y >= 1.0) & (y <= ineq.HARDY_R)
        lhs3 = np.dot(w[ring], (v**2 / (y ** (4 + gamma) * lw(y) ** 2))[ring])
        rhs3 = (np.dot(w[ring], (vp**2 / (y ** (2 + gamma) * lw(y) ** 2))[ring])
                + np.dot(w[band], (v**2)[band]))
        worst["hardy3"] = max(worst["hardy3"], lhs3 / max(rhs3, 1e-300))
    return worst


@pytest.mark.parametrize("family", ineq.FAMILIES)
def test_suite_ratios_match_their_formulas_bit_for_bit(sgrid, family):
    # the suites build the sample-free factors once per grid, in the
    # operation order of the quotients they enter
    den = ineq._denominators(sgrid, ineq._log_weight(sgrid.nodes) ** 2)
    for seed in (0, 5):
        sampler = ineq.TestFunctionSampler(seed=seed, family=family)
        for _ in range(3):
            v = sampler.sample(sgrid)
            assert same_bits(ineq._h_ratio(sgrid, v, den), _h_ratio_by_formula(sgrid, v))
            assert same_bits(ineq._h2_ratio(sgrid, v, den), _h2_ratio_by_formula(sgrid, v))
    rep = ineq.hardy_suite(ineq.TestFunctionSampler(seed=2, family=family), 50, grid=sgrid)
    expected = _hardy_by_formula(ineq.TestFunctionSampler(seed=2, family=family), 50, sgrid)
    for key, value in expected.items():
        assert same_bits(rep.details[key], value), key


def test_sampler_rejects_unknown_family():
    with pytest.raises(ValueError):
        ineq.TestFunctionSampler(family="fourier")


def test_hardy_identity_on_smooth_families(refined):
    for family in ("gaussian-bumps", "polynomial-decay"):
        rep = ineq.hardy_suite(
            ineq.TestFunctionSampler(seed=7, family=family), 50, grid=refined)
        assert rep.details["identity"] < 1e-6
        assert not rep.violated


def test_hardy_ratios_bounded_and_saturating(sgrid):
    rep1 = ineq.hardy_suite(ineq.TestFunctionSampler(seed=1), 50, grid=sgrid)
    rep2 = ineq.hardy_suite(ineq.TestFunctionSampler(seed=1), 100, grid=sgrid)
    assert rep1.details["hardy1"] <= 1.0 + 1e-9  # identity makes it sharp
    for key in ("hardy2", "hardy3"):
        assert 0 < rep2.details[key] < 10.0
        assert rep2.details[key] < 1.2 * max(rep1.details[key], 1e-30) + 1e-9


def test_subpositivity(sgrid):
    rep = ineq.subpositivity_suite(
        ineq.TestFunctionSampler(seed=3), 200, grid=sgrid)
    assert not rep.violated
    assert rep.details["violations"] == 0
    # saturation along the eigen-direction
    pair = radial.unstable_mode(sgrid)
    quad = np.dot(sgrid.weights, radial.apply_H(sgrid, pair.psi) * pair.psi)
    assert abs(quad + pair.zeta) < 1e-6


def test_subpositivity_projected_orthogonal(sgrid):
    pair = radial.unstable_mode(sgrid)
    sampler = ineq.TestFunctionSampler(seed=9)
    w = sgrid.weights
    for _ in range(25):
        v = sampler.sample(sgrid)
        u = v - np.dot(w, v * pair.psi) * pair.psi
        quad = np.dot(w, radial.apply_H(sgrid, u) * u)
        assert quad >= -1e-8 * np.dot(w, u * u)


def test_coercivity_H_stability_and_adversary(sgrid, refined):
    reps = [
        ineq.coercivity_H_suite(ineq.TestFunctionSampler(seed=s), 100, grid=sgrid)
        for s in (11, 211)
    ]
    fine = ineq.coercivity_H_suite(
        ineq.TestFunctionSampler(seed=11), 100, grid=refined)
    worsts = [r.worst_ratio for r in reps] + [fine.worst_ratio]
    assert max(worsts) / min(worsts) < 1.3
    adversarial = coercivity_H_adversarial(grid=sgrid)
    assert adversarial > 10.0 * max(worsts)


def test_coercivity_H2_stability(sgrid, refined):
    reps = [
        ineq.coercivity_H2_suite(ineq.TestFunctionSampler(seed=s), 100, grid=sgrid)
        for s in (13, 313)
    ]
    fine = ineq.coercivity_H2_suite(
        ineq.TestFunctionSampler(seed=13), 100, grid=refined)
    worsts = [r.worst_ratio for r in reps] + [fine.worst_ratio]
    assert max(worsts) / min(worsts) < 1.3
    assert all(r.details["projection_residual"] < 1e-11 for r in reps)


def test_ratio_scale_invariance(sgrid):
    sampler = ineq.TestFunctionSampler(seed=5)
    v = sampler.sample(sgrid)
    den = ineq._denominators(sgrid, ineq._log_weight(sgrid.nodes) ** 2)
    assert abs(ineq._h2_ratio(sgrid, v, den) - ineq._h2_ratio(sgrid, 2.0 * v, den)) < 1e-9


def _spotcheck_by_formula(grid, eps, b):
    # the spotcheck's details with every y-power and its weight 1 + log^2 y
    # evaluated in place
    y, w = grid.nodes, grid.weights
    he = radial.apply_H(grid, eps)
    h2e = radial.apply_H(grid, he)
    E2 = float(np.dot(w, he * he))
    E4 = float(np.dot(w, h2e * h2e))
    ep, epp = _log_derivatives(grid, eps)
    hep, hepp = _log_derivatives(grid, he)
    lw2 = 1.0 + np.log(y) ** 2
    lhs_e4 = (
        np.dot(w, he**2 / (y**4 * lw2))
        + np.dot(w, hep**2 / (y**2 * lw2))
        + np.dot(w, hepp**2 / lw2)
        + np.dot(w, eps**2 / (y**4 * (1 + y**4) * lw2))
        + np.dot(w, ep**2 / (y**6 * lw2))
        + np.dot(w, epp**2 / (y**4 * lw2))
    )
    lhs_e2 = (np.dot(w, eps**2 / (y**4 * lw2)) + np.dot(w, ep**2 / (y**2 * lw2))
              + np.dot(w, epp**2))
    sup_tail = float(np.max(np.abs(eps / (1.0 + y)))) ** 2
    return {
        "estun_over_E4": float(lhs_e4 / E4),
        "estunbis_over_E2": float(lhs_e2 / E2),
        "supnorm_tail": sup_tail,
        "supnorm_over_b3logC": sup_tail / (b**3 * profiles.log_binv(b) ** 2),
    }


def test_interpolation_spotcheck_matches_its_formula_bit_for_bit(sgrid):
    # the spotcheck shares the suites' six-term E4 sum and divisors, with
    # its own weight 1 + log^2 y, and keeps every detail's bits: on the
    # verify command's eps and on a sampled one
    y = sgrid.nodes
    for eps in (1e-4 * y**2 * np.exp(-y**2), ineq.TestFunctionSampler(seed=3).sample(sgrid)):
        rep = ineq.interpolation_spotcheck(sgrid, eps, b=3e-3)
        expected = _spotcheck_by_formula(sgrid, eps, 3e-3)
        assert rep.details.keys() == expected.keys()
        for key, value in expected.items():
            assert same_bits(rep.details[key], value), key


def test_interpolation_spotcheck_zero_input(sgrid):
    rep = ineq.interpolation_spotcheck(sgrid, np.zeros(sgrid.n), b=1e-3)
    assert rep.worst_ratio == 0.0
    assert rep.details["supnorm_tail"] == 0.0


def test_interpolation_spotcheck_scales(sgrid):
    y = sgrid.nodes
    eps = 1e-4 * y**2 * np.exp(-(y**2))
    rep = ineq.interpolation_spotcheck(sgrid, eps, b=1e-3)
    assert np.isfinite(rep.details["estun_over_E4"])
    assert np.isfinite(rep.details["estunbis_over_E2"])
    assert rep.details["supnorm_over_b3logC"] > 0
