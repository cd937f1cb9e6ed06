"""Property suites for the weighted functional inequalities."""

import numpy as np
import pytest

from blowlab import inequalities as ineq
from blowlab import radial


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
            v, vp, vpp = sampler.sample(sgrid)
            assert np.all(np.isfinite(v))
            # radial regularity: derivative vanishes toward the origin
            assert abs(vp[0]) < 1e-2 * (np.max(np.abs(v)) + 1e-30)
            # decay at the outer edge
            assert np.max(np.abs(v[sgrid.nodes > 2.4 * ineq.SAMPLER_SUPPORT])) \
                <= 1e-10 * (np.max(np.abs(v)) + 1e-30)


def test_sampler_is_deterministic(sgrid):
    a = ineq.TestFunctionSampler(seed=5).sample(sgrid)[0]
    b = ineq.TestFunctionSampler(seed=5).sample(sgrid)[0]
    assert np.array_equal(a, b)


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
        v, _, _ = sampler.sample(sgrid)
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
    adversarial = ineq.coercivity_H_adversarial(grid=sgrid)
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
    v, _, _ = sampler.sample(sgrid)
    assert abs(ineq._h2_ratio(sgrid, v) - ineq._h2_ratio(sgrid, 2.0 * v)) < 1e-9


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
