"""Reduced dynamics of (b, lambda) and the blow-up law fit."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from blowlab import modulation
from blowlab.profiles import log_binv

from conftest import b_of_s_asymptotic


@pytest.fixture(scope="module")
def reference_trajectory():
    return modulation.integrate_reduced(0.01, 1.0, 1e6)


def test_states_and_guards():
    with pytest.raises(ValueError):
        modulation.integrate_reduced(-0.01, 1.0, 10.0)
    with pytest.raises(ValueError):
        modulation.integrate_reduced(0.01, 1.0, -1.0)
    for lambda0, s_end in ((1.0, np.inf), (1.0, np.nan), (1.0, 1e300),
                           (np.inf, 1e6), (np.nan, 1e6)):
        with pytest.raises(ValueError, match="s_end"):
            modulation.integrate_reduced(0.01, lambda0, s_end)
    # T - t ~ lambda0^2 |log b|^4 b underflows at s_end
    with pytest.raises(ValueError, match="normal double"):
        modulation.integrate_reduced(0.01, 1e-150, 1e30)


@pytest.mark.parametrize("b0, lambda0, s_end", [
    (1e-9, 2.0, 100.0), (1e-2, 1.0, 1e6), (1e-3, 1.0, 1e30), (0.05, 1.0, 1e30),
    (0.999, 1.0, 1e3)])
def test_closed_form_matches_a_high_order_solve(b0, lambda0, s_end):
    # (1e-9, 2, 100) keeps d = log(b0/b) near 1e-7, where T ~ 4.4e9 and
    # t <= 400: t is summed, not formed as T - (T - t).  (0.999, 1, 1e3)
    # starts at L0 = 1e-3, where S(L0 + d) - S(L0) ~ 92 d nearly cancels
    # against S(L0)(1 - e^-d) in any form of t built from S
    def rhs(_s, state):
        b, lam, _t = state
        return (-b * b * (1.0 + 2.0 / np.log(1.0 / b)), -b * lam, lam * lam)

    tr = modulation.integrate_reduced(b0, lambda0, s_end)
    ref = solve_ivp(rhs, (0.0, s_end), (b0, lambda0, 0.0), method="DOP853",
                    rtol=1e-13, atol=(1e-300, 1e-300, 1e-30), t_eval=tr.s)
    assert ref.success and np.array_equal(ref.t, tr.s)
    for got, want in zip((tr.b, tr.lam, tr.t), ref.y):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(tr.t + tr.tau - tr.T_est)) <= 1e-13 * tr.T_est


# s(d) = e^(L0+d) - e^L0 - 2 e^-2 (Ei(L0+d+2) - Ei(L0+2)) at L0 = log_binv(b0),
# evaluated with mpmath at 80 digits on the exact doubles d and L0
S_OF_D_DS = (1e-9, 0.5, 1.0 - 2.0**-40, 1.0, 1.0 + 2.0**-40, 7.25, 64.0)
S_OF_D_REFERENCE = {
    # b0: (edge d, where s(d) is within 200x of the largest double), s at S_OF_D_DS + (edge,)
    0.049: (701.5, (1.2270831611003665e-08, 8.22698639476128, 22.505953248953634,
                    22.505953248987314, 22.505953249020994, 23572.68047628713,
                    1.2350539647120676e+29, 9.250177878362043e+305)),
    1e-2: (700.25, (6.972068938074109e-08, 45.994504783572275, 123.93812252914033,
                    123.93812252932254, 123.93812252950475, 118674.47198015796,
                    6.055953323538945e+29, 1.2986097379203805e+306)),
    1e-30: (635.5, (9.718617216414108e+20, 6.3053656566254265e+29, 1.6703242596255948e+30,
                    1.6703242596279986e+30, 1.670324259630402e+30, 1.3707079090746586e+33,
                    6.1421357292171446e+57, 9.838082642272122e+305)),
}


@pytest.mark.parametrize("b0", sorted(S_OF_D_REFERENCE))
def test_s_of_d_matches_a_high_precision_reference(b0):
    edge, want = S_OF_D_REFERENCE[b0]
    got = modulation._s_of_d(np.array(S_OF_D_DS + (edge,)), log_binv(b0))
    np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("b0", sorted(S_OF_D_REFERENCE))
def test_s_of_d_is_seamless_at_panel_ends(b0):
    # whole panels sum below an integer d and the partial panel starts at
    # it: across the seam s keeps increasing, and its two increments over
    # 2^-40 on either side agree to 4 ulp of s (s'' moves them by ~1e-24 s)
    seams = np.array([1.0, 2.0, 7.0, 8.0, 64.0, 65.0, 600.0])
    delta = 2.0**-40
    lo, at, hi = modulation._s_of_d(np.concatenate([seams - delta, seams, seams + delta]),
                                    log_binv(b0)).reshape(3, -1)
    assert np.all(lo < at) and np.all(at < hi)
    assert np.all(np.abs((hi - at) - (at - lo)) <= 4.0 * np.spacing(at))


@pytest.mark.parametrize("lambda0", [1e-100, 1.0, 1e100])
def test_subnormal_d_ends_the_inversion(lambda0):
    # at b0 = 1e-300 and s_end = 1e-12 the Newton inversion of s(d) runs on
    # subnormal d, whose steps cannot meet a stop scale of d itself; each
    # call returns a trajectory the guard accepts, or its ValueError
    tiny = np.finfo(float).tiny
    try:
        tr = modulation.integrate_reduced(1e-300, lambda0, 1e-12)
    except ValueError as exc:
        assert "normal double" in str(exc)
        return
    assert tr.b[-1] == 1e-300 and tr.lam[-1] == lambda0
    assert all(tiny <= v < np.inf for v in (tr.lam[-1], tr.tau[-1], tr.T_est))
    if lambda0 == 1.0:
        assert tr.tau[-1] == pytest.approx(1.003e300, rel=1e-3)


def test_tiny_s_end_keeps_every_sample():
    # the log-spaced part starts 8 decades below s_end once s_end <= 1e-8
    for s_end in (1e-9, 1e-8, 1e-12):
        tr = modulation.integrate_reduced(0.01, 1.0, s_end)
        assert tr.s.size == 600 and tr.s[0] == 0.0
        assert np.all(np.diff(tr.s) > 0) and tr.s[-1] == pytest.approx(s_end, rel=1e-14)
    # above 1e-8 the samples keep their bytes
    for s_end in (1.1e-8, 1e-3, 10.0, 1e6, 1e30):
        old = np.clip(np.unique(np.concatenate([[0.0], np.logspace(
            np.log10(max(s_end * 1e-8, 1e-8)), np.log10(s_end), 599)])), 0.0, s_end)
        assert np.array_equal(modulation.integrate_reduced(0.01, 1.0, s_end).s, old)


def test_monotonicity_and_positivity(reference_trajectory):
    tr = reference_trajectory
    assert np.all(np.diff(tr.b) < 0)
    assert np.all(np.diff(tr.lam) < 0)
    assert np.all(tr.b > 0) and np.all(tr.lam > 0)
    assert np.all(np.diff(tr.t) > 0)
    assert tr.T_est > tr.t[-1]


def test_sb_approach(reference_trajectory):
    # s b(s) = 1 - 2/log s + ... : at s = 1e6 the measured value is 0.8655
    # and it drifts monotonically toward 1
    tr = reference_trajectory
    sb_end = tr.s[-1] * tr.b[-1]
    assert abs(sb_end - 0.8655) < 5e-3
    late = tr.s > 1e3
    sb = tr.s[late] * tr.b[late]
    assert np.all(np.diff(sb) > 0)
    assert sb_end < 0.95  # the log correction keeps it well below 1 here


def test_frozen_limit():
    tr = modulation.integrate_reduced(1e-9, 2.0, 100.0)
    assert abs(tr.lam[-1] - 2.0) / 2.0 < 1e-9 * 100.0


def test_time_map_consistency(reference_trajectory):
    tr = reference_trajectory
    s_back = np.concatenate([
        [0.0],
        np.cumsum(np.diff(tr.t) * 0.5 * (1.0 / tr.lam[1:] ** 2 + 1.0 / tr.lam[:-1] ** 2)),
    ])
    # trapezoid reconstruction of s(t) on the stored samples
    assert np.max(np.abs(s_back - tr.s)) / tr.s[-1] < 1e-3


def test_asymptotic_reference():
    assert abs(b_of_s_asymptotic(1e4) - 7.829e-5) < 1e-8
    assert b_of_s_asymptotic(1e12) < 1e-11
    with pytest.raises(ValueError):
        b_of_s_asymptotic(2.0)


def test_integrated_b_matches_two_term_law(reference_trajectory):
    tr = reference_trajectory
    late = tr.s >= 1e3
    ref = np.array([b_of_s_asymptotic(s) for s in tr.s[late]])
    scaled = np.abs(tr.b[late] - ref) * tr.s[late] * np.abs(np.log(tr.s[late])) ** 1.5
    assert np.max(scaled) < 2.0  # remainder order, bounded


def test_fit_recovers_synthetic_model():
    T0 = 1.0
    u = np.logspace(-9, -0.4, 4000)
    t = T0 - u[::-1]
    lam = (T0 - t) / np.log(T0 - t) ** 2
    tr = modulation.ReducedTrajectory(
        s=np.zeros_like(t), b=np.ones_like(t), lam=lam, t=t,
        tau=T0 - t, T_est=T0)
    fit = modulation.fit_blowup_law(tr)
    assert abs(fit.exponent - 1.0) < 1e-10
    assert fit.residual < 1e-10
    assert abs(fit.kappa - 1.0) < 1e-10


def test_fit_requires_two_decades():
    tr = modulation.integrate_reduced(0.01, 1.0, 50.0)
    with pytest.raises(ValueError):
        modulation.fit_blowup_law(tr)


def test_deep_trajectory_reaches_the_law():
    # the law lambda ~ tau/|log tau|^2 emerges with O(1/log s) corrections;
    # by s = 1e30 the fitted exponent is within 5% and the compensated
    # quantity drifts ~2% per final decade
    tr = modulation.integrate_reduced(0.01, 1.0, 1e30, n_samples=1200)
    fit = modulation.fit_blowup_law(tr)
    assert abs(fit.exponent - 1.0) < 0.05
    mask = tr.lam <= tr.lam[-1] * 10.0
    comp = tr.lam[mask] * np.log(tr.tau[mask]) ** 2 / tr.tau[mask]
    assert comp.max() / comp.min() - 1.0 < 0.05
    assert fit.kappa > 0


def test_shallow_window_exponent_documented(reference_trajectory):
    # at s = 1e6 with unit scale the final decade sits where log(T - t)
    # crosses zero: the compensated fit is meaningless there (frozen value)
    fit = modulation.fit_blowup_law(reference_trajectory)
    assert abs(fit.exponent - 0.13) < 0.08
