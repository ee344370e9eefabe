import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualaction import (
    BoundarySpec,
    HamiltonianModel,
    NotSaddleError,
    PerturbationSpec,
    PreconditionError,
    UnsolvableRestrictionError,
    action_r,
    action_s,
    certify_bounds,
    functional_G,
    functional_Gp,
    functional_J,
    functional_Jp,
    pi_from_theta,
    solve_position_bvp,
    theta_from_pi,
)
from dualaction.action import _cumulative_trapezoid, _grad, _quadrature
from dualaction.bounds import cosine_series, sine_series
from dualaction.errors import RootFindError


@pytest.fixture
def saddle_bvp(saddle):
    return solve_position_bvp(saddle, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 2000)


class TestRestrictions:
    def test_separable_momentum_is_mass_times_velocity(self):
        m = HamiltonianModel.free(2.0)
        theta = np.linspace(0.0, 1.0, 101)  # slope 1
        pi = pi_from_theta(m, theta, 0.01)
        np.testing.assert_allclose(pi, 2.0, atol=1e-12)

    def test_sho_critical_position_recovers_momentum(self, sho):
        t = np.linspace(0.0, 1.0, 2001)
        pi = pi_from_theta(sho, np.sin(t), t[1] - t[0])
        assert np.max(np.abs(pi - np.cos(t))) <= 1e-4

    def test_quartic_kinetic_root(self):
        quart = HamiltonianModel.general(
            lambda p, q: p**4 / 4.0,
            partials={
                (1, 0): lambda p, q: p**3 * np.ones(np.broadcast(p, q).shape),
                (2, 0): lambda p, q: 3.0 * p**2 * np.ones(np.broadcast(p, q).shape),
            },
        )
        theta = 8.0 * np.linspace(0.0, 1.0, 101)  # slope 8 exactly
        pi = pi_from_theta(quart, theta, 0.01)
        np.testing.assert_allclose(pi, 2.0, atol=1e-9)

    def test_saddle_position_from_momentum_slope(self, saddle):
        t = np.linspace(0.0, 1.0, 2001)
        theta = theta_from_pi(saddle, np.cosh(t), t[1] - t[0])
        assert np.max(np.abs(theta - np.sinh(t))) <= 1e-4

    def test_saddle_linear_solve(self):
        m = HamiltonianModel.saddle_quadratic(1.0, 4.0)
        t = np.linspace(0.0, 1.0, 101)
        theta = theta_from_pi(m, 8.0 * t, t[1] - t[0])  # dPi/dt = 8
        np.testing.assert_allclose(theta, 2.0, atol=1e-9)

    def test_free_particle_unsolvable(self, free):
        with pytest.raises(UnsolvableRestrictionError):
            theta_from_pi(free, np.cosh(np.linspace(0, 1, 51)), 0.02)


class TestFunctionalEqualities:
    def test_all_four_match_critical_actions(self, saddle, saddle_bvp):
        path = saddle_bvp.path
        dt = path.dt
        s = action_s(saddle, path).value
        r = action_r(saddle, path).value
        assert functional_J(saddle, path.q, dt) == pytest.approx(s, abs=2e-6)
        assert functional_G(saddle, path.p, dt) == pytest.approx(s, abs=2e-6)
        assert functional_Jp(saddle, path.q, dt, path.p[0]) == pytest.approx(r, abs=2e-6)
        assert functional_Gp(saddle, path.p, dt, path.q[0]) == pytest.approx(r, abs=2e-6)

    def test_critical_saddle_action_closed_form(self, saddle, saddle_bvp):
        # q = sinh(t)/sinh(1): S = coth(1)/2
        s = action_s(saddle, saddle_bvp.path).value
        assert s == pytest.approx(math.cosh(1.0) / (2.0 * math.sinh(1.0)), abs=1e-7)

    def test_perturbed_theta_raises_J(self, saddle, saddle_bvp):
        path = saddle_bvp.path
        u = (path.times - path.times[0]) / (path.times[-1] - path.times[0])
        theta = path.q + 0.1 * np.sin(np.pi * u)
        s = action_s(saddle, path).value
        assert functional_J(saddle, theta, path.dt) > s + 1e-4


class TestCertificates:
    def test_s_chain_no_violations(self, saddle, saddle_bvp):
        spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=11, pinned="q-pinned")
        cert = certify_bounds(saddle, "S-chain", saddle_bvp, spec, 200)
        assert cert.violations == 0
        assert cert.worst_margin > -cert.slack

    def test_r_chain_no_violations(self, saddle, saddle_bvp):
        spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=11, pinned="p-pinned")
        cert = certify_bounds(saddle, "R-chain", saddle_bvp, spec, 200)
        assert cert.violations == 0
        assert cert.worst_margin > -cert.slack

    def test_sho_rejected(self, sho, saddle_bvp):
        spec = PerturbationSpec(amplitude=0.2, seed=1, pinned="q-pinned")
        with pytest.raises(NotSaddleError):
            certify_bounds(sho, "S-chain", saddle_bvp, spec, 5)

    def test_pin_mismatch_rejected(self, saddle, saddle_bvp):
        spec = PerturbationSpec(amplitude=0.2, seed=1, pinned="p-pinned")
        with pytest.raises(PreconditionError):
            certify_bounds(saddle, "S-chain", saddle_bvp, spec, 5)

    def test_zero_amplitude_margins_within_slack(self, saddle, saddle_bvp):
        for chain, pin in (("S-chain", "q-pinned"), ("R-chain", "p-pinned")):
            spec = PerturbationSpec(amplitude=0.0, seed=2, pinned=pin)
            cert = certify_bounds(saddle, chain, saddle_bvp, spec, 3)
            assert np.max(np.abs(cert.margins_low)) <= cert.slack
            assert np.max(np.abs(cert.margins_high)) <= cert.slack

    def test_margins_scale_second_order(self, saddle, saddle_bvp):
        means = []
        amplitudes = (1e-1, 1e-2, 1e-3)
        for eps in amplitudes:
            spec = PerturbationSpec(amplitude=eps, mode_count=8, seed=5, pinned="q-pinned")
            cert = certify_bounds(saddle, "S-chain", saddle_bvp, spec, 40)
            means.append(np.mean(np.concatenate([cert.margins_low, cert.margins_high])))
        fit = np.polyfit(np.log(amplitudes), np.log(means), 1)[0]
        assert fit >= 1.9

    def test_opposite_sidedness(self, saddle, saddle_bvp):
        # S is bounded below by the Pi-functional and above by the
        # Theta-functional; R the other way around
        path = saddle_bvp.path
        dt = path.dt
        u = (path.times - path.times[0]) / (path.times[-1] - path.times[0])
        rng = np.random.default_rng(9)
        d_sine = sine_series(path.times, 0.2, 6, rng)
        d_cos = cosine_series(path.times, 0.2, 6, rng)
        d_cos0 = cosine_series(path.times, 0.2, 6, rng, include_constant=False)
        s = action_s(saddle, path).value
        r = action_r(saddle, path).value
        assert functional_J(saddle, path.q + d_sine, dt) >= s
        assert functional_G(saddle, path.p + d_cos, dt) <= s
        assert functional_Gp(saddle, path.p + d_sine, dt, path.q[0]) >= r
        from dualaction.bounds import _compatibility_shift

        theta = _compatibility_shift(saddle, path.q + d_cos0, dt, path.p[0], path.p[-1])
        assert functional_Jp(saddle, theta, dt, path.p[0]) <= r

    def test_certificate_exports(self, saddle, saddle_bvp, tmp_path):
        spec = PerturbationSpec(amplitude=0.2, seed=3, pinned="q-pinned")
        cert = certify_bounds(saddle, "S-chain", saddle_bvp, spec, 10)
        cert.to_json(tmp_path / "cert.json")
        cert.to_csv(tmp_path / "cert.csv")
        import json

        data = json.loads((tmp_path / "cert.json").read_text())
        assert data["violations"] == 0
        lines = (tmp_path / "cert.csv").read_text().strip().splitlines()
        assert len(lines) == 11


class TestPerturbationSpec:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            PerturbationSpec(amplitude=0.1, pinned="z-pinned")
        with pytest.raises(PreconditionError):
            PerturbationSpec(amplitude=0.1, mode_count=0)

    def test_sine_series_pinned_and_normalized(self):
        t = np.linspace(0.0, 2.0, 401)
        d = sine_series(t, 0.3, 8, np.random.default_rng(0))
        assert d[0] == pytest.approx(0.0, abs=1e-15)
        assert d[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(d)) == pytest.approx(0.3)

    @pytest.mark.parametrize("wave", [np.sin, np.cos])
    def test_block_columns_equal_looped_series(self, wave):
        # each column is bit for bit the series the per-sample loop drew
        from dualaction.bounds import _mode_basis, _series

        t = np.linspace(0.0, 1.3, 1001)
        rngs = [np.random.default_rng((5, idx)) for idx in range(20)]
        coeffs = np.array([rng.normal(size=8) for rng in rngs])
        constants = np.array([rng.normal() for rng in rngs]) if wave is np.cos else None
        block = _series(_mode_basis(t, 8, wave), 0.3, coeffs, constants)
        for idx in range(20):
            rng = np.random.default_rng((5, idx))
            looped = _ref_series(t, 0.3, 8, rng, wave, constant=wave is np.cos)
            assert np.array_equal(block[:, idx], looped)
        assert np.array_equal(sine_series(t, 0.3, 8, np.random.default_rng((5, 3))),
                              _ref_series(t, 0.3, 8, np.random.default_rng((5, 3)), np.sin))

    def test_cosine_series_zero_mean_without_constant(self):
        t = np.linspace(0.0, 2.0, 4001)
        d = cosine_series(t, 0.3, 8, np.random.default_rng(1), include_constant=False)
        assert abs(np.trapezoid(d, t)) <= 1e-4


# The certificate as a loop over the samples, one Python iteration and
# one 1-d path per sample, as certify_bounds computed it before it ran
# in blocks.  The batched certificate must reproduce it.

def _ref_series(times, amplitude, mode_count, rng, wave, constant=False):
    u = (times - times[0]) / (times[-1] - times[0])
    coeffs = rng.normal(size=mode_count)
    delta = sum(c * wave(np.pi * (k + 1) * u) for k, c in enumerate(coeffs))
    if constant:
        delta = delta + rng.normal()
    peak = np.max(np.abs(delta))
    return delta if peak == 0.0 else delta * (amplitude / peak)


def _ref_newton(f, fprime, x0, tol_scale, max_iter=60):
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        r = f(x)
        if np.all(np.abs(r) <= 1e-11 * tol_scale):
            return x
        d = fprime(x)
        if np.any(d == 0) or not np.all(np.isfinite(d)):
            break
        x = x - r / d
    bad = np.abs(f(x)) > 1e-9 * tol_scale
    if np.any(bad):
        raise RootFindError("restriction root-find failed", node_index=int(np.flatnonzero(bad)[0]))
    return x


def _ref_pi_from_theta(model, theta, dt):
    theta_dot = _grad(theta, dt)
    if model.kind != "general":
        return model.mass * theta_dot
    hp, hpp = model._derivative(1, 0), model._derivative(2, 0)
    return _ref_newton(lambda x: hp(x, theta) - theta_dot, lambda x: hpp(x, theta),
                       theta_dot, 1.0 + np.max(np.abs(theta_dot)))


def _ref_theta_from_pi(model, pi, dt):
    pi_dot = _grad(pi, dt)
    if model.kind != "general" and len(model.potential_coeffs) <= 3:
        c = list(model.potential_coeffs) + [0.0, 0.0]
        return (-pi_dot - c[1]) / (2.0 * c[2])
    hq, hqq = model._derivative(0, 1), model._derivative(0, 2)
    return _ref_newton(lambda x: hq(pi, x) + pi_dot, lambda x: hqq(pi, x),
                       np.zeros_like(pi), 1.0 + np.max(np.abs(pi_dot)))


def _ref_heun(rate, drive, dt, start):
    x = np.empty_like(drive)
    x[0] = start
    for j in range(drive.size - 1):
        f0 = rate(x[j], drive[j])
        f1 = rate(x[j] + dt * f0, drive[j + 1])
        x[j + 1] = x[j] + 0.5 * dt * (f0 + f1)
    return x


def _ref_momentum_ivp(model, theta, dt, pi_start):
    if model.kind != "general":
        return pi_start + _cumulative_trapezoid(-model._v_derivative(1)(theta), dt)
    hq = model._derivative(0, 1)
    return _ref_heun(lambda pi, th: -hq(pi, th), theta, dt, pi_start)


def _ref_position_ivp(model, pi, dt, theta_start):
    if model.kind != "general":
        return theta_start + _cumulative_trapezoid(pi / model.mass, dt)
    hp = model._derivative(1, 0)
    return _ref_heun(lambda th, p: hp(p, th), pi, dt, theta_start)


def _ref_integral(y, dt):
    return float(_quadrature(y, dt, "auto")[0])


def _ref_shift(model, theta, dt, pi_start, pi_end, tol=1e-10):
    def mismatch(c):
        return _ref_momentum_ivp(model, theta + c, dt, pi_start)[-1] - pi_end

    c0, m0 = 0.0, mismatch(0.0)
    if abs(m0) <= tol:
        return theta
    c1 = 1e-3
    m1 = mismatch(c1)
    for _ in range(20):
        if m1 == m0:
            break
        c2 = c1 - m1 * (c1 - c0) / (m1 - m0)
        c0, m0, c1, m1 = c1, m1, c2, mismatch(c2)
        if abs(m1) <= tol:
            break
    return theta + c1


def reference_values(model, chain, path, spec, samples):
    """(lower_values, upper_values) of the chain, one sample at a time."""
    dt, times = path.dt, path.times
    lower, upper = np.empty(samples), np.empty(samples)
    for idx in range(samples):
        rng = np.random.default_rng((spec.seed, idx))
        sine = _ref_series(times, spec.amplitude, spec.mode_count, rng, np.sin)
        if chain == "S-chain":
            theta = path.q + sine
            pi = path.p + _ref_series(times, spec.amplitude, spec.mode_count, rng, np.cos, True)
            pi_theta = _ref_pi_from_theta(model, theta, dt)
            upper[idx] = _ref_integral(pi_theta * _grad(theta, dt) - model.eval(pi_theta, theta), dt)
            theta_pi = _ref_theta_from_pi(model, pi, dt)
            lower[idx] = _ref_integral(pi * _grad(theta_pi, dt) - model.eval(pi, theta_pi), dt)
        else:
            pi = path.p + sine
            theta_raw = path.q + _ref_series(times, spec.amplitude, spec.mode_count, rng, np.cos)
            theta = _ref_shift(model, theta_raw, dt, path.p[0], path.p[-1])
            theta_pi = _ref_position_ivp(model, pi, dt, path.q[0])
            upper[idx] = _ref_integral(-theta_pi * _grad(pi, dt) - model.eval(pi, theta_pi), dt)
            pi_theta = _ref_momentum_ivp(model, theta, dt, path.p[0])
            k = theta * model._derivative(0, 1)(pi_theta, theta) - model.eval(pi_theta, theta)
            lower[idx] = _ref_integral(k, dt)
    return lower, upper


def _general_saddle(k=1.0, lam=0.05):
    """H = cosh p - 1 - k (q^2/2 + lam q^4): both restrictions need Newton, the IVPs Heun."""
    def zero(p, q):
        return np.zeros(np.broadcast(p, q).shape)

    return HamiltonianModel.general(
        lambda p, q: np.cosh(p) - 1.0 - k * (q**2 / 2.0 + lam * q**4),
        partials={
            (1, 0): lambda p, q: np.sinh(p) + zero(p, q),
            (2, 0): lambda p, q: np.cosh(p) + zero(p, q),
            (0, 1): lambda p, q: -k * (q + 4.0 * lam * q**3) + zero(p, q),
            (0, 2): lambda p, q: -k * (1.0 + 12.0 * lam * q**2) + zero(p, q),
        },
        label="general-saddle",
    )


# model, grid intervals, reference samples: a reference sample costs about
# 0.5 ms (5 ms for the general model's R-chain), so only the cheapest model
# runs the full 1000; 65 samples already span four blocks and a partial one
REFERENCE_MODELS = {
    "saddle-quadratic": (HamiltonianModel.saddle_quadratic(1.0, 1.0), 100, 1000),
    "rescaled-saddle": (HamiltonianModel.saddle_quadratic(3.0, 3.0 * 0.6**2), 100, 65),
    "anharmonic-saddle": (
        HamiltonianModel.separable(1.0, potential_coeffs=(0.0, 0.0, -0.5, 0.0, -0.05)), 100, 65),
    "general-saddle": (_general_saddle(), 40, 65),
}


@pytest.mark.parametrize("chain, pin", [("S-chain", "q-pinned"), ("R-chain", "p-pinned")])
@pytest.mark.parametrize("name", list(REFERENCE_MODELS))
def test_blocked_certificate_matches_sample_loop(name, chain, pin):
    model, n, most = REFERENCE_MODELS[name]
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), n)
    spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=17, pinned=pin)
    lower, upper = reference_values(model, chain, bvp.path, spec, most)
    crit = action_s(model, bvp.path).value if chain == "S-chain" else action_r(model, bvp.path).value
    for samples in (1, 63, 65, 1000):
        if samples > most:
            break
        cert = certify_bounds(model, chain, bvp, spec, samples)
        np.testing.assert_allclose(cert.lower_values, lower[:samples], rtol=1e-11, atol=0)
        np.testing.assert_allclose(cert.upper_values, upper[:samples], rtol=1e-11, atol=0)
        margins = np.concatenate([crit - lower[:samples], upper[:samples] - crit])
        assert cert.violations == int(np.sum(margins < -cert.slack))
        assert cert.worst_margin == pytest.approx(np.min(margins), rel=1e-12, abs=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the failing Newton runs overflow
def test_blocked_root_find_failure_names_the_looped_node():
    # H_p = 2 p / sqrt(1 + p^2) and H_q = -q / sqrt(1 + q^2) are bounded, so
    # a slope of the perturbed Theta beyond 2 leaves J's restriction without
    # a root, and a slope of the perturbed Pi beyond 1 leaves G's.  Sample 7
    # fails first, in G; sample 14, in the same block, fails in J, which a
    # block evaluates before G.
    model = HamiltonianModel.general(
        lambda p, q: 2.0 * (np.sqrt(1.0 + p**2) - 1.0) - (np.sqrt(1.0 + q**2) - 1.0),
        partials={
            (1, 0): lambda p, q: 2.0 * p / np.sqrt(1.0 + p**2) + 0.0 * q,
            (2, 0): lambda p, q: 2.0 / (1.0 + p**2) ** 1.5 + 0.0 * q,
            (0, 1): lambda p, q: -q / np.sqrt(1.0 + q**2) + 0.0 * p,
            (0, 2): lambda p, q: -1.0 / (1.0 + q**2) ** 1.5 + 0.0 * p,
        },
    )
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 100)
    spec = PerturbationSpec(amplitude=0.04, mode_count=8, seed=0, pinned="q-pinned")
    with pytest.raises(RootFindError) as looped:
        reference_values(model, "S-chain", bvp.path, spec, 40)
    with pytest.raises(RootFindError) as blocked:
        certify_bounds(model, "S-chain", bvp, spec, 40)
    assert blocked.value.node_index == looped.value.node_index


@settings(max_examples=8)
@given(
    log_mass=st.floats(-2.0, 3.0), kappa=st.floats(0.3, 3.0), q_end=st.floats(0.3, 1.5),
    t=st.floats(0.5, 1.5), eps=st.floats(0.05, 0.3),
)
def test_random_saddles_obey_both_chains(log_mass, kappa, q_end, t, eps):
    mass = 10.0**log_mass
    model = HamiltonianModel.saddle_quadratic(mass, mass * kappa**2)
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, q_end), (0.0, t), 400)
    for chain, pin in (("S-chain", "q-pinned"), ("R-chain", "p-pinned")):
        spec = PerturbationSpec(amplitude=eps, mode_count=8, seed=3, pinned=pin)
        assert certify_bounds(model, chain, bvp, spec, 200).violations == 0
        # one decade: below about eps/30 the O(dt^2) first variation of the
        # discrete functionals at the RK4 path competes with eps^2 when
        # kappa t is large
        amplitudes = (eps, eps / math.sqrt(10.0), eps / 10.0)
        means = []
        for amp in amplitudes:
            spec = PerturbationSpec(amplitude=amp, mode_count=8, seed=7, pinned=pin)
            cert = certify_bounds(model, chain, bvp, spec, 30)
            means.append(np.mean(np.concatenate([cert.margins_low, cert.margins_high])))
        assert np.polyfit(np.log(amplitudes), np.log(means), 1)[0] >= 1.9, chain
