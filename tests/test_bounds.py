import itertools
import math
import tracemalloc
import warnings
from unittest import mock

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
from dualaction.action import _cumulative_trapezoid, _grad, _mode_basis, _quadrature
from dualaction import bounds
from dualaction.errors import RootFindError

from conftest import padded_row_series


def _random_series(times, amplitude, mode_count, rng, wave, constant=False):
    """One series of sine or cosine modes (then, with constant, the constant
    mode) with normal coefficients from rng, scaled to sup-norm amplitude."""
    basis = _mode_basis(times, mode_count, wave) + ([np.ones(times.size)] if constant else [])
    return bounds._series(basis, amplitude, rng.normal(size=(1, len(basis))))[:, 0]


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

    def test_unknown_chain_rejected(self, saddle, saddle_bvp):
        spec = PerturbationSpec(amplitude=0.2, seed=1, pinned="q-pinned")
        with pytest.raises(PreconditionError, match="chain must be") as err:
            certify_bounds(saddle, "T-chain", saddle_bvp, spec, 5)
        assert err.value.code == "precondition"

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
        d_sine = _random_series(path.times, 0.2, 6, rng, np.sin)
        d_cos = _random_series(path.times, 0.2, 6, rng, np.cos, constant=True)
        d_cos0 = _random_series(path.times, 0.2, 6, rng, np.cos)
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
        cert.to_csv(tmp_path / "cert.csv")
        assert cert.summary()["violations"] == 0
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
        d = _random_series(t, 0.3, 8, np.random.default_rng(0), np.sin)
        assert d[0] == pytest.approx(0.0, abs=1e-15)
        assert d[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(d)) == pytest.approx(0.3)

    @pytest.mark.parametrize("wave", [np.sin, np.cos])
    def test_block_columns_equal_looped_series(self, wave):
        # each column is bit for bit the series the per-sample loop drew
        from dualaction.bounds import _series

        t = np.linspace(0.0, 1.3, 1001)
        # the cosine series' constant is one more mode, a row of ones, drawn last
        basis = _mode_basis(t, 8, wave) + ([np.ones_like(t)] if wave is np.cos else [])
        coeffs = np.array([np.random.default_rng((5, idx)).normal(size=len(basis))
                           for idx in range(20)])
        block = _series(basis, 0.3, coeffs)
        for idx in range(20):
            rng = np.random.default_rng((5, idx))
            looped = _ref_series(t, 0.3, 8, rng, wave, constant=wave is np.cos)
            assert np.array_equal(block[:, idx], looped)
        assert np.array_equal(_random_series(t, 0.3, 8, np.random.default_rng((5, 3)), np.sin),
                              _ref_series(t, 0.3, 8, np.random.default_rng((5, 3)), np.sin))

    def test_cosine_series_zero_mean_without_constant(self):
        t = np.linspace(0.0, 2.0, 4001)
        d = _random_series(t, 0.3, 8, np.random.default_rng(1), np.cos)
        assert abs(np.trapezoid(d, t)) <= 1e-4


# The certificate as a loop over the samples, one Python iteration and
# one 1-d path per sample, as certify_bounds computed it before it ran
# in blocks.  The batched certificate must reproduce it.  A sample's
# series is the row a block builds for it (padded_row_series), which is
# within a few ulp of its modes added in k order.

def _ref_series(times, amplitude, mode_count, rng, wave, constant=False):
    u = (times - times[0]) / (times[-1] - times[0])
    waves = [wave(np.pi * (k + 1) * u) for k in range(mode_count)]
    coeffs = list(rng.normal(size=mode_count))
    if constant:
        waves.append(np.ones_like(u))
        coeffs.append(rng.normal())
    delta = padded_row_series(coeffs, waves)
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
    return float(_quadrature(y, dt)[0])


def _ref_secant_shift(model, theta, dt, pi_start, pi_end, tol):
    def mismatch(c):
        return _ref_momentum_ivp(model, theta + c, dt, pi_start)[-1] - pi_end

    c0, m0 = 0.0, mismatch(0.0)
    if abs(m0) <= tol:
        return c0, m0
    c1 = 1e-3
    m1 = mismatch(c1)
    for _ in range(20):
        if m1 == m0:
            break
        c2 = c1 - m1 * (c1 - c0) / (m1 - m0)
        c0, m0, c1, m1 = c1, m1, c2, mismatch(c2)
        if abs(m1) <= tol:
            break
    return c1, m1


def _ref_power_sum_shift(model, theta, dt, pi_start, pi_end, tol):
    # V' = sum_i a_i q^i, so the restricted momentum ends at
    # pi_start - dt sum_k b_k c^k, b_k = sum_i binom(i, k) a_i M_(i-k), with the
    # trapezoid power sums M_i = sum_j w_j theta_j^i; Newton on that polynomial
    a = model._vcoeffs[1]
    sums, power = [theta.size - 1.0], theta
    for _ in range(1, len(a)):
        sums.append(np.sum((power[1:] + power[:-1]) / 2.0))
        power = power * theta
    b = [sum(math.comb(i, k) * a[i] * sums[i - k] for i in range(k, len(a)))
         for k in range(len(a))]

    def poly(coeffs, c):
        value = coeffs[-1]
        for coeff in coeffs[-2::-1]:
            value = value * c + coeff
        return value

    slope = [k * b[k] for k in range(1, len(b))]
    c, m = 0.0, (pi_start - dt * poly(b, 0.0)) - pi_end
    for _ in range(20):
        if not abs(m) > tol or not slope:  # a constant V' leaves the end where it is
            break
        c = c + m / (dt * poly(slope, c))
        m = (pi_start - dt * poly(b, c)) - pi_end
    return c, m


def _ref_shift(model, theta, dt, pi_start, pi_end, tol=1e-10):
    """theta shifted so its restricted momentum ends at pi_end: Newton on the
    end's polynomial in the shift whenever the potential has coefficients,
    the secant on the restricted IVP otherwise.  A miss above tol raises
    unless it is below 1e-9 of 1 + the momentum's largest magnitude."""
    polynomial = model.kind != "general" and model.potential_coeffs is not None
    shift = _ref_power_sum_shift if polynomial else _ref_secant_shift
    with np.errstate(all="ignore"):
        c, miss = shift(model, theta, dt, pi_start, pi_end, tol)
        pi = _ref_momentum_ivp(model, theta + c, dt, pi_start)
        scale = 1.0 + max(np.max(np.abs(pi)), abs(pi_end))
    if not (abs(miss) <= tol or abs(miss) <= 1e-9 * scale):
        raise RootFindError("compatibility shift missed the momentum end")
    return theta + c


def reference_values(model, chain, path, spec, samples):
    """(lower_values, upper_values) of the chain, one sample at a time."""
    dt, times = path.dt, path.times
    lower, upper = np.empty(samples), np.empty(samples)
    rng = np.random.default_rng(spec.seed)
    for idx in range(samples):
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
def test_blocked_certificate_matches_sample_loop(name, chain, pin, monkeypatch):
    # the quadratic models take the blocked path here, as every other model does
    monkeypatch.setattr(bounds, "_takes_quadratic_form", lambda model: False)
    model, n, most = REFERENCE_MODELS[name]
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), n)
    spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=17, pinned=pin)
    lower, upper = reference_values(model, chain, bvp.path, spec, most)
    crit = action_s(model, bvp.path).value if chain == "S-chain" else action_r(model, bvp.path).value
    # at 100 intervals a block holds 324 samples (_block_size); blocks of 16
    # also split 63 and 65 samples across several blocks and a partial one
    sized = bounds._block_size
    for samples, width in itertools.product((1, 63, 65, 1000), (None, 16)):
        if samples > most:
            break
        monkeypatch.setattr(bounds, "_block_size", sized if width is None else
                            lambda model, nodes: width)
        cert = certify_bounds(model, chain, bvp, spec, samples)
        assert (cert.method, cert.evaluations) == ("blocked", 2 * samples)
        if name == "general-saddle":
            # its q**3 rounds differently on a numpy scalar (a loop's Heun
            # step) than on an array, so the loop's steps differ by ~2.6e-16
            np.testing.assert_allclose(cert.lower_values, lower[:samples], rtol=1e-11, atol=0)
            np.testing.assert_allclose(cert.upper_values, upper[:samples], rtol=1e-11, atol=0)
        else:
            assert np.array_equal(cert.lower_values, lower[:samples])
            assert np.array_equal(cert.upper_values, upper[:samples])
        margins = np.concatenate([crit - lower[:samples], upper[:samples] - crit])
        assert cert.violations == int(np.sum(margins < -cert.slack))
        assert cert.worst_margin == pytest.approx(np.min(margins), rel=1e-12, abs=0)


# One generator per certificate: sample idx takes row idx of
# default_rng(seed).normal(size=(n, k)), k = 2d normals (2d + 1 with the
# S-chain's constant mode), on the quadratic form, in blocks of 16
# (anharmonic) and in one wide block (general).
STREAM_MODELS = ["saddle-quadratic", "anharmonic-saddle", "general-saddle"]


def _stream_case(name, pin):
    model = REFERENCE_MODELS[name][0]
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 40)
    return model, bvp, PerturbationSpec(amplitude=0.2, mode_count=8, seed=23, pinned=pin)


@pytest.mark.parametrize("chain, pin", [("S-chain", "q-pinned"), ("R-chain", "p-pinned")])
@pytest.mark.parametrize("name", STREAM_MODELS)
def test_sample_coefficients_are_rows_of_one_stream(name, chain, pin, monkeypatch):
    model, bvp, spec = _stream_case(name, pin)
    drawn = []
    draws = bounds._draws

    def recording(*args):
        pinned, free = draws(*args)
        drawn.append(np.hstack([pinned, free]))
        return pinned, free

    monkeypatch.setattr(bounds, "_draws", recording)
    certify_bounds(model, chain, bvp, spec, 40)
    k = 2 * spec.mode_count + (chain == "S-chain")
    assert np.array_equal(np.vstack(drawn), np.random.default_rng(23).normal(size=(40, k)))


@pytest.mark.parametrize("chain, pin", [("S-chain", "q-pinned"), ("R-chain", "p-pinned")])
@pytest.mark.parametrize("name", STREAM_MODELS)
def test_certificate_prefix_is_the_shorter_certificate(name, chain, pin):
    # 37 samples end in a partial block of 5, 100 in one of 4; 1, 17, 33 and 65
    # end in a block of one sample
    model, bvp, spec = _stream_case(name, pin)
    long = certify_bounds(model, chain, bvp, spec, 100)
    for samples in (1, 17, 33, 37, 65):
        short = certify_bounds(model, chain, bvp, spec, samples)
        assert np.array_equal(long.lower_values[:samples], short.lower_values)
        assert np.array_equal(long.upper_values[:samples], short.upper_values)


@pytest.mark.parametrize("chain, pin", [("S-chain", "q-pinned"), ("R-chain", "p-pinned")])
@pytest.mark.parametrize("name", STREAM_MODELS)
def test_certificate_makes_one_generator(name, chain, pin, monkeypatch):
    model, bvp, spec = _stream_case(name, pin)
    made = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    cert = certify_bounds(model, chain, bvp, spec, 1000)
    assert made == [(23,)]
    assert cert.method == ("quadratic-form" if name == "saddle-quadratic" else "blocked")


# G reads Theta(Pi) off the slope of Pi and then differentiates Theta, so
# its rounding noise is that of second differences of Pi: against a
# long-double evaluation, the sample loop's own G is off by up to 2.5e-13 of
# max |G| at N = 100 and 2.4e-12 at N = 1000 (rescaled saddle, seed 17).
# The quadratic form differs from the loop by up to 5.2e-13 of max |G| at
# N = 100.  J, J' and G' carry no second difference.
FORM_G_TOL = 2e-12


@pytest.mark.parametrize("chain, pin", [("S-chain", "q-pinned"), ("R-chain", "p-pinned")])
@pytest.mark.parametrize("name", ["saddle-quadratic", "rescaled-saddle"])
def test_quadratic_form_certificate_matches_sample_loop(name, chain, pin):
    model, n, most = REFERENCE_MODELS[name]
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), n)
    spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=17, pinned=pin)
    lower, upper = reference_values(model, chain, bvp.path, spec, most)
    crit = action_s(model, bvp.path).value if chain == "S-chain" else action_r(model, bvp.path).value
    for samples in (1, 63, 65, 1000):
        if samples > most:
            break
        cert = certify_bounds(model, chain, bvp, spec, samples)
        assert cert.method == "quadratic-form"
        np.testing.assert_allclose(cert.upper_values, upper[:samples], rtol=1e-11, atol=0)
        if chain == "S-chain":
            g_tol = FORM_G_TOL * np.max(np.abs(lower))
            np.testing.assert_allclose(cert.lower_values, lower[:samples], rtol=0, atol=g_tol)
        else:
            g_tol = 0.0
            np.testing.assert_allclose(cert.lower_values, lower[:samples], rtol=1e-11, atol=0)
        margins = np.concatenate([crit - lower[:samples], upper[:samples] - crit])
        assert cert.violations == int(np.sum(margins < -cert.slack))
        assert cert.worst_margin == pytest.approx(np.min(margins), rel=1e-11, abs=g_tol)


@pytest.mark.parametrize("chain, pin, columns", [("S-chain", "q-pinned", 100),
                                                 ("R-chain", "p-pinned", 90)])
def test_quadratic_form_work_does_not_grow_with_samples(chain, pin, columns, saddle, saddle_bvp):
    # 1 + 2d + d(d - 1)/2 columns per side: 45 for 8 sine or cosine modes,
    # 55 for the S-chain's free side with its constant mode
    spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=4, pinned=pin)
    for samples in (10, 1000):
        cert = certify_bounds(saddle, chain, saddle_bvp, spec, samples)
        assert (cert.method, cert.evaluations) == ("quadratic-form", columns)
    assert "method" not in cert.summary() and "evaluations" not in cert.summary()


@pytest.mark.parametrize("chain, pin", [("S-chain", "q-pinned"), ("R-chain", "p-pinned")])
def test_trailing_zero_potential_certifies_as_its_quadratic(chain, pin):
    padded = HamiltonianModel.separable(1.0, (0.0, 0.0, -0.5, 0.0, 0.0))
    saddle = HamiltonianModel.saddle_quadratic()
    spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=6, pinned=pin)
    certs = []
    for model in (padded, saddle):
        bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 200)
        certs.append(certify_bounds(model, chain, bvp, spec, 50))
    assert certs[0].method == certs[1].method == "quadratic-form"
    assert certs[0].summary() == certs[1].summary()
    assert np.array_equal(certs[0].lower_values, certs[1].lower_values)
    assert np.array_equal(certs[0].upper_values, certs[1].upper_values)


def _both_paths(model, chain, bvp, spec, samples):
    """certify_bounds(...) by the quadratic form and by the blocked loop."""
    form = certify_bounds(model, chain, bvp, spec, samples)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_takes_quadratic_form", lambda model: False)
        blocked = certify_bounds(model, chain, bvp, spec, samples)
    assert (form.method, blocked.method) == ("quadratic-form", "blocked")
    return form, blocked


@settings(max_examples=12)
@given(
    log_mass=st.floats(-2.0, 3.0), kappa=st.floats(0.3, 3.0), q_end=st.floats(0.3, 1.5),
    t=st.floats(0.5, 1.5), eps=st.floats(0.05, 0.3), seed=st.integers(0, 2**31 - 1),
    chain=st.sampled_from(["S-chain", "R-chain"]), n=st.sampled_from([60, 61, 400, 401]),
)
def test_quadratic_form_agrees_with_blocked_loop(log_mass, kappa, q_end, t, eps, seed, chain, n):
    # even N integrates by Simpson, odd N by the trapezoid rule; 6.0e-12 of
    # max |G| was the largest G difference over 150 random draws of this space
    mass = 10.0**log_mass
    model = HamiltonianModel.saddle_quadratic(mass, mass * kappa**2)
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, q_end), (0.0, t), n)
    pin = "q-pinned" if chain == "S-chain" else "p-pinned"
    spec = PerturbationSpec(amplitude=eps, mode_count=8, seed=seed, pinned=pin)
    form, blocked = _both_paths(model, chain, bvp, spec, 40)
    np.testing.assert_allclose(form.upper_values, blocked.upper_values, rtol=1e-11, atol=0)
    if chain == "S-chain":
        g_tol = 2e-11 * np.max(np.abs(blocked.lower_values))
        np.testing.assert_allclose(form.lower_values, blocked.lower_values, rtol=0, atol=g_tol)
    else:
        np.testing.assert_allclose(form.lower_values, blocked.lower_values, rtol=1e-11, atol=0)
    assert form.violations == blocked.violations


@settings(max_examples=8)
@given(
    log_lam=st.floats(-2.0, 3.0), log_mass=st.floats(-1.0, 1.0), kappa=st.floats(0.3, 3.0),
    q_end=st.floats(0.3, 1.5), t=st.floats(0.5, 1.5), eps=st.floats(0.05, 0.3),
    n=st.sampled_from([100, 101]),
)
def test_margins_scale_with_mass_and_momentum_amplitude(log_lam, log_mass, kappa, q_end, t, eps,
                                                        n):
    # saddle_quadratic(lam m, lam k) keeps the critical q and scales p, S and R
    # by lam; with the momentum-side perturbation scaled by lam too, each
    # functional scales by lam, and so does every margin
    lam, mass = 10.0**log_lam, 10.0**log_mass
    ends = BoundarySpec("position-type", 0.0, q_end)
    base = HamiltonianModel.saddle_quadratic(mass, mass * kappa**2)
    scaled = HamiltonianModel.saddle_quadratic(lam * mass, lam * mass * kappa**2)
    base_bvp = solve_position_bvp(base, ends, (0.0, t), n)
    scaled_bvp = solve_position_bvp(scaled, ends, (0.0, t), n)
    for chain, pin in (("S-chain", "q-pinned"), ("R-chain", "p-pinned")):
        def cert(model, bvp, amplitude):
            spec = PerturbationSpec(amplitude=amplitude, mode_count=8, seed=5, pinned=pin)
            return certify_bounds(model, chain, bvp, spec, 100)

        ref = cert(base, base_bvp, eps)
        position_side = cert(scaled, scaled_bvp, eps)
        momentum_side = cert(scaled, scaled_bvp, lam * eps)
        # S-chain: J perturbs the position, G the momentum; R-chain the other way
        low, high = ((momentum_side, position_side) if chain == "S-chain"
                     else (position_side, momentum_side))
        margins = np.concatenate([ref.margins_low, ref.margins_high])
        scaled_margins = np.concatenate([low.margins_low, high.margins_high])
        # measured up to 6.1e-13 of the largest margin over 40 random draws
        np.testing.assert_allclose(scaled_margins, lam * margins, rtol=0,
                                   atol=1e-11 * lam * np.max(np.abs(margins)))
        assert np.array_equal(np.argsort(scaled_margins), np.argsort(margins))
        assert int(np.sum(scaled_margins < -position_side.slack)) == ref.violations


@pytest.mark.parametrize("chain, pin", [("S-chain", "q-pinned"), ("R-chain", "p-pinned")])
def test_zero_amplitude_form_is_the_blocked_critical_value(chain, pin, saddle, saddle_bvp):
    # every sample is the critical path itself
    spec = PerturbationSpec(amplitude=0.0, mode_count=8, seed=8, pinned=pin)
    form, blocked = _both_paths(saddle, chain, saddle_bvp, spec, 20)
    assert np.array_equal(form.lower_values, blocked.lower_values)
    assert np.array_equal(form.upper_values, blocked.upper_values)
    assert form.summary() == blocked.summary()


@pytest.mark.parametrize("chain, pin", [("S-chain", "q-pinned"), ("R-chain", "p-pinned")])
@pytest.mark.parametrize("model", [HamiltonianModel.free(), HamiltonianModel.constant_force()],
                         ids=["free", "constant-force"])
def test_no_position_restriction_raises(model, chain, pin):
    # H_qq = 0 leaves G without a position restriction: the slack check on
    # the critical path raises before either the form or the blocks run
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 100)
    spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=8, pinned=pin)
    with pytest.raises(UnsolvableRestrictionError):
        certify_bounds(model, chain, bvp, spec, 20)


def test_separable_block_width_is_set_by_bytes():
    # a (nodes, block) array holds at most 256 KiB
    model = REFERENCE_MODELS["anharmonic-saddle"][0]
    assert [bounds._block_size(model, n + 1) for n in (100, 1000, 2000, 20000)] == [324, 32, 16, 1]
    assert bounds._block_size(_general_saddle(), 1001) == 1047


@pytest.mark.parametrize("chain, pin", [("S-chain", "q-pinned"), ("R-chain", "p-pinned")])
def test_separable_certificate_does_not_depend_on_the_block_width(chain, pin, monkeypatch):
    # at 2000 intervals _block_size gives 16 samples a block; blocks of 7 give the same values
    model = REFERENCE_MODELS["anharmonic-saddle"][0]
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 2000)
    spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=7, pinned=pin)
    sized = certify_bounds(model, chain, bvp, spec, 40)
    monkeypatch.setattr(bounds, "_block_size", lambda model, nodes: 7)
    seven = certify_bounds(model, chain, bvp, spec, 40)
    assert np.array_equal(sized.lower_values, seven.lower_values)
    assert np.array_equal(sized.upper_values, seven.upper_values)
    assert sized.summary() == seven.summary()


@pytest.mark.parametrize("chain, pin", [("S-chain", "q-pinned"), ("R-chain", "p-pinned")])
def test_general_model_block_equals_blocks_of_sixteen(chain, pin, monkeypatch):
    # a general-kind model runs its samples as one block; the columns stay independent.
    # 40 samples end in a block of 8: a block of one column sums its nodes in
    # another order (numpy's pairwise sum along a contiguous axis)
    model = _general_saddle()
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 40)
    spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=17, pinned=pin)
    whole = certify_bounds(model, chain, bvp, spec, 40)
    monkeypatch.setattr(bounds, "_block_size", lambda model, nodes: 16)
    blocked = certify_bounds(model, chain, bvp, spec, 40)
    assert np.array_equal(whole.lower_values, blocked.lower_values)
    assert np.array_equal(whole.upper_values, blocked.upper_values)


def _bounded_force_model():
    """H = 2 (sqrt(1 + p^2) - 1) - (sqrt(1 + q^2) - 1): H_p and H_q are bounded."""
    return HamiltonianModel.general(
        lambda p, q: 2.0 * (np.sqrt(1.0 + p**2) - 1.0) - (np.sqrt(1.0 + q**2) - 1.0),
        partials={
            (1, 0): lambda p, q: 2.0 * p / np.sqrt(1.0 + p**2) + 0.0 * q,
            (2, 0): lambda p, q: 2.0 / (1.0 + p**2) ** 1.5 + 0.0 * q,
            (0, 1): lambda p, q: -q / np.sqrt(1.0 + q**2) + 0.0 * p,
            (0, 2): lambda p, q: -1.0 / (1.0 + q**2) ** 1.5 + 0.0 * p,
        },
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the failing Newton runs overflow
def test_blocked_root_find_failure_names_the_looped_node():
    # H_p = 2 p / sqrt(1 + p^2) and H_q = -q / sqrt(1 + q^2) are bounded, so
    # a slope of the perturbed Theta beyond 2 leaves J's restriction without
    # a root, and a slope of the perturbed Pi beyond 1 leaves G's.  Sample 6
    # (counting from 0) fails first, in G at node 77; sample 13, in the same
    # block, fails in J at node 98, and a block evaluates J before G.
    model = _bounded_force_model()
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 100)
    spec = PerturbationSpec(amplitude=0.04, mode_count=8, seed=10, pinned="q-pinned")
    with pytest.raises(RootFindError) as looped:
        reference_values(model, "S-chain", bvp.path, spec, 40)
    with pytest.raises(RootFindError) as blocked:
        certify_bounds(model, "S-chain", bvp, spec, 40)
    assert blocked.value.node_index == looped.value.node_index == 77


CUBIC_SADDLE = (0.0, 0.0, -0.5, -0.05)  # V = -q^2/2 - q^3/20, concave for q > -10/3


def _secant_calls(monkeypatch):
    """A list that gets the arguments of every later call of bounds._secant_shift."""
    calls, secant = [], bounds._secant_shift

    def recording(*args):
        calls.append(args)
        return secant(*args)

    monkeypatch.setattr(bounds, "_secant_shift", recording)
    return calls


@pytest.mark.parametrize("model", [
    HamiltonianModel.separable(1.0, potential_coeffs=CUBIC_SADDLE),
    HamiltonianModel.separable(1.0, potential=lambda q: -0.5 * q**2 - 0.05 * q**3),
], ids=["power-sums", "secant"])
def test_unreachable_shift_raises_at_the_looped_sample(model, monkeypatch):
    # -V'(q) = q + 0.15 q^2 is bounded below, so the restricted momentum's
    # end rises with the variance of Theta: from sample 4 (counting from 0)
    # on, some perturbations of amplitude 8 leave no shift reaching p(t_f).
    # The coefficients take the power-sum shift, the same potential as a
    # callable the secant; both raise at the same first sample as the loop.
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 0.5), 100)
    assert bvp.flag == "unique"
    spec = PerturbationSpec(amplitude=8.0, mode_count=8, seed=10, pinned="p-pinned")
    secant = _secant_calls(monkeypatch)
    certify_bounds(model, "R-chain", bvp, spec, 4)
    assert bool(secant) == (model.potential_coeffs is None)
    reference_values(model, "R-chain", bvp.path, spec, 4)
    with pytest.raises(RootFindError, match="compatibility shift"):
        certify_bounds(model, "R-chain", bvp, spec, 5)
    with pytest.raises(RootFindError, match="compatibility shift"):
        reference_values(model, "R-chain", bvp.path, spec, 5)


@pytest.mark.parametrize("model, miss", [
    (_bounded_force_model(), 5.0), (HamiltonianModel.separable(1.0, CUBIC_SADDLE), -5.0),
], ids=["secant", "power-sums"])
def test_shift_that_misses_the_momentum_end_raises(model, miss):
    # |H_q| < 1 moves the bounded-force momentum by less than 1 over t = 1,
    # and the cubic's -V' >= -5/3 keeps its end above p(0) - 5/3, so neither
    # restricted momentum can end 5 beyond p(t_f); two columns, as in a block
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 100)
    path = bvp.path
    theta = path.q[:, None] * np.ones(2)
    with pytest.raises(RootFindError, match="compatibility shift"):
        bounds._compatibility_shift(model, theta, path.dt, path.p[0], path.p[-1] + miss)
    with pytest.raises(RootFindError, match="compatibility shift"):
        _ref_shift(model, path.q, path.dt, path.p[0], path.p[-1] + miss)


def _concave_coeffs(coeffs, lead, degree):
    """V = sum_k c_k q^k / k! of the given degree (c_k = coeffs[k] below it,
    lead at it), its q^2 term lowered until V'' <= -1/2 on [-3, 3] (on a
    601-point grid)."""
    c = np.array(coeffs[:degree] + [lead]) / [math.factorial(k) for k in range(degree + 1)]
    q = np.linspace(-3.0, 3.0, 601)
    curvature = sum(k * (k - 1) * c[k] * q ** (k - 2) for k in range(2, degree + 1))
    c[2] -= max(0.0, np.max(curvature) + 0.5) / 2.0
    return tuple(c)


@settings(max_examples=40)
@given(
    degree=st.integers(3, 6), coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    lead=st.floats(0.1, 1.0) | st.floats(-1.0, -0.1),
    log_mass=st.floats(-1.0, 1.0), n=st.integers(100, 1000), t=st.floats(0.5, 2.0),
    offset=st.floats(-0.5, 0.5), eps=st.floats(0.05, 0.5), seed=st.integers(0, 2**31 - 1),
)
def test_power_sum_shift_meets_the_momentum_end(degree, coeffs, lead, log_mass, n, t, offset,
                                                eps, seed):
    # a block of four columns, each shifted towards the end its restricted
    # momentum takes at a shift in [-1, 1] (so a root exists where V is
    # concave): the direct IVP from the shifted column meets that end
    # within _SHIFT_TOL, and each column is its own 1-d shift, bit for bit
    mass = 10.0**log_mass
    model = HamiltonianModel.separable(mass, potential_coeffs=_concave_coeffs(coeffs, lead, degree))
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, t, n + 1)
    dt = times[1] - times[0]
    theta = offset + bounds._series(_mode_basis(times, 8, np.cos), eps, rng.normal(size=(4, 8)))
    pi_start = mass * rng.normal()
    pi_end = bounds._restricted_momentum_ivp(model, theta + rng.uniform(-1, 1, 4), dt, pi_start)[-1]
    with mock.patch.object(bounds, "_secant_shift", side_effect=AssertionError("secant ran")):
        shifted = bounds._compatibility_shift(model, theta, dt, pi_start, pi_end)
    ends = bounds._restricted_momentum_ivp(model, shifted, dt, pi_start)[-1]
    assert np.all(np.abs(ends - pi_end) <= bounds._SHIFT_TOL)
    for j in range(4):
        column = bounds._compatibility_shift(model, theta[:, j], dt, pi_start, pi_end[j])
        assert np.array_equal(column, shifted[:, j])
        assert np.array_equal(column, _ref_shift(model, theta[:, j], dt, pi_start, pi_end[j]))


@pytest.mark.parametrize("name, want", [
    ("anharmonic-saddle", [(), (16,), (16,), (8,)]),
    ("saddle-quadratic", [(), (16,), (16,), (13,)]),
])
def test_blocked_r_chain_shift_runs_no_momentum_ivp(name, want, monkeypatch):
    # one restricted-momentum IVP per block, for J', and one on the critical
    # path, for the slack: 40 blocked samples in blocks of 16 (one block at
    # the 324 samples _block_size gives 100 intervals) are blocks of 16, 16
    # and 8, and the quadratic form evaluates J' on 45 columns, in blocks of
    # 16, 16 and 13
    monkeypatch.setattr(bounds, "_block_size", lambda model, nodes: 16)
    model, n, _ = REFERENCE_MODELS[name]
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), n)
    spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=17, pinned="p-pinned")
    widths = []
    ivp = bounds._restricted_momentum_ivp

    def counting(model, theta, dt, pi_start, *workspace):
        widths.append(np.shape(theta)[1:])
        return ivp(model, theta, dt, pi_start, *workspace)

    monkeypatch.setattr(bounds, "_restricted_momentum_ivp", counting)
    certify_bounds(model, "R-chain", bvp, spec, 40)
    assert widths == want


@pytest.mark.parametrize("model", [
    HamiltonianModel.free(2.0), HamiltonianModel.constant_force(1.0, 0.5),
], ids=["free", "constant-force"])
def test_constant_force_shift_takes_no_step(model):
    # a constant V' moves the restricted momentum by -V' t whatever Theta is:
    # Theta comes back unshifted when that end is pi_end, and no shift reaches
    # any other pi_end
    times = np.linspace(0.0, 1.0, 101)
    dt = times[1] - times[0]
    theta = 0.3 + bounds._series(_mode_basis(times, 8, np.cos), 0.2,
                                 np.random.default_rng(4).normal(size=(3, 8)))
    pi_end = bounds._restricted_momentum_ivp(model, theta, dt, 0.7)[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(bounds._compatibility_shift(model, theta, dt, 0.7, pi_end), theta)
        assert np.array_equal(bounds._compatibility_shift(model, theta[:, 0], dt, 0.7, pi_end[0]),
                              theta[:, 0])
        with pytest.raises(RootFindError, match="compatibility shift"):
            bounds._compatibility_shift(model, theta, dt, 0.7, pi_end + 1.0)


@pytest.mark.parametrize("chain, pin", [("S-chain", "q-pinned"), ("R-chain", "p-pinned")])
def test_blocks_allocate_less_than_two_block_arrays(chain, pin, monkeypatch):
    # every block computes in the certificate's one workspace, so the memory a
    # block allocates beyond what it starts with (its draws, padded
    # coefficients and per-column rows) stays under two (nodes, block) arrays,
    # where a block of node-sized temporaries held 6 to 8 of them.  The block
    # runs from one _draws call to the next, or to the certificate's return;
    # the first is left out.  128 samples are four blocks of 32
    model = REFERENCE_MODELS["anharmonic-saddle"][0]
    bvp = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 1000)
    spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=17, pinned=pin)
    width = bounds._block_size(model, 1001)
    peaks, start, draws = [], [], bounds._draws

    def transient_peak():
        if start:
            peaks.append(tracemalloc.get_traced_memory()[1] - start[-1])

    def measured(*args):
        transient_peak()
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])
        return draws(*args)

    monkeypatch.setattr(bounds, "_draws", measured)
    tracemalloc.start()
    try:
        certify_bounds(model, chain, bvp, spec, 128)
        transient_peak()
    finally:
        tracemalloc.stop()
    assert len(peaks) == 128 // width == 4
    assert max(peaks[1:]) < 2 * 1001 * width * 8


def _square_root_newton(a, x0):
    """_newton_nodes on x^2 = a, one column of a (nodes, columns) per solve."""
    return bounds._newton_nodes(lambda x, out: np.subtract(x * x, a, out=out),
                                lambda x, out: np.multiply(2.0, x, out=out),
                                x0, np.ones(a.shape[1]))


# x^2 = a from x0, node by node: each column is (a, x0) of two nodes.  From
# x0 = 2^-17, a = -2^-34, one step lands on x = 0, where the derivative is
# zero and the miss, 2^-34, is within the final tolerance; from x0 = 1,
# a = -1 lands on 0 with a miss of 1; a < 0 otherwise has no root, and
# Newton wanders for all 60 iterations
NEWTON_COLUMNS = {
    "quick": ([4.0, 9.0], [1.0, 1.0]),
    "slow": ([1e4, 2e4], [1.0, 1.0]),
    "exact": ([2.25, 0.0625], [1.5, 0.25]),
    "zero-slope": ([-2.0**-34, -2.0**-34], [2.0**-17, 2.0**-17]),
    "zero-slope-miss": ([4.0, -1.0], [2.0, 1.0]),
    "no-root": ([-3.0, 4.0], [1.0, 2.0]),
}


def _newton_block(names):
    a, x0 = (np.array([NEWTON_COLUMNS[name][i] for name in names]).T for i in (0, 1))
    return a, x0


@pytest.mark.parametrize("names", [
    ["quick", "quick"],  # every column stops at once: the block never leaves the view of x
    ["slow", "quick", "zero-slope", "slow"],  # the first stops after one step on the view
    ["slow", "quick", "exact", "zero-slope", "slow"],  # and at once
])
def test_node_newton_block_equals_per_column_solves(names):
    # columns stop at different iterations, for convergence or a zero slope,
    # and each ends where a solve of it alone, and the 1-d reference, end
    a, x0 = _newton_block(names)
    block = _square_root_newton(a, x0)
    for j in range(len(names)):
        alone = _square_root_newton(a[:, j:j + 1], x0[:, j:j + 1])[:, 0]
        ref = _ref_newton(lambda x: x * x - a[:, j], lambda x: 2.0 * x, x0[:, j], 1.0)
        assert np.array_equal(block[:, j], alone) and np.array_equal(alone, ref), names[j]
    assert np.array_equal(block[:, names.index("quick")], [2.0, 3.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a zero slope divides by zero in the loop
@pytest.mark.parametrize("names, node", [
    (["slow", "zero-slope-miss", "no-root", "quick"], 1),
    (["slow", "no-root", "zero-slope-miss", "quick"], 0),
])
def test_node_newton_block_raises_the_first_failing_columns_node(names, node):
    # column 1 fails first, at its own failing node, as its solve alone does
    a, x0 = _newton_block(names)
    column = 1
    with pytest.raises(RootFindError) as blocked:
        _square_root_newton(a, x0)
    with pytest.raises(RootFindError) as alone:
        _square_root_newton(a[:, column:column + 1], x0[:, column:column + 1])
    with pytest.raises(RootFindError) as ref:
        _ref_newton(lambda x: x * x - a[:, column], lambda x: 2.0 * x, x0[:, column], 1.0)
    assert blocked.value.node_index == alone.value.node_index == ref.value.node_index == node


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
