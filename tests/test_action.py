import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualaction import (
    BlowUpError,
    BoundarySpec,
    HamiltonianModel,
    PhasePath,
    PreconditionError,
    action_r,
    action_s,
    hj_residual_r,
    hj_residual_s,
    k_total_derivative_residual,
    legendre_residual,
    solve_position_bvp,
)
from dualaction import action, dynamics
from dualaction.action import _action_values, _grad, _surface_actions
from dualaction.dynamics import _shoot_batch
from dualaction.model import BUILTIN_NAMES

from conftest import smooth_fourier_path


def critical_path(model, q0, q1, t, n):
    rep = solve_position_bvp(model, BoundarySpec("position-type", q0, q1), (0.0, t), n)
    assert rep.flag == "unique"
    return rep.path


class TestActionS:
    def test_free_critical_value(self, free):
        path = critical_path(free, 0.0, 1.0, 1.0, 2000)
        assert action_s(free, path).value == pytest.approx(0.5, abs=1e-6)

    def test_zero_path(self, free):
        path = PhasePath(0.0, 1.0, np.zeros(101), np.zeros(101))
        assert action_s(free, path).value == 0.0

    def test_sho_quarter_period_vanishes(self, sho):
        # closed form (m w / 2 sin wt)[(qi^2+qf^2) cos wt - 2 qi qf] = 0 here
        path = critical_path(sho, 0.0, 1.0, math.pi / 2, 4000)
        assert action_s(sho, path).value == pytest.approx(0.0, abs=1e-6)

    def test_rule_selection(self, free):
        even = PhasePath(0.0, 1.0, np.ones(101), np.linspace(0, 1, 101))
        odd = PhasePath(0.0, 1.0, np.ones(102), np.linspace(0, 1, 102))
        assert action_s(free, even).rule == "simpson"
        assert action_s(free, odd).rule == "trapezoid"

    def test_refinement_second_order(self, sho):
        values = {}
        for n in (500, 1000, 2000):
            t, p, q = smooth_fourier_path(7, n)
            values[n] = action_s(sho, PhasePath(0.0, 1.0, p, q)).value
        d1 = abs(values[500] - values[1000])
        d2 = abs(values[1000] - values[2000])
        assert math.log2(d1 / d2) >= 1.9


class TestActionR:
    def test_free_uniform_motion(self, free):
        t = np.linspace(0.0, 1.0, 2001)
        path = PhasePath(0.0, 1.0, np.ones_like(t), t)
        assert action_r(free, path).value == pytest.approx(-0.5, abs=1e-6)

    def test_zero_path(self, free):
        path = PhasePath(0.0, 1.0, np.zeros(101), np.zeros(101))
        assert action_r(free, path).value == 0.0

    def test_sho_critical_matches_legendre_transfer(self, sho):
        path = critical_path(sho, 0.0, 1.0, math.pi / 2, 4000)
        s = action_s(sho, path).value
        r = action_r(sho, path).value
        boundary = path.p[-1] * path.q[-1] - path.p[0] * path.q[0]
        assert r == pytest.approx(s - boundary, abs=1e-6)


class TestLegendreResidual:
    def test_free_critical_hand_computation(self, free):
        # S = 1/2, R = -1/2, [pq] boundary term = 1
        path = critical_path(free, 0.0, 1.0, 1.0, 2000)
        s, r = action_s(free, path).value, action_r(free, path).value
        assert s == pytest.approx(0.5, abs=1e-6)
        assert r == pytest.approx(-0.5, abs=1e-6)
        assert legendre_residual(free, path) == pytest.approx(0.0, abs=1e-9)

    def test_constant_path_identically_zero(self, sho):
        path = PhasePath(0.0, 1.0, np.full(201, 0.7), np.full(201, -0.4))
        assert legendre_residual(sho, path) == pytest.approx(0.0, abs=1e-12)

    def test_random_smooth_path_shrinks(self, sho):
        t, p, q = smooth_fourier_path(3, 200)
        r200 = abs(legendre_residual(sho, PhasePath(0.0, 1.0, p, q)))
        t, p, q = smooth_fourier_path(3, 400)
        r400 = abs(legendre_residual(sho, PhasePath(0.0, 1.0, p, q)))
        assert r200 / r400 >= 3.5

    @settings(max_examples=30)
    @given(
        log_mass=st.floats(-1.0, 1.0),
        drift=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
        potential=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
        seed=st.integers(0, 2**16),
    )
    def test_random_drift_models_obey_the_identity(self, log_mass, drift, potential, seed):
        # S - R - [pq] integrates p dq/dt + q dp/dt - d(pq)/dt: H cancels, so the
        # residual is the free particle's on the same path, to rounding of H
        model = HamiltonianModel.with_drift(10.0**log_mass, drift, potential)
        free = HamiltonianModel.free()
        res = {}
        for n in (2000, 4000):
            _, p, q = smooth_fourier_path(seed, n)
            path = PhasePath(0.0, 1.0, p, q)
            res[n] = legendre_residual(model, path)
            size = 1.0 + np.max(np.abs(model.eval(p, q)))
            assert res[n] == pytest.approx(legendre_residual(free, path), abs=1e-13 * size)
        assert abs(res[2000]) <= 1e-6
        assert abs(res[2000]) <= 1e-10 or abs(res[2000] / res[4000]) >= 3.5


class TestKTotalDerivative:
    def test_free_critical(self, free):
        path = critical_path(free, 0.0, 1.0, 1.0, 1000)
        assert k_total_derivative_residual(free, path) <= 1e-10

    def test_sho_critical(self, sho):
        path = critical_path(sho, 0.0, 1.0, math.pi / 2, 1000)
        assert k_total_derivative_residual(sho, path) <= 1e-4

    def test_saddle_critical(self, saddle):
        path = critical_path(saddle, 0.0, 1.0, 1.0, 1000)
        assert k_total_derivative_residual(saddle, path) <= 1e-4

    def test_second_order_in_grid(self, sho):
        path1 = critical_path(sho, 0.0, 1.0, 1.0, 500)
        path2 = critical_path(sho, 0.0, 1.0, 1.0, 1000)
        r1 = k_total_derivative_residual(sho, path1)
        r2 = k_total_derivative_residual(sho, path2)
        assert r1 / r2 >= 3.5


class TestStationarity:
    @staticmethod
    def _first_order_coefficient(f, eps_pair=(1e-3, 1e-4)):
        """Richardson-extrapolated first-order coefficient of f(eps) - f(0)."""
        f0 = f(0.0)
        e1, e2 = eps_pair
        g1 = (f(e1) - f0) / e1
        g2 = (f(e2) - f0) / e2
        return (g2 * e1 - g1 * e2) / (e1 - e2)

    def test_s_stationary_under_pinned_q_perturbations(self, sho):
        path = critical_path(sho, 0.0, 1.0, 1.2, 2000)
        u = (path.times - path.times[0]) / (path.times[-1] - path.times[0])
        bump = np.sin(np.pi * 2 * u)

        def s_of(eps):
            q = path.q + eps * bump
            p = sho.mass * _grad(q, path.dt)  # p re-derived from q' = H_p
            return action_s(sho, PhasePath(path.t_start, path.t_end, p, q)).value

        assert abs(self._first_order_coefficient(s_of)) <= 1e-6

    def test_r_stationary_under_pinned_p_perturbations(self, sho):
        path = critical_path(sho, 0.0, 1.0, 1.2, 2000)
        u = (path.times - path.times[0]) / (path.times[-1] - path.times[0])
        bump = np.sin(np.pi * 3 * u)

        def r_of(eps):
            p = path.p + eps * bump
            return action_r(sho, PhasePath(path.t_start, path.t_end, p, path.q)).value

        assert abs(self._first_order_coefficient(r_of)) <= 1e-6

    def test_r_first_order_without_pinning_matches_boundary_form(self, sho):
        # dR = dp(t_i) q(t_i) - dp(t_f) q(t_f) for unpinned momentum variations
        path = critical_path(sho, 0.3, 1.0, 1.2, 2000)
        u = (path.times - path.times[0]) / (path.times[-1] - path.times[0])
        bump = np.cos(np.pi * u) + 0.5  # nonzero at both endpoints

        def r_of(eps):
            p = path.p + eps * bump
            return action_r(sho, PhasePath(path.t_start, path.t_end, p, path.q)).value

        measured = self._first_order_coefficient(r_of)
        expected = bump[0] * path.q[0] - bump[-1] * path.q[-1]
        assert measured == pytest.approx(expected, abs=1e-6)


class TestHJResidualS:
    def test_free_particle_surface(self, free):
        fld = hj_residual_s(free, 0.0, np.linspace(0.5, 1.5, 11), np.linspace(0.5, 1.5, 11))
        assert np.all(fld.valid)
        assert fld.max_abs_hj() <= 1e-4
        assert fld.max_abs_companion() <= 1e-4

    def test_sho_surface(self, sho):
        fld = hj_residual_s(sho, 0.0, np.linspace(0.5, 1.5, 9), np.linspace(0.3, 1.0, 9))
        assert fld.max_abs_hj() <= 1e-3

    def test_free_surface_matches_closed_form(self, free):
        qf = np.linspace(0.5, 1.5, 5)
        tv = np.linspace(0.5, 1.5, 5)
        fld = hj_residual_s(free, 0.0, qf, tv)
        expected = qf[None, :] ** 2 / (2.0 * tv[:, None])
        np.testing.assert_allclose(fld.surface, expected, atol=1e-8)

    def test_degenerate_nodes_masked(self, sho):
        # t = pi row hits the conjugate point for q_i = q_f = 0
        fld = hj_residual_s(sho, 0.0, np.array([0.0]), np.array([math.pi]))
        assert not fld.valid[0, 0]
        assert math.isnan(fld.max_abs_hj())

    def test_csv_export(self, free, tmp_path):
        fld = hj_residual_s(free, 0.0, np.linspace(0.8, 1.2, 3), np.linspace(0.8, 1.2, 3))
        out = tmp_path / "field.csv"
        fld.to_csv(out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "q_f,t,residual"
        assert len(rows) == 1 + 9


class TestHJResidualR:
    def test_free_particle_feasible_line(self, free):
        fld = hj_residual_r(free, 1.0, [1.0], np.linspace(0.5, 1.5, 11))
        assert np.all(fld.valid)
        assert fld.max_abs_hj() <= 1e-8

    def test_free_particle_off_line_masked(self, free):
        fld = hj_residual_r(free, 1.0, [0.5, 1.0, 2.0], np.array([1.0]))
        np.testing.assert_array_equal(fld.valid[0], [False, True, False])

    def test_free_particle_line_matches_serial_paths(self):
        from dualaction import integrate_ivp

        free = HamiltonianModel.free(2.0)
        times = np.linspace(0.5, 1.5, 5)
        fld = hj_residual_r(free, 1.0, [1.0], times, n_steps=300, fd_step=1e-3)
        for i, t in enumerate(times):
            def r_at(tt):
                return action_r(free, integrate_ivp(free, 1.0, 0.0, (0.0, tt), 300)).value

            assert fld.surface[i, 0] == pytest.approx(r_at(t), rel=1e-12, abs=1e-15)
            d_rdt = (r_at(t + 1e-3) - r_at(t - 1e-3)) / 2e-3
            assert fld.hj[i, 0] == pytest.approx(free.eval(1.0, 0.0) + d_rdt, abs=1e-9)

    def test_free_particle_line_past_float_range_raises(self):
        # q = p t / m overflows on the feasible line itself, which no mask covers
        with pytest.raises(BlowUpError):
            hj_residual_r(HamiltonianModel.free(1e-300), 1e10, [1e10, 2e10], [1.0])

    def test_free_particle_line_rejects_non_positive_horizon(self, free):
        with pytest.raises(PreconditionError):
            hj_residual_r(free, 1.0, [1.0], np.array([0.5]), fd_step=0.6)

    def test_sho_surface_and_companion(self, sho):
        fld = hj_residual_r(sho, 1.0, np.linspace(0.2, 0.9, 8), np.linspace(0.3, 1.0, 8))
        assert np.all(fld.valid)
        assert fld.max_abs_hj() <= 1e-3
        assert fld.max_abs_companion() <= 1e-3

    def test_surface_of_a_potential_odd_in_q(self):
        # V = q^2/2 + 0.7 q: H(p_f, -dR/dp_f) differs from H(p_f, dR/dp_f), unlike on sho
        shifted = HamiltonianModel.separable(1.0, (0.0, 0.7, 0.5))
        fld = hj_residual_r(shifted, 1.0, np.linspace(0.2, 0.9, 8), np.linspace(0.3, 1.0, 8))
        assert np.all(fld.valid)
        assert fld.max_abs_hj() <= 1e-3
        assert fld.max_abs_companion() <= 1e-3

    def test_sho_surface_matches_bvp_oracle(self, sho):
        # brute-force oracle: R from an independent momentum-type shooting
        from dualaction import solve_momentum_bvp

        fld = hj_residual_r(sho, 1.0, np.array([0.5]), np.array([0.7]))
        rep = solve_momentum_bvp(sho, BoundarySpec("momentum-type", 1.0, 0.5), (0.0, 0.7), 800)
        oracle = action_r(sho, rep.path).value
        assert fld.surface[0, 0] == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("residual, model", [
    (hj_residual_s, HamiltonianModel.free()),
    (hj_residual_r, HamiltonianModel.sho()),
    (hj_residual_r, HamiltonianModel.free()),  # the cyclic line p_f = p_i
])
@pytest.mark.parametrize("t_values", [[0.0, 0.5], [-1.0, 1.0], [0.5, 1e-3]])
def test_surfaces_need_forward_horizons(residual, model, t_values):
    with pytest.raises(PreconditionError):
        residual(model, 1.0, [0.5, 1.0], t_values, n_steps=50, fd_step=1e-3)


def test_model_kind_does_not_decide_the_r_surface():
    # H_q = 9.4e-63 q is tiny but not zero, so neither kind takes the cyclic line
    args = (0.0, [-0.5, 0.0, 0.5], [0.5, 1.0])
    a = hj_residual_r(HamiltonianModel.separable(1.0, (0.0, 0.0, 4.7e-63)), *args, n_steps=100)
    b = hj_residual_r(HamiltonianModel.with_drift(1.0, (0.0,), (0.0, 0.0, 4.7e-63)), *args,
                      n_steps=100)
    assert np.array_equal(a.valid, b.valid)


def _affine_model(name, mass, coeffs):
    """A builtin, or separable(m, m * coeffs) for 'separable', with rates of order 1 at
    any mass: an unstable flow at kappa t >> 1 loses digits on paths and forms alike."""
    if name == "separable":
        return HamiltonianModel.separable(mass, tuple(mass * c for c in coeffs))
    return HamiltonianModel.builtin(name, mass=mass, k=mass, force=mass)


def _on_paths(monkeypatch):
    """Make every surface shot a swept one, so its actions come from the path quadrature."""
    shoot = action._shoot_batch

    def swept(*args, **kwargs):
        shots = shoot(*args, **kwargs)
        return dataclasses.replace(shots, powers=None, swept=(shots.P, shots.Q))

    monkeypatch.setattr(action, "_shoot_batch", swept)


class TestAffineForms:
    """Affine surfaces read S and R off one 3x3 form per horizon instead of
    integrating each lane's path."""

    @settings(max_examples=60)
    @given(
        name=st.sampled_from(BUILTIN_NAMES + ("separable",)),
        log_mass=st.floats(-3.0, 5.0),
        coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        n_steps=st.sampled_from([1, 2, 3, 4, 5, 8, 51, 300]),
        which=st.sampled_from(["s", "r"]),
        start=st.floats(-1.0, 1.0),
        targets=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=6),
        horizons=st.lists(st.sampled_from([0.3, 0.8, 1.7]), min_size=6, max_size=6),
    )
    def test_forms_match_the_path_quadrature(self, name, log_mass, coeffs, n_steps, which,
                                             start, targets, horizons):
        mass = 10.0**log_mass
        model = _affine_model(name, mass, coeffs)
        scale = 1.0 if which == "s" else mass  # momenta in units of the mass
        start, targets = scale * start, scale * np.array(targets)
        horizons = np.array(horizons[:targets.size])
        values, conjugate_end, ok, method = _surface_actions(model, start, targets, horizons,
                                                             n_steps, which)
        assert method == "affine-form"
        shoot_on = "p0" if which == "s" else "q0"
        shots = _shoot_batch(model, start, targets, (0.0, horizons), n_steps, shoot_on)
        end = 0 if which == "s" else 1
        with np.errstate(all="ignore"):
            want, _ = _action_values(model, shots.P, shots.Q, horizons / n_steps, which)
            size = np.maximum(np.abs(want), np.max(np.abs(shots.P * shots.Q), axis=0))
            # G^N x0 in two orders of summation differ by rounding in its largest term
            terms = np.sum(np.abs(shots.powers[shots.horizon, -1, end] * shots.x0), axis=1)
        assert np.array_equal(ok & np.isfinite(values), ok & np.isfinite(want))
        good = ok & np.isfinite(want)
        assert np.all(np.abs(values - want)[good] <= 1e-12 * size[good])
        path_end = (shots.P if which == "s" else shots.Q)[-1]
        assert np.all(np.abs(conjugate_end - path_end)[good] <= 1e-15 * terms[good])

    @pytest.mark.parametrize("name", ["sho", "saddle-quadratic"])
    def test_surfaces_build_no_path(self, name, monkeypatch):
        def build(*args):
            raise AssertionError("an affine surface built a path")

        monkeypatch.setattr(dynamics, "_affine_paths", build)
        monkeypatch.setattr(action, "_affine_paths", build)
        model = HamiltonianModel.builtin(name)
        grid, times = np.linspace(0.3, 1.0, 6), np.linspace(0.4, 0.9, 4)
        for fld in (hj_residual_s(model, 0.1, grid, times), hj_residual_r(model, 1.0, grid, times)):
            assert np.all(fld.valid)
            assert fld.method == "affine-form" and fld.lanes == 5 * grid.size * times.size
            assert fld.max_abs_hj() <= 1e-3

    def test_surface_records_its_method_and_lanes(self, free):
        quartic = HamiltonianModel.separable(1.0, (0.0, 0.0, 0.5, 0.0, 0.1))
        fld = hj_residual_s(quartic, 0.0, [0.5, 1.0], [0.5, 0.7, 0.9], n_steps=100)
        assert (fld.method, fld.lanes) == ("quadrature", 30)
        fld = hj_residual_r(free, 1.0, [0.5, 1.0], [0.5, 0.7, 0.9], n_steps=100)
        assert (fld.method, fld.lanes) == ("quadrature", 9)  # the cyclic line: 3 per row

    def test_sho_surface_memory(self, sho):
        # the forms need G^0..G^N per horizon, not the (nodes x lanes) paths
        args = (sho, 0.0, np.linspace(0.5, 1.5, 11), np.linspace(0.3, 1.0, 11))
        hj_residual_s(*args)
        tracemalloc.start()
        try:
            fld = hj_residual_s(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(fld.valid) and fld.lanes == 605
        assert peak < 8e6

    @pytest.mark.parametrize("residual", [hj_residual_s, hj_residual_r])
    def test_overflowing_saddle_masks_as_the_paths_do(self, residual, monkeypatch):
        # kappa = 1000 on t in [0.7, 1.3]: G^N reaches e^700 and beyond, so forms overflow
        # first; the t = 0.7 row stays a finite path pinned at 0, the later rows do not
        saddle = HamiltonianModel.saddle_quadratic(1.0, 1e6)
        args = (saddle, 0.0, np.linspace(0.5, 1.5, 5), np.linspace(0.7, 1.3, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fld = residual(*args)
        _on_paths(monkeypatch)
        want = residual(*args)
        assert (fld.method, want.method) == ("affine-form", "quadrature")
        assert np.array_equal(fld.valid, want.valid)
        assert np.any(fld.valid) and not np.all(fld.valid)
        np.testing.assert_allclose(fld.surface[fld.valid], want.surface[want.valid], rtol=1e-12)


class TestCanonicalDuality:
    """The rotation (Q, P) = (p, -q) takes R of H to S of H~(P, Q) = H(Q, -P).  For
    sho(m, omega), k = m omega^2, H~ = P^2 k/2 + Q^2/(2m): separable(1/k, (0, 0, 1/(2m)))."""

    @settings(max_examples=30)
    @given(
        mass=st.floats(0.1, 10.0),
        omega=st.floats(0.3, 2.0),
        p_i=st.floats(-1.0, 1.0),
        fractions=st.lists(st.floats(0.25, 0.95), min_size=1, max_size=3),
    )
    def test_r_of_the_oscillator_is_s_of_the_rotated_one(self, mass, omega, p_i, fractions):
        sho = HamiltonianModel.sho(mass, omega)
        rotated = HamiltonianModel.separable(1.0 / (mass * omega**2), (0.0, 0.0, 0.5 / mass))
        grid = np.linspace(-1.5, 1.5, 7)
        times = np.sort(fractions) * np.pi / (2.0 * omega)
        r = hj_residual_r(sho, p_i, grid, times, n_steps=400)
        s = hj_residual_s(rotated, p_i, grid, times, n_steps=400)
        assert np.array_equal(r.valid, s.valid) and np.any(r.valid)
        ok = r.valid
        scale = max(1.0, np.max(np.abs(r.surface[ok])))
        assert np.max(np.abs(r.surface - s.surface)[ok]) <= 1e-12 * scale
        assert np.max(np.abs(r.hj - s.hj)[ok]) <= 1e-9
        assert np.max(np.abs(r.companion - s.companion)[ok]) <= 1e-9


class TestQuadratureMatchesScipy:
    """The numpy rules reproduce scipy.integrate bit for bit on unit grids."""

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["1-d", "2-d"])
    def test_rules(self, shape):
        integrate = pytest.importorskip("scipy.integrate")
        from dualaction.action import _cumulative_trapezoid, _simpson, _trapezoid

        for n_nodes in range(3, 61):  # odd and even interval counts
            y = np.random.default_rng(n_nodes).normal(size=(n_nodes,) + shape)
            if n_nodes % 2:  # _quadrature hands Simpson odd node counts only
                assert np.array_equal(_simpson(y), integrate.simpson(y, dx=1.0, axis=0)), n_nodes
            assert np.array_equal(_trapezoid(y), integrate.trapezoid(y, dx=1.0, axis=0)), n_nodes
            expected = integrate.cumulative_trapezoid(y, dx=0.37, axis=0, initial=0)
            assert np.array_equal(_cumulative_trapezoid(y, 0.37), expected), n_nodes

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["1-d", "2-d"])
    def test_rules_in_buffers(self, shape):
        # the rules computed in caller's buffers, as a certificate's blocks run them,
        # return the same values, the cumulative integral in out itself
        integrate = pytest.importorskip("scipy.integrate")
        from dualaction.action import _cumulative_trapezoid, _simpson, _trapezoid

        for n_nodes in range(3, 61):
            y = np.random.default_rng(n_nodes).normal(size=(n_nodes,) + shape)
            gap, out = np.full_like(y[1:], np.nan), np.full_like(y, np.nan)
            if n_nodes % 2:
                half = np.full_like(y[1::2], np.nan)
                assert np.array_equal(_simpson(y, half), integrate.simpson(y, dx=1.0, axis=0))
            assert np.array_equal(_trapezoid(y, gap), integrate.trapezoid(y, dx=1.0, axis=0))
            expected = integrate.cumulative_trapezoid(y, dx=0.37, axis=0, initial=0)
            assert _cumulative_trapezoid(y, 0.37, out, gap) is out
            assert np.array_equal(out, expected), n_nodes


class TestSlopes:
    """_grad is np.gradient's uniform second-order rule, then / dt, bit for bit."""

    @pytest.mark.parametrize("nodes", [2, 3, 4, 1001])
    @pytest.mark.parametrize("form", ["1-d", "C", "F", "horizons"])
    def test_grad_is_gradient(self, nodes, form):
        rng = np.random.default_rng(nodes)
        axis, dt = 0, 0.37
        if form == "1-d":
            y = rng.normal(size=nodes)
        elif form == "horizons":
            # _action_forms' rows: a (h, 3, nodes) view along the last axis, a step per horizon
            y = rng.normal(size=(4, 3, 3, nodes))[:, 1]
            axis, dt = -1, -rng.uniform(0.1, 1.0, size=(4, 1, 1))
        else:
            y = np.array(rng.normal(size=(nodes, 5)), order=form)
        expected = np.gradient(y, 1.0, axis=axis, edge_order=2 if nodes >= 3 else 1) / dt
        assert np.array_equal(_grad(y, dt, axis=axis), expected)
        out = np.full_like(y, np.nan)
        assert _grad(y, dt, axis=axis, out=out) is out
        assert np.array_equal(out, expected)


class TestLaneExactQuadrature:
    """A lane of a batch integrates to the value of the same 1-d path, bit for bit."""

    @settings(max_examples=80)
    @given(
        nodes=st.integers(2, 400),
        lanes=st.integers(2, 7),
        layout=st.sampled_from(["C", "F", "strided", "lane-strided"]),
        per_lane_dt=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lanes_equal_their_paths(self, nodes, lanes, layout, per_lane_dt, seed):
        from dualaction.action import _quadrature

        rng = np.random.default_rng(seed)
        base = rng.normal(size=(2 * nodes, 3 * lanes))
        if layout == "C":
            y = np.ascontiguousarray(base[:nodes, :lanes])
        elif layout == "F":
            y = np.asfortranarray(base[:nodes, :lanes])
        elif layout == "strided":  # neither axis contiguous
            y = base[::2, ::3]
        else:  # axis 0 contiguous, lanes spread apart
            y = np.asfortranarray(base[:nodes])[:, ::3]
        dt = rng.uniform(0.1, 2.0, size=lanes) if per_lane_dt else 0.37
        values, rule = _quadrature(y, dt)
        for k in range(lanes):
            lane, used = _quadrature(np.array(y[:, k]), dt[k] if per_lane_dt else dt)
            assert used == rule and values[k] == lane, (k, layout)

    @pytest.mark.parametrize("which", ["s", "r"])
    def test_swept_surface_lanes_equal_their_paths(self, which, monkeypatch):
        quartic_saddle = HamiltonianModel.separable(1.0, (0.0, 0.0, -0.5, 0.0, -0.05))
        shot = []
        shoot = action._shoot_batch

        def recording(*args, **kwargs):
            shot.append(shoot(*args, **kwargs))
            return shot[-1]

        monkeypatch.setattr(action, "_shoot_batch", recording)
        ends, times, n = np.linspace(0.5, 1.5, 4), np.array([0.6, 0.9, 1.2]), 200
        residual = hj_residual_s if which == "s" else hj_residual_r
        fld = residual(quartic_saddle, 0.2, ends, times, n_steps=n)
        assert fld.method == "quadrature" and np.any(fld.valid)
        (shots,) = shot
        own = action_s if which == "s" else action_r
        for i, t in enumerate(times):
            for j in np.flatnonzero(fld.valid[i]):
                lane = 5 * ends.size * i + j  # the unshifted node of row i
                path = PhasePath(0.0, t, shots.P[:, lane], shots.Q[:, lane])
                assert fld.surface[i, j] == own(quartic_saddle, path).value, (i, j)
