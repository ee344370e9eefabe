import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualaction import (
    BlowUpError,
    BoundarySpec,
    HamiltonianModel,
    PerturbationSpec,
    PhasePath,
    PreconditionError,
    action_r,
    action_s,
    certify_bounds,
    classify_extremum,
    hj_residual_r,
    hj_residual_s,
    integrate_ivp,
    solve_momentum_bvp,
    solve_position_bvp,
)
from dualaction import dynamics
from dualaction.dynamics import REFINED_DENSITY, SHOOTING_TOL, _rk4_batch, _shoot_batch
from dualaction.model import BUILTIN_NAMES


class TestPhasePath:
    def test_grid_and_times(self):
        path = PhasePath(0.0, 2.0, np.zeros(5), np.ones(5))
        assert path.n_intervals == 4
        assert path.dt == 0.5
        np.testing.assert_allclose(path.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_rejects_bad_shapes_and_order(self):
        with pytest.raises(PreconditionError):
            PhasePath(0.0, 1.0, np.zeros(3), np.zeros(4))
        with pytest.raises(PreconditionError):
            PhasePath(1.0, 0.0, np.zeros(3), np.zeros(3))
        with pytest.raises(PreconditionError):
            PhasePath(0.0, 1.0, np.array([0.0, np.nan]), np.zeros(2))

    def test_boundary_kind_validated(self):
        with pytest.raises(PreconditionError):
            BoundarySpec("energy-type", 0.0, 1.0)


class TestIntegrateIVP:
    def test_free_particle_exact(self, free):
        path = integrate_ivp(free, 1.0, 0.0, (0.0, 1.0), 100)
        assert np.all(path.p == 1.0)
        assert abs(path.q[-1] - 1.0) <= 1e-10

    def test_sho_full_period(self, sho):
        path = integrate_ivp(sho, 1.0, 0.0, (0.0, 2.0 * math.pi), 1000)
        assert abs(path.p[-1] - 1.0) <= 1e-6
        assert abs(path.q[-1]) <= 1e-6

    def test_saddle_cosh_growth(self, saddle):
        path = integrate_ivp(saddle, 0.0, 1.0, (0.0, 1.0), 1000)
        assert abs(path.q[-1] - math.cosh(1.0)) <= 1e-6

    def test_blow_up_carries_node_index(self, saddle):
        with pytest.raises(BlowUpError) as err:
            integrate_ivp(saddle, 0.0, 1.0, (0.0, 2000.0), 100)
        assert 1 <= err.value.node_index <= 100

    def test_needs_positive_steps(self, free):
        with pytest.raises(PreconditionError):
            integrate_ivp(free, 1.0, 0.0, (0.0, 1.0), 0)

    @pytest.mark.parametrize("model_name, p0, q0", [
        ("sho", 1.0, 0.3),
        ("cubic", 0.4, 0.2),
    ])
    def test_energy_drift_fourth_order(self, model_name, p0, q0):
        if model_name == "sho":
            model = HamiltonianModel.sho()
        else:
            model = HamiltonianModel.separable(1.0, potential_coeffs=(0.0, 0.0, 0.5, 0.3))

        def drift(n):
            path = integrate_ivp(model, p0, q0, (0.0, 3.0), n)
            return abs(model.eval(path.p[-1], path.q[-1]) - model.eval(p0, q0))

        order = math.log2(drift(200) / drift(400))
        assert order >= 3.9

    @settings(max_examples=25)
    @given(
        log_mass=st.floats(-0.3, 0.3),
        v=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                    st.floats(0.05, 1.0)),
        drift=st.none() | st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        p0=st.floats(-1.0, 1.0), q0=st.floats(-1.0, 1.0), t=st.floats(0.5, 1.0),
    )
    def test_rk4_converges_at_fourth_order(self, log_mass, v, drift, p0, q0, t):
        # a confining quartic V, alone (separable) or with a linear drift B(q) p
        # (general kind): the paths at N, 2N and 4N steps differ on their shared
        # nodes by 16 times less at each doubling.  The largest difference over
        # the nodes (the end state among them) does not dip where the leading
        # error term of one node passes zero
        mass = 10.0**log_mass
        coeffs = (0.0,) + v
        model = (HamiltonianModel.separable(mass, potential_coeffs=coeffs) if drift is None
                 else HamiltonianModel.with_drift(mass, drift, coeffs))
        paths = [integrate_ivp(model, p0, q0, (0.0, t), n) for n in (128, 256, 512)]
        shared = [np.stack([path.p[::2**k], path.q[::2**k]]) for k, path in enumerate(paths)]
        coarse = np.max(np.abs(shared[0] - shared[1]))
        fine = np.max(np.abs(shared[1] - shared[2]))
        assume(fine >= 1e-12)  # a difference near rounding measures noise, not order
        assert math.log2(coarse / fine) >= 3.9

    def test_reversibility(self, sho):
        fwd = integrate_ivp(sho, 1.0, 0.3, (0.0, 2.0), 400)
        # backward integration = forward integration of the reversed flow
        flipped = HamiltonianModel.general(
            lambda p, q: -sho.eval(p, q),
            partials={
                (1, 0): lambda p, q: -sho._derivative(1, 0)(p, q),
                (0, 1): lambda p, q: -sho._derivative(0, 1)(p, q),
            },
        )
        back = integrate_ivp(flipped, fwd.p[-1], fwd.q[-1], (0.0, 2.0), 400)
        drift_bound = abs(sho.eval(fwd.p[-1], fwd.q[-1]) - sho.eval(1.0, 0.3))
        tol = 10.0 * max(drift_bound, 1e-12)
        assert abs(back.p[-1] - 1.0) <= tol
        assert abs(back.q[-1] - 0.3) <= tol


class TestPositionBVP:
    def test_free_particle_momentum(self, free):
        rep = solve_position_bvp(free, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 400)
        assert rep.flag == "unique"
        assert rep.parameter == pytest.approx(1.0, abs=1e-9)

    def test_sho_quarter_period(self, sho):
        rep = solve_position_bvp(sho, BoundarySpec("position-type", 0.0, 1.0),
                                 (0.0, math.pi / 2), 800)
        assert rep.flag == "unique"
        assert rep.parameter == pytest.approx(1.0, abs=1e-7)

    def test_sho_conjugate_point_at_pi(self, sho):
        rep = solve_position_bvp(sho, BoundarySpec("position-type", 0.0, 0.0),
                                 (0.0, math.pi), 1000)
        assert rep.flag == "conjugate-degenerate"

    def test_sho_unique_below_conjugate_point(self, sho):
        rep = solve_position_bvp(sho, BoundarySpec("position-type", 0.0, 0.0),
                                 (0.0, math.pi - 0.1), 1000)
        assert rep.flag == "unique"
        assert rep.residual <= 1e-9

    def test_wrong_boundary_kind(self, free):
        with pytest.raises(PreconditionError):
            solve_position_bvp(free, BoundarySpec("momentum-type", 0.0, 1.0), (0.0, 1.0), 100)

    def test_refeed_reproduces_endpoint(self, sho):
        rep = solve_position_bvp(sho, BoundarySpec("position-type", 0.2, 0.9),
                                 (0.0, 1.1), 600)
        assert rep.flag == "unique"
        refeed = integrate_ivp(sho, rep.parameter, 0.2, (0.0, 1.1), 600)
        assert abs(refeed.q[-1] - 0.9) <= 2e-9

    def test_infeasible_out_of_reach(self, free):
        # free particle cannot exceed q = BRACKET_RANGE * t = 10 from rest
        rep = solve_position_bvp(free, BoundarySpec("position-type", 0.0, 50.0),
                                 (0.0, 0.01), 50)
        assert rep.flag == "infeasible"


class TestMomentumBVP:
    def test_free_particle_matched_momenta(self, free):
        rep = solve_momentum_bvp(free, BoundarySpec("momentum-type", 1.0, 1.0), (0.0, 1.0), 100)
        assert rep.flag == "conjugate-degenerate"  # solvable for any q0
        assert rep.residual == 0.0
        assert np.all(rep.path.p == 1.0)

    def test_free_particle_mismatched_momenta(self, free):
        rep = solve_momentum_bvp(free, BoundarySpec("momentum-type", 1.0, 2.0), (0.0, 1.0), 100)
        assert rep.flag == "infeasible"

    @pytest.mark.parametrize("model", [
        HamiltonianModel.free(), HamiltonianModel.with_drift(1.0, (0.0,), (0.0,))
    ], ids=["affine", "rk4"])
    def test_every_shot_missing_by_five_tol_is_infeasible(self, model):
        # p never moves, so every initial position misses the target by 5 tol:
        # the shooting must not report it solved, whatever the model's kind
        bounds = BoundarySpec("momentum-type", 0.3, 0.3 + 5.0 * SHOOTING_TOL)
        rep = dynamics._bvp(model, bounds, (0.0, 1.0), 100, "q0")
        assert rep.residual > SHOOTING_TOL
        assert rep.flag == "infeasible" and not rep.solved
        assert solve_momentum_bvp(model, bounds, (0.0, 1.0), 100).flag == "infeasible"

    @settings(max_examples=30)
    @given(
        model=st.one_of(
            st.floats(-3.0, 7.0).map(lambda u: HamiltonianModel.free(10.0**u)),
            st.builds(lambda u, b0, c0: HamiltonianModel.with_drift(10.0**u, (b0,), (c0,)),
                      st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        ),
        start=st.floats(-1e3, 1e3),
        miss=st.just(0.0) | st.floats(1.5, 1e6).flatmap(lambda x: st.sampled_from([x, -x])),
        horizon=st.floats(0.05, 3.0),
        n_steps=st.integers(20, 400),
    )
    def test_cyclic_models_take_q0_zero(self, model, start, miss, horizon, n_steps):
        # p never moves: equal ends are solved by every q0 and reported at 0 as a
        # degenerate family; unequal ones are infeasible, also reported at 0
        tol = SHOOTING_TOL * max(1.0, abs(start))
        end = start + miss * tol
        assume(miss == 0.0 or abs(end - start) > SHOOTING_TOL * max(1.0, abs(start), abs(end)))
        rep = solve_momentum_bvp(model, BoundarySpec("momentum-type", start, end),
                                 (0.0, horizon), n_steps)
        assert rep.parameter == 0.0 and rep.path.q[0] == 0.0
        assert np.all(rep.path.p == start)
        if miss == 0.0:
            assert rep.flag == "conjugate-degenerate" and rep.residual <= tol
        else:
            assert rep.flag == "infeasible"

    @pytest.mark.parametrize("coeffs, ends", [
        ((0.0, -4.7e-63, 0.0), (0.0, 1.0)),
        ((0.0, 0.0, 4.7e-63), (0.0, 0.0)),
    ], ids=["force", "curvature"])
    def test_model_kind_does_not_decide_a_nearly_cyclic_solve(self, coeffs, ends):
        # H_q is tiny but not zero, so neither kind is cyclic in q; the solves
        # must agree
        bounds = BoundarySpec("momentum-type", *ends)
        a = solve_momentum_bvp(HamiltonianModel.separable(1.0, coeffs), bounds, (0.0, 1.0), 100)
        b = solve_momentum_bvp(HamiltonianModel.with_drift(1.0, (0.0,), coeffs), bounds,
                               (0.0, 1.0), 100)
        assert (a.flag, a.parameter) == (b.flag, b.parameter)

    def test_sho_initial_position(self, sho):
        rep = solve_momentum_bvp(sho, BoundarySpec("momentum-type", 1.0, 0.0),
                                 (0.0, math.pi / 2), 800)
        assert rep.flag == "unique"
        assert rep.parameter == pytest.approx(0.0, abs=1e-9)

    def test_refeed_reproduces_endpoint(self, sho):
        rep = solve_momentum_bvp(sho, BoundarySpec("momentum-type", 0.8, 0.1),
                                 (0.0, 1.2), 600)
        assert rep.flag == "unique"
        refeed = integrate_ivp(sho, 0.8, rep.parameter, (0.0, 1.2), 600)
        assert abs(refeed.p[-1] - 0.1) <= 2e-9

    def test_wrong_boundary_kind(self, sho):
        with pytest.raises(PreconditionError):
            solve_momentum_bvp(sho, BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 100)


def _reference_rk4(model, p0, q0, t_span, n_steps):
    """The per-step RK4 loop of the original engine: finiteness checked
    after every step, one H partial per call.  Returns the (n_steps+1, ...)
    paths and the first non-finite node (None when the paths stay finite)."""
    hp = model._derivative(1, 0)
    hq = model._derivative(0, 1)
    t0, t1 = t_span
    p, q, dt = np.broadcast_arrays(
        np.asarray(p0, float), np.asarray(q0, float),
        (np.asarray(t1, float) - np.asarray(t0, float)) / n_steps,
    )
    p, q = p.copy(), q.copy()
    P = np.empty((n_steps + 1,) + p.shape)
    Q = np.empty_like(P)
    P[0], Q[0] = p, q
    first_bad = None
    with np.errstate(all="ignore"):
        for j in range(n_steps):
            k1p, k1q = -hq(p, q), hp(p, q)
            p2, q2 = p + 0.5 * dt * k1p, q + 0.5 * dt * k1q
            k2p, k2q = -hq(p2, q2), hp(p2, q2)
            p3, q3 = p + 0.5 * dt * k2p, q + 0.5 * dt * k2q
            k3p, k3q = -hq(p3, q3), hp(p3, q3)
            p4, q4 = p + dt * k3p, q + dt * k3q
            k4p, k4q = -hq(p4, q4), hp(p4, q4)
            p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            if first_bad is None and not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
                first_bad = j + 1
            P[j + 1], Q[j + 1] = p, q
    return P, Q, first_bad


def _soft_oscillator(mass=1.0, omega=1.3):
    k = mass * omega**2
    return HamiltonianModel.general(
        lambda p, q: p**2 / (2.0 * mass) + k * (np.sqrt(1.0 + q**2) - 1.0),
        partials={
            (1, 0): lambda p, q: p / mass + 0.0 * q,
            (0, 1): lambda p, q: k * q / np.sqrt(1.0 + q**2) + 0.0 * p,
        },
    )


ENGINE_MODELS = {
    "sho": lambda: HamiltonianModel.sho(2.0, 1.5),
    "quartic": lambda: HamiltonianModel.separable(
        0.7, potential_coeffs=(0.1, -0.2, 0.5, 0.3, 0.05)),
    "constant-force": lambda: HamiltonianModel.constant_force(1.5, 0.8),
    "free": lambda: HamiltonianModel.free(3.0),
    "drift": lambda: HamiltonianModel.with_drift(1.2, (0.1, 0.0, 0.4), (0.0, 0.0, 0.5, 0.0, 0.1)),
    "soft-oscillator": _soft_oscillator,
}


class TestEngineAgainstReference:
    @pytest.mark.parametrize("name", sorted(ENGINE_MODELS))
    def test_random_lanes_with_per_lane_horizons(self, name):
        model = ENGINE_MODELS[name]()
        rng = np.random.default_rng(sorted(ENGINE_MODELS).index(name))
        p0 = rng.uniform(-1.0, 1.0, size=(3, 7))
        q0 = rng.uniform(-1.0, 1.0, size=(3, 7))
        t1 = rng.uniform(0.2, 2.0, size=7)
        want_p, want_q, bad = _reference_rk4(model, p0, q0, (0.0, t1), 300)
        assert bad is None
        got_p, got_q = _rk4_batch(model, p0, q0, (0.0, t1), 300)
        np.testing.assert_allclose(got_p, want_p, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(got_q, want_q, rtol=1e-12, atol=1e-300)

    def test_blow_up_names_first_non_finite_node(self):
        # a quartic well: the lane started farthest out overflows first
        model = HamiltonianModel.separable(1.0, potential_coeffs=(0.0, 0.0, 0.0, 0.0, -1.0))
        q0 = np.array([0.1, 3.0, 8.0, 0.5])
        _, _, bad = _reference_rk4(model, 0.0, q0, (0.0, 40.0), 400)
        assert bad is not None and 1 < bad < 400
        with pytest.raises(BlowUpError) as err:
            _rk4_batch(model, 0.0, q0, (0.0, 40.0), 400)
        assert err.value.node_index == bad


def _zero_or_signed(top):
    """0, or a magnitude in [0.05, top] of either sign: zero force and
    curvature give the models cyclic in q."""
    return st.just(0.0) | st.floats(0.05, top).flatmap(lambda x: st.sampled_from([x, -x]))


class TestAffineBranch:
    """Separable models with a potential of degree <= 2 shoot by powers of the
    RK4 step map; with_drift builds the same H as a general-kind model, which
    runs the RK4 scan and Newton sweeps, the reference here."""

    @settings(max_examples=40)
    @given(
        log_mass=st.floats(-3.0, 7.0),
        curvature=_zero_or_signed(1.5),  # V''/m: w^2 of an oscillator, -k/m of a saddle
        force=_zero_or_signed(1.0),
        c0=st.floats(-1.0, 1.0),
        kind=st.sampled_from(["position-type", "momentum-type"]),
        start=st.floats(-1.0, 1.0, allow_subnormal=False),
        end=st.floats(-1.0, 1.0, allow_subnormal=False),
        horizon=st.one_of(st.floats(0.05, 3.0),
                          st.tuples(st.sampled_from([1, 2]), st.sampled_from([-1e-3, 1e-3]))),
        n_steps=st.integers(20, 600),
    )
    def test_matches_the_rk4_loop(self, log_mass, curvature, force, c0, kind, start, end,
                                  horizon, n_steps):
        if isinstance(horizon, tuple):  # next to the k-th conjugate point k pi / w
            assume(curvature > 0.01)
            k, shift = horizon
            horizon = k * math.pi / math.sqrt(curvature) + shift
        mass = 10.0**log_mass
        coeffs = (c0, -mass * force, 0.5 * mass * curvature)
        affine = HamiltonianModel.separable(mass, coeffs)
        general = HamiltonianModel.with_drift(mass, (0.0,), coeffs)
        if kind == "position-type":
            solve, bounds = solve_position_bvp, BoundarySpec(kind, start, end)
        else:
            solve, bounds = solve_momentum_bvp, BoundarySpec(kind, mass * start, mass * end)
        a = solve(affine, bounds, (0.0, horizon), n_steps)
        b = solve(general, bounds, (0.0, horizon), n_steps)
        assert a.flag == b.flag
        # the loop from the affine root x and from x + u, u the scan's parameter unit
        x = a.parameter + np.array([0.0, mass if kind == "position-type" else 1.0])
        s = np.full(2, bounds.start)
        P, Q = _rk4_batch(affine, *((x, s) if kind == "position-type" else (s, x)),
                          (0.0, horizon), n_steps)
        # roots agree as far as the endpoint resolves them: within tol of each other
        # once mapped by the endpoint's slope dE/dx, the Jacobi field J(t_f)
        end_value = Q[-1] if kind == "position-type" else P[-1]
        slope = (end_value[1] - end_value[0]) / (x[1] - x[0])
        tol = SHOOTING_TOL * max(1.0, abs(bounds.start), abs(bounds.end))
        assert abs(a.parameter - b.parameter) * abs(slope) <= 2.0 * tol
        # paths relative to their size, with p and q made commensurate by m / t
        p_size = max(np.max(np.abs(P[:, 0])), mass * np.max(np.abs(Q[:, 0])) / horizon)
        assert np.max(np.abs(a.path.p - P[:, 0])) <= 1e-12 * p_size
        assert np.max(np.abs(a.path.q - Q[:, 0])) <= 1e-12 * p_size * horizon / mass

    def test_affine_models_run_no_rk4_loop(self, monkeypatch):
        class LoopRan(Exception):
            pass

        def loop(*args, **kwargs):
            raise LoopRan

        monkeypatch.setattr(dynamics, "_rk4", loop)
        for name in BUILTIN_NAMES:
            model = HamiltonianModel.builtin(name)
            rep = solve_position_bvp(model, BoundarySpec("position-type", 0.1, 0.6),
                                     (0.0, 1.0), 400)
            assert rep.flag == "unique"
            solve_momentum_bvp(model, BoundarySpec("momentum-type", 0.8, 0.3), (0.0, 1.0), 400)
        sho, grid, times = HamiltonianModel.sho(), np.linspace(0.5, 1.0, 6), [0.4, 0.6, 0.8]
        assert np.all(hj_residual_s(sho, 0.1, grid, times).valid)
        assert np.all(hj_residual_r(sho, 1.0, grid, times).valid)
        assert np.any(hj_residual_r(HamiltonianModel.free(), 0.6, grid, times).valid)
        # the reference integrators stay on the loop
        with pytest.raises(LoopRan):
            integrate_ivp(sho, 1.0, 0.0, (0.0, 1.0), 10)
        with pytest.raises(LoopRan):
            _rk4_batch(sho, 1.0, 0.0, (0.0, 1.0), 10)

    @pytest.mark.parametrize("kind", ["position-type", "momentum-type"])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_solve_path_is_built_from_the_kept_powers(self, name, kind):
        # the shots keep G^0..G^N and x0 = (p0, q0, 1); the path is G^j x0, built on first read
        model = HamiltonianModel.builtin(name, mass=1.3)
        shoot_on = "p0" if kind == "position-type" else "q0"
        shots = _shoot_batch(model, 0.2, [0.7], (0.0, 0.9), 200, shoot_on, REFINED_DENSITY)
        assert "_paths" not in vars(shots)
        root_slot = 0 if shoot_on == "p0" else 1
        assert shots.x0[0, root_slot] == shots.roots[0]
        assert shots.x0[0, 1 - root_slot] == 0.2 and shots.x0[0, 2] == 1.0
        P, Q = dynamics._affine_paths(shots.powers, shots.horizon, shots.x0)
        solve = solve_position_bvp if kind == "position-type" else solve_momentum_bvp
        rep = solve(model, BoundarySpec(kind, 0.2, 0.7), (0.0, 0.9), 200)
        assert np.array_equal(rep.path.p, P[:, 0]) and np.array_equal(rep.path.q, Q[:, 0])
        assert np.array_equal(shots.P, P) and np.array_equal(shots.Q, Q)
        # the residual and the conjugate end come from G^N x0, the path's last node
        assert shots.end == pytest.approx(np.stack([P[-1], Q[-1]]), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("density", [1, REFINED_DENSITY])
@pytest.mark.parametrize("shoot_on", ["p0", "q0"])
@pytest.mark.parametrize("name", ["quartic", "soft-oscillator"])
def test_scan_per_distinct_horizon_equals_per_target_solves(name, shoot_on, density):
    # non-affine models scan once per distinct horizon; lanes stay independent
    model = ENGINE_MODELS[name]()
    targets = np.array([0.2, 0.5, -0.3, 0.2, 0.9, 0.1, -0.6])
    horizons = np.array([0.6, 0.6, 1.1, 1.1, 0.6, 1.4, 1.1])
    batch = _shoot_batch(model, 0.1, targets, (0.0, horizons), 300, shoot_on, density)
    assert not np.any(batch.flags == "infeasible")
    for k in range(targets.size):
        one = _shoot_batch(model, 0.1, targets[k:k + 1], (0.0, horizons[k:k + 1]), 300,
                           shoot_on, density)
        assert one.flags[0] == batch.flags[k]
        for got, want in ((one.roots[0], batch.roots[k]),
                          (one.residuals[0], batch.residuals[k]),
                          (one.P[:, 0], batch.P[:, k]), (one.Q[:, 0], batch.Q[:, k])):
            assert np.array_equal(got, want, equal_nan=True)


def _anharmonic(mass, lam):
    """V = m (q^2/2 + lam q^4)."""
    return HamiltonianModel.separable(mass, (0.0, 0.0, 0.5 * mass, 0.0, lam * mass))


def _refined_case(name, log_mass, kind, start, end, strength):
    """(model, shoot_on, start, end) of a drawn non-affine single solve; momentum
    ends scale with the mass."""
    mass = 10.0**log_mass
    if name == "quartic":
        model = _anharmonic(mass, strength)
    elif name == "drift":
        model = HamiltonianModel.with_drift(mass, (0.0, strength),
                                            (0.0, 0.0, 0.5 * mass, 0.0, strength * mass))
    else:
        model = _soft_oscillator(mass, 0.5 + strength)
    shoot_on, scale = ("p0", 1.0) if kind == "position-type" else ("q0", mass)
    return model, shoot_on, scale * start, scale * end


def _endpoint_slope(model, shoot_on, start, x, t, n_steps):
    """dE/dx of the endpoint at the shooting parameter x, by a forward difference."""
    x = x + np.array([0.0, 1e-6 * max(1.0, abs(x))])
    s = np.full(2, start)
    P, Q = _rk4_batch(model, *((x, s) if shoot_on == "p0" else (s, x)), (0.0, t), n_steps)
    end_value = Q[-1] if shoot_on == "p0" else P[-1]
    return (end_value[1] - end_value[0]) / (x[1] - x[0])


def _predicted_steps(n_steps):
    """RK4 loop steps of a solve whose predicted root stands."""
    return -(-n_steps // 8) + -(-n_steps // 4) + n_steps


class TestRefinedScan:
    """Single-target solves of non-affine fields refine the scan with
    Chebyshev-Lobatto lanes; the same scan on ceil(N/8) and ceil(N/4) steps
    predicts the root, which the N-step scan checks on lanes of its own, and
    Newton runs from the refined guess only when the prediction does not stand."""

    # (model, boundary kind, start, end, horizon, n_steps): the quartic windows are
    # the benchmark's fixed paths cells, the soft-oscillator ones are drawn from its ranges
    SOLVES = {
        "quartic-position": (lambda: _anharmonic(1.0, 0.1), "position-type", 0.0, 0.5,
                             0.45 * math.pi, 1000),
        "quartic-momentum": (lambda: _anharmonic(1e3, 0.1), "momentum-type", 300.0, -300.0,
                             0.45 * math.pi, 500),
        "soft-oscillator-position": (lambda: _soft_oscillator(1e2, 1.1), "position-type",
                                     0.1, 0.6, 0.45 * math.pi / 1.1, 2000),
        "soft-oscillator-momentum": (lambda: _soft_oscillator(1e4, 0.9), "momentum-type",
                                     3e3, -5e3, 0.5 * math.pi / 0.9, 2000),
        "drift-position": (ENGINE_MODELS["drift"], "position-type", 0.1, 0.5, 1.0, 500),
        "drift-momentum": (ENGINE_MODELS["drift"], "momentum-type", 0.1, 0.5, 1.0, 500),
    }
    # how each root is found and the (lanes, steps) of every sweep: the 481 dense lanes
    # on ceil(N/8) and ceil(N/4) steps, then on N steps with x^ and x^ +- h; the quartic
    # momentum window's prediction misses the gate (4e-3 tol), so Newton runs once more
    SWEEPS = {
        "quartic-position": ("predicted", [(481, 125), (481, 250), (484, 1000)]),
        "quartic-momentum": ("newton", [(481, 63), (481, 125), (484, 500), (3, 500)]),
        "soft-oscillator-position": ("predicted", [(481, 250), (481, 500), (484, 2000)]),
        "soft-oscillator-momentum": ("predicted", [(481, 250), (481, 500), (484, 2000)]),
        "drift-position": ("predicted", [(481, 63), (481, 125), (484, 500)]),
        "drift-momentum": ("predicted", [(481, 63), (481, 125), (484, 500)]),
    }

    @pytest.mark.parametrize("case", sorted(SOLVES))
    def test_single_solve_sweeps(self, case, monkeypatch):
        build, kind, start, end, t, n_steps = self.SOLVES[case]
        ran = []
        loop = dynamics._rk4

        def counted(*args, **kwargs):
            ran.append((np.size(args[1]), args[4]))
            return loop(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_rk4", counted)
        solve = solve_position_bvp if kind == "position-type" else solve_momentum_bvp
        rep = solve(build(), BoundarySpec(kind, start, end), (0.0, t), n_steps)
        assert rep.flag != "infeasible"
        tol = SHOOTING_TOL * max(1.0, abs(start), abs(end))
        assert rep.residual <= tol
        method, sweeps = self.SWEEPS[case]
        assert rep.method == method
        assert list(rep.sweeps) == ran == sweeps
        if method == "predicted":
            assert rep.residual <= 1e-3 * tol
            assert sum(steps for _, steps in rep.sweeps) == _predicted_steps(n_steps)

    @settings(max_examples=30)
    @given(
        name=st.sampled_from(["quartic", "drift", "soft-oscillator"]),
        log_mass=st.floats(-3.0, 5.0),
        kind=st.sampled_from(["position-type", "momentum-type"]),
        start=st.floats(-0.5, 0.5),
        end=st.floats(-1.0, 1.0),
        t=st.floats(0.2, 2.0),
        strength=st.floats(0.01, 1.0),
    )
    def test_dense_and_plain_scans_find_the_same_root(self, name, log_mass, kind, start, end, t,
                                                      strength):
        model, shoot_on, start, end = _refined_case(name, log_mass, kind, start, end, strength)
        dense = _shoot_batch(model, start, [end], (0.0, t), 200, shoot_on, REFINED_DENSITY)
        plain = _shoot_batch(model, start, [end], (0.0, t), 200, shoot_on, 1)
        assert dense.flags[0] == plain.flags[0]
        if dense.flags[0] == "infeasible":
            return
        tol = SHOOTING_TOL * max(1.0, abs(start), abs(end))
        assert abs(dense.residuals[0]) <= tol and abs(plain.residuals[0]) <= tol
        # the same root as far as the endpoint resolves it: within tol of each other
        # once mapped by the endpoint's slope dE/dx (light masses make it small)
        slope = _endpoint_slope(model, shoot_on, start, plain.roots[0], t, 200)
        assert abs(dense.roots[0] - plain.roots[0]) * abs(slope) <= 2.0 * tol

    @settings(max_examples=40)
    @given(
        name=st.sampled_from(["quartic", "drift", "soft-oscillator"]),
        log_mass=st.floats(-3.0, 5.0),
        kind=st.sampled_from(["position-type", "momentum-type"]),
        start=st.floats(-0.5, 0.5),
        end=st.floats(-1.0, 1.0),
        t=st.floats(0.2, 2.0),
        strength=st.floats(0.01, 1.0),
        n_steps=st.integers(20, 600),
    )
    def test_predicted_root_agrees_with_forced_newton(self, name, log_mass, kind, start, end,
                                                      t, strength, n_steps):
        model, shoot_on, start, end = _refined_case(name, log_mass, kind, start, end, strength)
        shots = _shoot_batch(model, start, [end], (0.0, t), n_steps, shoot_on, REFINED_DENSITY)
        with pytest.MonkeyPatch.context() as patch:
            # a gate of 0 lets no prediction stand short of an exact root
            patch.setattr(dynamics, "_PREDICTION_GATE", 0.0)
            newton = _shoot_batch(model, start, [end], (0.0, t), n_steps, shoot_on,
                                  REFINED_DENSITY)
        assert shots.flags[0] == newton.flags[0]
        if shots.method[0] != "predicted":
            # a prediction that does not stand changes nothing
            for got, want in ((shots.roots, newton.roots), (shots.residuals, newton.residuals),
                              (shots.P, newton.P), (shots.Q, newton.Q)):
                assert np.array_equal(got, want, equal_nan=True)
            return
        tol = SHOOTING_TOL * max(1.0, abs(start), abs(end))
        assert abs(shots.residuals[0]) <= 1e-3 * tol
        assert sum(steps for _, steps in shots.sweeps) == _predicted_steps(n_steps)
        assert abs(newton.residuals[0]) <= tol
        slope = _endpoint_slope(model, shoot_on, start, newton.roots[0], t, n_steps)
        assert abs(shots.roots[0] - newton.roots[0]) * abs(slope) <= 2.0 * tol

    @pytest.mark.parametrize("n_steps", range(1, 9))
    @pytest.mark.parametrize("name", ["quartic", "soft-oscillator"])
    def test_few_steps_predict_only_when_the_coarse_scans_differ(self, name, n_steps):
        # at N <= 4, ceil(N/4) == ceil(N/8) and Richardson's weight w - 1 is 0: such
        # solves skip the coarse scans and run the scan, then Newton; RuntimeWarnings
        # are errors in this suite, so no step may divide by 0 or overflow unguarded
        model = _anharmonic(1.0, 0.1) if name == "quartic" else _soft_oscillator()
        shots = _shoot_batch(model, 0.1, [0.6], (0.0, 1.0), n_steps, "p0", REFINED_DENSITY)
        assert shots.flags[0] != "infeasible"
        coarse = [(481, -(-n_steps // 8)), (481, -(-n_steps // 4))]
        if n_steps <= 4:
            assert shots.method[0] == "newton"
            assert shots.sweeps[0] == (481, n_steps)
            assert all(sweep == (3, n_steps) for sweep in shots.sweeps[1:])
        else:
            assert list(shots.sweeps[:2]) == coarse
            assert shots.sweeps[2] == (484, n_steps)

    def test_bracket_with_blown_up_lanes_keeps_the_plain_guess(self):
        # V = q^2/2 + 10 q^4 at dt = 0.2: RK4 is unstable for large amplitudes, so
        # some dense lanes inside the bracket overflow and the refinement is skipped
        model = _anharmonic(1.0, 10.0)
        t, n_steps = 4.0, 20
        dense = _shoot_batch(model, 0.0, [0.5], (0.0, t), n_steps, "p0", REFINED_DENSITY)
        plain = _shoot_batch(model, 0.0, [0.5], (0.0, t), n_steps, "p0", 1)
        # the dense lanes of the scan interval holding the root
        cand = dynamics._scan_candidates()
        i = np.searchsorted(cand, dense.roots[0]) - 1
        nodes = dynamics._lobatto_nodes(cand, REFINED_DENSITY)[
            i * REFINED_DENSITY:(i + 1) * REFINED_DENSITY + 1]
        _, q_end, *_ = dynamics._rk4(model.vector_field(), nodes, np.zeros_like(nodes),
                                     t / n_steps, n_steps)
        assert np.all(np.isfinite(q_end[[0, -1]])) and not np.all(np.isfinite(q_end))
        # the dense rows change sign more than once, so the flag says the root is not alone
        assert dense.flags[0] == "conjugate-degenerate" and abs(dense.residuals[0]) <= SHOOTING_TOL
        for got, want in ((dense.roots, plain.roots), (dense.residuals, plain.residuals),
                          (dense.P, plain.P), (dense.Q, plain.Q)):
            assert np.array_equal(got, want)


def _dense_sign_changes(model, start, end, t, n_steps, shoot_on):
    """Sign changes of the endpoint residual over a single solve's dense scan lanes."""
    unit = dynamics._momentum_unit(model, start) if shoot_on == "p0" else 1.0
    nodes = dynamics._lobatto_nodes(dynamics._scan_candidates() * unit, REFINED_DENSITY)
    pinned = np.full_like(nodes, start)
    p, q = (nodes, pinned) if shoot_on == "p0" else (pinned, nodes)
    p_end, q_end, *_ = dynamics._rk4(model.vector_field(), p, q, t / n_steps, n_steps)
    with np.errstate(all="ignore"):
        res = (q_end if shoot_on == "p0" else p_end) - end
        res = np.where(np.isfinite(res), res, np.nan)
        return int(np.sum(res[:-1] * res[1:] < 0))


class TestDenseFlags:
    """A single solve counts roots on its dense scan rows, not only on the candidates."""

    @pytest.mark.parametrize("n_steps, p0", [(50, -885.169395849281), (2000, 401.4702675221621)])
    def test_hidden_roots_flag_the_quartic_solve(self, n_steps, p0):
        # V = q^2/2 + 10 q^4: the 33 candidates change sign once, the dense lanes many times
        model = _anharmonic(1.0, 10.0)
        assert _dense_sign_changes(model, 0.0, 2.0, 0.5, n_steps, "p0") > 1
        rep = solve_position_bvp(model, BoundarySpec("position-type", 0.0, 2.0), (0.0, 0.5),
                                 n_steps)
        assert rep.flag == "conjugate-degenerate"
        assert rep.parameter == pytest.approx(p0, rel=1e-9)
        assert rep.residual <= SHOOTING_TOL * 2.0

    @settings(max_examples=40)
    @given(
        log_mass=st.floats(-2.0, 3.0),
        log_lam=st.floats(-6.0, 1.0),  # weak couplings keep one root, strong ones wind
        kind=st.sampled_from(["position-type", "momentum-type"]),
        start=st.floats(-1.0, 1.0),
        end=st.floats(-2.0, 2.0),
        t=st.floats(0.1, 1.5),
    )
    def test_unique_means_at_most_one_dense_sign_change(self, log_mass, log_lam, kind, start,
                                                        end, t):
        mass = 10.0**log_mass
        model = _anharmonic(mass, 10.0**log_lam)
        shoot_on, scale = ("p0", 1.0) if kind == "position-type" else ("q0", mass)
        start, end = scale * start, scale * end
        shots = _shoot_batch(model, start, [end], (0.0, t), 100, shoot_on, REFINED_DENSITY)
        changes = _dense_sign_changes(model, start, end, t, 100, shoot_on)
        if changes > 1:
            assert shots.flags[0] != "unique"
        elif shots.flags[0] == "unique" and changes == 0:
            # no sign change: the root is a scanned candidate whose residual is within tol
            unit = dynamics._momentum_unit(model, start) if shoot_on == "p0" else 1.0
            assert shots.roots[0] in dynamics._scan_candidates() * unit


def _sho_p0(mass, omega, q0, q1, t):
    return mass * omega * (q1 - q0 * math.cos(omega * t)) / math.sin(omega * t)


class TestUnitInvariance:
    @settings(max_examples=25)
    @given(
        log_mass=st.floats(-3.0, 7.0),
        omega=st.floats(0.5, 5.0),
        frac=st.floats(0.1, 0.9),
        q1=st.floats(-1.0, 1.0),
    )
    def test_position_shooting_flag_and_velocity(self, log_mass, omega, frac, q1):
        t = frac * math.pi / omega
        bounds = BoundarySpec("position-type", 0.2, q1)
        unit = solve_position_bvp(HamiltonianModel.sho(1.0, omega), bounds, (0.0, t), 400)
        mass = 10.0**log_mass
        heavy = solve_position_bvp(HamiltonianModel.sho(mass, omega), bounds, (0.0, t), 400)
        assert unit.flag == heavy.flag == "unique"
        assert heavy.parameter / mass == pytest.approx(unit.parameter, rel=1e-7, abs=1e-8)
        want = _sho_p0(1.0, omega, 0.2, q1, t)
        assert unit.parameter == pytest.approx(want, rel=1e-6, abs=1e-9)

    @settings(max_examples=20)
    @given(log_mass=st.floats(-3.0, 7.0), omega=st.floats(0.5, 5.0), k=st.sampled_from([1, 2]))
    def test_sho_conjugate_points_at_k_pi_over_omega(self, log_mass, omega, k):
        model = HamiltonianModel.sho(10.0**log_mass, omega)
        bounds = BoundarySpec("position-type", 0.0, 0.0)
        at = solve_position_bvp(model, bounds, (0.0, k * math.pi / omega), 1000)
        below = solve_position_bvp(model, bounds, (0.0, (k * math.pi - 0.1) / omega), 1000)
        assert at.flag == "conjugate-degenerate"
        assert below.flag == "unique"
        assert below.residual <= 1e-9

    @settings(max_examples=20)
    @given(
        log_mass=st.floats(-0.5, 0.5),
        c2=st.floats(-1.0, 1.0),
        c13=st.floats(-1.0, 1.0),
        c4=st.floats(0.0, 0.2),
        q1=st.floats(-1.0, 1.0),
        t=st.floats(0.3, 1.5),
        log_lam=st.floats(-3.0, 3.0),
    )
    # a cubic-dominated V: the scan sees two brackets, so both solves are degenerate
    @example(log_mass=math.log10(1.022), c2=-0.0163, c13=0.269, c4=1e-5, q1=0.5, t=1.2071,
             log_lam=1.0)
    def test_scaling_mass_and_potential_scales_p_s_and_r(self, log_mass, c2, c13, c4, q1, t,
                                                         log_lam):
        # H = p^2/2(lam m) + lam V(q) has the q-paths of lam = 1 with p = lam p_1,
        # so S and R scale by lam too, and the flag is the same; the cubic term can
        # give V several critical paths, so the flag is not always unique
        mass, lam = 10.0**log_mass, 10.0**log_lam
        coeffs = (0.0, 0.3 * c13, c2, 0.1 * c13, -c4)
        ref = HamiltonianModel.separable(mass, potential_coeffs=coeffs)
        scaled = HamiltonianModel.separable(lam * mass, potential_coeffs=[lam * c for c in coeffs])
        bounds = BoundarySpec("position-type", 0.0, q1)
        a = solve_position_bvp(ref, bounds, (0.0, t), 500)
        b = solve_position_bvp(scaled, bounds, (0.0, t), 500)

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

        assert a.flag == b.flag
        if a.flag == "infeasible":
            return
        assert close(b.path.q, a.path.q)
        assert close(b.path.p / lam, a.path.p)
        assert close(action_s(scaled, b.path).value / lam, action_s(ref, a.path).value)
        assert close(action_r(scaled, b.path).value / lam, action_r(ref, a.path).value)
        for which in "SR":
            assert (classify_extremum(scaled, b.path, which).classification
                    == classify_extremum(ref, a.path, which).classification)

    @settings(max_examples=25)
    @given(
        log_mass=st.floats(-3.0, 7.0),
        omega=st.floats(0.2, 5.0),
        theta=st.one_of(st.floats(0.1, 3.0), st.sampled_from([math.pi, 2.0 * math.pi])),
        kind=st.sampled_from(["position-type", "momentum-type"]),
        a=st.floats(-1.0, 1.0),
        b=st.floats(-1.0, 1.0),
    )
    def test_sho_time_scaled_by_frequency(self, log_mass, omega, theta, kind, a, b):
        # sho(m, w) at t / w has the q-paths of sho(m, 1) at t, with p scaled by w
        mass = 10.0**log_mass
        if kind == "position-type":
            solve, slow = solve_position_bvp, BoundarySpec(kind, a, b)
            fast = slow
        else:
            solve, slow = solve_momentum_bvp, BoundarySpec(kind, mass * a, mass * b)
            fast = BoundarySpec(kind, omega * slow.start, omega * slow.end)
        ref = solve(HamiltonianModel.sho(mass, 1.0), slow, (0.0, theta), 400)
        got = solve(HamiltonianModel.sho(mass, omega), fast, (0.0, theta / omega), 400)
        assert got.flag == ref.flag
        if ref.flag != "unique":
            return
        if kind == "position-type":  # the root is p(t_i), of size m w
            assert got.parameter == pytest.approx(omega * ref.parameter, rel=1e-10,
                                                  abs=1e-10 * omega * mass)
        else:
            assert got.parameter == pytest.approx(ref.parameter, rel=1e-10, abs=1e-10)
        q_scale = max(1.0, np.max(np.abs(ref.path.q)))
        assert np.max(np.abs(got.path.q - ref.path.q)) <= 1e-10 * q_scale
        p_scale = max(mass, np.max(np.abs(ref.path.p)))
        assert np.max(np.abs(got.path.p / omega - ref.path.p)) <= 1e-10 * p_scale

    @settings(max_examples=25)
    @given(
        log_mass=st.floats(-3.0, 3.0),
        curvature=st.floats(0.1, 1.5).flatmap(lambda c: st.sampled_from([c, -c])),
        force=st.floats(-1.0, 1.0),
        u0=st.floats(-1.0, 1.0),
        u1=st.floats(-1.0, 1.0),
        t=st.floats(0.2, 2.5),
        log_lam=st.floats(-3.0, 3.0),
    )
    def test_momentum_shooting_under_mass_scaling(self, log_mass, curvature, force, u0, u1, t,
                                                  log_lam):
        # H = p^2/2(lam m) + lam V(q) has the q-paths of lam = 1 with p = lam p_1
        mass, lam = 10.0**log_mass, 10.0**log_lam
        coeffs = (0.0, -mass * force, 0.5 * mass * curvature)
        ref = HamiltonianModel.separable(mass, coeffs)
        scaled = HamiltonianModel.separable(lam * mass, [lam * c for c in coeffs])
        a = solve_momentum_bvp(ref, BoundarySpec("momentum-type", mass * u0, mass * u1),
                               (0.0, t), 500)
        b = solve_momentum_bvp(scaled, BoundarySpec("momentum-type", lam * mass * u0,
                                                    lam * mass * u1), (0.0, t), 500)
        assert a.flag == b.flag == "unique"
        assert b.parameter == pytest.approx(a.parameter, rel=1e-10, abs=1e-10)
        q_scale = max(1.0, np.max(np.abs(a.path.q)))
        assert np.max(np.abs(b.path.q - a.path.q)) <= 1e-10 * q_scale
        p_scale = max(mass, np.max(np.abs(a.path.p)))
        assert np.max(np.abs(b.path.p / lam - a.path.p)) <= 1e-10 * p_scale

    def test_heavy_free_particle_reaches_its_target(self):
        # the scan is in velocity units: p0 = m v with v = 1
        rep = solve_position_bvp(HamiltonianModel.free(1e7),
                                 BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 200)
        assert rep.flag == "unique"
        assert rep.parameter == pytest.approx(1e7, rel=1e-9)


class TestBracketChoice:
    def test_quartic_momentum_window_takes_the_near_root(self):
        # V = m (q^2/2 + 0.1 q^4): far brackets are under-resolved by the scan
        mass, t = 1e3, 0.45 * math.pi
        model = HamiltonianModel.separable(
            mass, potential_coeffs=(0.0, 0.0, 0.5 * mass, 0.0, 0.1 * mass))
        bounds = BoundarySpec("momentum-type", 0.3 * mass, -0.3 * mass)
        rep = solve_momentum_bvp(model, bounds, (0.0, t), 500)
        assert rep.flag != "infeasible"
        assert rep.residual <= 1e-9
        assert abs(rep.parameter) < 1.0
        refeed = integrate_ivp(model, 0.3 * mass, rep.parameter, (0.0, t), 500)
        assert refeed.p[-1] == pytest.approx(-0.3 * mass, abs=1e-8)


@pytest.mark.parametrize("call", [
    lambda: solve_position_bvp(HamiltonianModel.sho(), BoundarySpec("position-type", 0.0, 1.0),
                               (0.0, 1.0), 0),
    lambda: solve_momentum_bvp(HamiltonianModel.sho(), BoundarySpec("momentum-type", 1.0, 0.5),
                               (0.0, 1.0), 0),
    lambda: hj_residual_s(HamiltonianModel.sho(), 0.0, [1.0], [1.0], n_steps=0),
    lambda: hj_residual_r(HamiltonianModel.sho(), 1.0, [0.5], [1.0], n_steps=0),
    lambda: hj_residual_r(HamiltonianModel.free(), 1.0, [1.0], [1.0], n_steps=0),
    lambda: certify_bounds(
        HamiltonianModel.saddle_quadratic(),
        "S-chain",
        solve_position_bvp(HamiltonianModel.saddle_quadratic(),
                           BoundarySpec("position-type", 0.0, 1.0), (0.0, 1.0), 200),
        PerturbationSpec(0.2), samples=0),
], ids=["position_bvp", "momentum_bvp", "hj_s", "hj_r", "hj_r_cyclic",
        "certify_bounds"])
def test_zero_counts_raise_precondition_without_warnings(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError):
            call()
