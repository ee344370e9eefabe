import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from dualaction import (
    DomainBox,
    DomainError,
    HamiltonianModel,
    PreconditionError,
    UnsupportedOrderError,
    convexity_probe,
    eval_partials,
    saddle_probe,
)
from dualaction import model as model_mod
from dualaction.model import PROBE_GRID, PROBE_SAMPLES, _horner, _poly


class TestEvalPartials:
    def test_free_particle_value(self):
        m = HamiltonianModel.free(1.0)
        assert eval_partials(m, 1.0, 0.0, (0, 0)) == 0.5

    def test_hpp_is_inverse_mass(self):
        m = HamiltonianModel.free(2.0)
        assert eval_partials(m, 1.0, 0.0, (2, 0)) == 0.5

    def test_saddle_hqq(self):
        m = HamiltonianModel.saddle_quadratic(1.0, 1.0)
        assert eval_partials(m, 1.0, 0.3, (0, 2)) == -1.0

    def test_separable_form_exact(self):
        m = HamiltonianModel.separable(1.7, potential_coeffs=(0.3, -0.2, 0.4, 0.1))
        p, q = 0.9, -1.2
        v = 0.3 - 0.2 * q + 0.4 * q**2 + 0.1 * q**3
        assert eval_partials(m, p, q, (0, 0)) == pytest.approx(p**2 / (2 * 1.7) + v, abs=1e-15)

    def test_order_beyond_three_rejected(self):
        m = HamiltonianModel.free(1.0)
        with pytest.raises(UnsupportedOrderError):
            eval_partials(m, 0.0, 0.0, (2, 2))

    def test_analytic_general_missing_order_rejected(self):
        m = HamiltonianModel.general(lambda p, q: p * q, partials={(1, 0): lambda p, q: q})
        with pytest.raises(UnsupportedOrderError):
            eval_partials(m, 0.0, 0.0, (0, 1))

    def test_non_finite_evaluation_is_domain_error(self):
        m = HamiltonianModel.general(lambda p, q: np.log(q))
        with np.errstate(invalid="ignore"), pytest.raises(DomainError):
            eval_partials(m, 0.0, -1.0, (0, 0))

    def test_domain_box_enforced(self):
        m = HamiltonianModel.separable(
            1.0, potential_coeffs=(0.0,), domain=DomainBox(-1, 1, -1, 1)
        )
        with pytest.raises(DomainError):
            eval_partials(m, 3.0, 0.0, (0, 0))

    def test_separable_mixed_partials_vanish(self):
        m = HamiltonianModel.separable(1.3, potential_coeffs=(0.0, 1.0, 0.5, 0.2))
        for order in [(1, 1), (2, 1), (1, 2)]:
            assert eval_partials(m, 0.7, -0.4, order) == 0.0


class TestFiniteDifferences:
    # reference model with exact polynomial derivatives, re-wrapped as a
    # black box for the finite-difference path
    BASE = HamiltonianModel.separable(1.3, potential_coeffs=(0.2, -0.4, 0.7, 0.25))

    def setup_method(self):
        base = self.BASE
        self.fd = HamiltonianModel.general(lambda p, q: base.eval(p, q))

    @pytest.mark.parametrize("order", [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)])
    def test_low_orders_within_spec_tolerance(self, order):
        # relative agreement within 10 * h_fd^2 for h_fd = 1e-5
        for p, q in [(0.7, -0.6), (1.4, 0.9), (-0.8, 0.2)]:
            exact = eval_partials(self.BASE, p, q, order)
            got = eval_partials(self.fd, p, q, order)
            assert abs(got - exact) <= 1e-9 * max(abs(exact), 1.0)

    @pytest.mark.parametrize("order", [(3, 0), (0, 3), (2, 1), (1, 2)])
    def test_third_order_within_float64_floor(self, order):
        for p, q in [(0.7, -0.6), (1.4, 0.9)]:
            exact = eval_partials(self.BASE, p, q, order)
            got = eval_partials(self.fd, p, q, order)
            assert abs(got - exact) <= 1e-7 * max(abs(exact), 1.0)

    def test_mixed_partial_symmetry(self):
        # p-first and q-first mixed derivatives agree within 10 * h_fd^2
        from dualaction.model import _FD_STEP, _fd_directional

        f = lambda p, q: p**2 * q + np.sin(p * q)
        m = HamiltonianModel.general(f)
        p, q = 0.7, -0.6
        d_pq = float(m._fd_derivative(1, 1)(p, q))  # q-outer, p-inner
        h = _FD_STEP[2]
        dq_inner = lambda pp: _fd_directional(
            lambda y: f(pp * np.ones_like(y), y), np.full_like(np.asarray(pp, float), q), 1, h
        )
        d_qp = float(_fd_directional(dq_inner, np.asarray(p, float), 1, h))
        assert abs(d_pq - d_qp) <= 1e-9 * max(1.0, abs(d_pq))

    def test_callable_potential_fd_on_q_axis_only(self):
        m = HamiltonianModel.separable(2.0, potential=lambda q: np.cos(q))
        assert eval_partials(m, 1.5, 0.0, (1, 0)) == 0.75  # analytic p-side
        assert eval_partials(m, 0.0, 0.4, (0, 1)) == pytest.approx(-np.sin(0.4), abs=1e-9)
        assert eval_partials(m, 0.0, 0.4, (0, 2)) == pytest.approx(-np.cos(0.4), abs=1e-8)


class TestConvexityProbe:
    def test_saddle_axes(self, saddle, box):
        assert convexity_probe(saddle, box, "q-axis") == "concave"
        assert convexity_probe(saddle, box, "p-axis") == "convex"

    def test_cubic_potential_is_neither(self):
        m = HamiltonianModel.separable(1.0, potential_coeffs=(0.0, 0.0, 0.0, 1.0))
        b = DomainBox(-1, 1, -1, 1)
        verdict = convexity_probe(m, b, "q-axis")
        # independent chord oracle on the same sampled grid
        xs = np.linspace(-1, 1, 24)
        lam = np.arange(0.1, 0.95, 0.1)
        i, j = np.triu_indices(24, k=1)
        arc = (lam[:, None] * xs[i] + (1 - lam[:, None]) * xs[j]) ** 3
        chord = lam[:, None] * xs[i] ** 3 + (1 - lam[:, None]) * xs[j] ** 3
        convex_ok = not np.any(arc > chord + 1e-12)
        concave_ok = not np.any(arc < chord - 1e-12)
        assert (convex_ok, concave_ok) == (False, False)
        assert verdict == "neither"

    def test_degenerate_box_rejected(self, sho):
        with pytest.raises(PreconditionError):
            DomainBox(0.0, 0.0, -1.0, 1.0)

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5), (0.0, 0.0, -0.5), (0.0, 0.0, 0.0, 0.4)])
    def test_negation_flips_verdict(self, coeffs, box):
        plus = HamiltonianModel.separable(1.0, potential_coeffs=coeffs)
        minus = HamiltonianModel.general(lambda p, q: -plus.eval(p, q))
        v_plus = convexity_probe(plus, box, "q-axis")
        v_minus = convexity_probe(minus, box, "q-axis")
        flip = {"convex": "concave", "concave": "convex", "neither": "neither"}
        assert v_minus == flip[v_plus]


class TestSaddleProbe:
    def test_quadratic_saddle(self, saddle, box):
        assert saddle_probe(saddle, box) == "saddle"

    def test_sho_not_saddle(self, sho, box):
        assert saddle_probe(sho, box) == "not-saddle"

    def test_free_particle_saddle_non_strict(self, free, box):
        assert saddle_probe(free, box) == "saddle"

    def test_each_row_evaluates_the_chord_ends_once(self, saddle, box, monkeypatch):
        # per frozen row: H on the chords' interior points, then on the probe points
        evaluate = model_mod.eval_partials
        sizes = []

        def counted(model, p, q, order=(0, 0)):
            sizes.append(np.size(p))
            return evaluate(model, p, q, order)

        monkeypatch.setattr(model_mod, "eval_partials", counted)
        assert saddle_probe(saddle, box) == "saddle"
        chords = PROBE_SAMPLES * (PROBE_SAMPLES - 1) // 2
        assert sizes == [len(model_mod._LAMBDAS) * chords, PROBE_SAMPLES] * (2 * PROBE_GRID)

    def test_black_box_constant_is_affine(self, box):
        constant = HamiltonianModel.general(lambda p, q: 1.5)  # a scalar for any (p, q)
        assert convexity_probe(constant, box, "q-axis") == "convex"
        assert saddle_probe(constant, box) == "saddle"


class TestConstructors:
    def test_builtin_names(self):
        for name in ("free", "sho", "saddle-quadratic", "constant-force"):
            assert HamiltonianModel.builtin(name) is not None
        with pytest.raises(PreconditionError):
            HamiltonianModel.builtin("nope")

    def test_quadratic_saddle_form(self):
        m = HamiltonianModel.saddle_quadratic(0.5, 2.0)  # H = p^2 - q^2
        assert m.eval(1.0, 0.0) == 1.0
        assert m.eval(0.0, 1.0) == -1.0

    def test_separable_needs_potential(self):
        with pytest.raises(PreconditionError):
            HamiltonianModel(kind="separable", mass=1.0)

    def test_general_needs_evaluator(self):
        with pytest.raises(PreconditionError):
            HamiltonianModel(kind="general")

    @pytest.mark.parametrize("build", [
        lambda: HamiltonianModel.separable(float("nan"), potential_coeffs=(0.0, 0.0, 0.5)),
        lambda: HamiltonianModel.sho(float("inf")),
        lambda: HamiltonianModel.with_drift(1.0, (0.0,), (0.0, float("nan"))),
    ])
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(PreconditionError, match="finite"):
            build()


@pytest.mark.parametrize("model, cyclic", [
    (HamiltonianModel.free(), True),
    (HamiltonianModel.general(lambda p, q: p**2 / 2.0 + 0.0 * q), True),  # finite differences
    (HamiltonianModel.with_drift(1.0, (0.0,), (1.5,)), True),
    (HamiltonianModel.separable(1.0, potential=lambda q: np.full(np.shape(q), 2.0)), True),
    (HamiltonianModel.separable(1.0, (0.0, 0.0, 4.7e-63)), False),
    (HamiltonianModel.with_drift(1.0, (0.0,), (0.0, 0.0, 4.7e-63)), False),
    (HamiltonianModel.with_drift(1.0, (0.0, 1e-70), (0.0,)), False),
], ids=["free", "general-fd", "drift-constant-V", "separable-callable", "separable-tiny",
        "drift-tiny", "drift-tiny-B"])
def test_cyclic_exactly_when_h_q_is_zero(model, cyclic):
    # one rule for both kinds: no threshold, so a tiny H_q is not cyclic
    assert model.is_cyclic_in_q() is cyclic


def _soft_oscillator(mass=1.3, omega=0.8):
    """H = p^2/2m + m w^2 (sqrt(1 + q^2) - 1) as a general model with exact partials."""
    k = mass * omega**2
    zeros = lambda p, q: np.zeros(np.broadcast(p, q).shape)
    root = lambda q: np.sqrt(1.0 + np.asarray(q, dtype=float) ** 2)
    return HamiltonianModel.general(
        lambda p, q: np.asarray(p, dtype=float) ** 2 / (2.0 * mass) + k * (root(q) - 1.0),
        partials={
            (1, 0): lambda p, q: np.asarray(p, dtype=float) / mass + zeros(p, q),
            (0, 1): lambda p, q: k * np.asarray(q, dtype=float) / root(q) + zeros(p, q),
            (2, 0): lambda p, q: np.full(np.broadcast(p, q).shape, 1.0 / mass),
        },
    )


class TestVectorField:
    @pytest.mark.parametrize("model", [
        _soft_oscillator(),
        HamiltonianModel.sho(2.0, 1.5),
        HamiltonianModel.separable(0.7, potential_coeffs=(0.1, -0.2, 0.5, 0.3, 0.05)),
        HamiltonianModel.constant_force(1.5, 0.8),
        HamiltonianModel.free(3.0),
        HamiltonianModel.with_drift(1.2, (0.1, 0.0, 0.4), (0.0, 0.0, 0.5)),
        HamiltonianModel.separable(1.0, potential=lambda q: np.cos(q)),
    ])
    def test_matches_first_partials_exactly(self, model):
        p = np.linspace(-2.0, 2.0, 9)
        q = np.linspace(-1.5, 2.5, 9)
        hp, hq = model.vector_field()(p, q)
        np.testing.assert_array_equal(np.broadcast_to(hp, p.shape), model._derivative(1, 0)(p, q))
        np.testing.assert_array_equal(np.broadcast_to(hq, q.shape), model._derivative(0, 1)(p, q))

    def test_general_partials_are_called_as_given(self):
        # no conversion layer between the RK4 loop and the model's own partials
        hp_value, hq_value = object(), object()
        model = HamiltonianModel.general(lambda p, q: 0.0, partials={
            (1, 0): lambda p, q: hp_value, (0, 1): lambda p, q: hq_value,
        })
        hp, hq = model.vector_field()(0.0, 0.0)
        assert hp is hp_value and hq is hq_value


_COEFF = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))


@settings(max_examples=60)
@given(
    coeffs=st.lists(_COEFF, min_size=1, max_size=7),
    q=st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
    shape=st.sampled_from([(), (6,), (2, 3)]),
)
def test_horner_equals_polyval(coeffs, q, shape):
    q = float(q[0]) if shape == () else np.reshape(q, shape)
    expected = P.polyval(q, coeffs)
    assert np.array_equal(np.broadcast_to(_horner(coeffs)(q), np.shape(q)), expected)
    value = _poly(coeffs)(q)
    assert np.shape(value) == np.shape(expected)
    assert np.array_equal(value, expected)
