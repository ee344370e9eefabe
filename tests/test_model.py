import numpy as np
import pytest
from hypothesis import example, given, settings
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

# a general-kind saddle, which takes the chord probe: H = p^2/2 + 0.3 q p - q^2/2
DRIFT_SADDLE = HamiltonianModel.with_drift(1.0, (0.0, 0.3), (0.0, 0.0, -0.5))


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

    @pytest.mark.parametrize("order", [(a, b) for a in range(4) for b in range(4 - a)])
    @pytest.mark.parametrize("p", [np.array([[0.7], [-1.1]]), 0.4], ids=["array", "scalar"])
    def test_every_order_is_the_explicit_nesting(self, order, p):
        # a differences along p inside b differences along q, written out
        from dualaction.model import _FD_STEP, _fd_directional

        f = lambda p, q: np.cosh(p) - q**2 / 2.0 - 0.05 * q**4 + 0.1 * p * q**2
        m = HamiltonianModel.general(f)
        a, b = order
        q = np.array([-0.6, 0.2, 1.3])
        p_full, q_full = np.broadcast_arrays(np.asarray(p, dtype=float), q)
        h = _FD_STEP.get(a + b)
        if a and b:
            inner = lambda qq: _fd_directional(lambda pp: f(pp, qq), p_full, a, h)
            want = _fd_directional(inner, q_full, b, h)
        elif a:
            want = _fd_directional(lambda pp: f(pp, q_full), p_full, a, h)
        elif b:
            want = _fd_directional(lambda qq: f(p_full, qq), q_full, b, h)
        else:
            want = f(p_full, q_full)
        got = m._derivative(a, b)(p, q)
        assert got.shape == want.shape and np.array_equal(got, want)

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

    def test_each_row_evaluates_the_chord_ends_once(self, box, monkeypatch):
        # per frozen row: H once on the distinct chord points, the probe points among them
        evaluate = model_mod.eval_partials
        sizes = []

        def counted(model, p, q, order=(0, 0)):
            sizes.append(np.size(p))
            return evaluate(model, p, q, order)

        monkeypatch.setattr(model_mod, "eval_partials", counted)
        assert saddle_probe(DRIFT_SADDLE, box) == "saddle"
        xs = np.linspace(-2.0, 2.0, PROBE_SAMPLES)
        i, j = np.triu_indices(PROBE_SAMPLES, k=1)
        lam = model_mod._LAMBDAS[:, None]
        interior = (lam * xs[i] + (1.0 - lam) * xs[j]).ravel()
        assert interior.size == 2484 and np.unique(interior).size == 901
        assert sizes == [904] * (2 * PROBE_GRID)
        assert np.unique(np.concatenate([interior, xs])).size == 904

    @pytest.mark.parametrize("model", [
        DRIFT_SADDLE,
        HamiltonianModel.with_drift(0.7, (0.2, -0.1, 0.3), (0.0, 0.4, 0.0, -1.0)),
        HamiltonianModel.general(lambda p, q: np.cosh(p) - np.cos(2.0 * q) * (1.0 + 0.1 * p)),
        HamiltonianModel.separable(1.0, potential=lambda q: np.sin(3.0 * q)),
    ])
    @pytest.mark.parametrize("axis", ["p-axis", "q-axis"])
    def test_distinct_points_give_every_chord_point_its_value(self, model, axis):
        # the probe of the parent design: H on all 2484 interior points and the 24 ends per row
        box = DomainBox(-1.3, 0.9, -2.1, 1.7)
        xs, frozen = ((np.linspace(-1.3, 0.9, PROBE_SAMPLES), box.q_grid()) if axis == "p-axis"
                      else (np.linspace(-2.1, 1.7, PROBE_SAMPLES), box.p_grid()))
        i, j = np.triu_indices(PROBE_SAMPLES, k=1)
        lam = model_mod._LAMBDAS[:, None]
        xmid = lam * xs[i] + (1.0 - lam) * xs[j]
        convex_ok = concave_ok = True
        for w in frozen:
            h = (lambda x: model.eval(x, np.full_like(x, w))) if axis == "p-axis" else (
                lambda x: model.eval(np.full_like(x, w), x))
            arc, ends = h(xmid), h(xs)
            chord = lam * ends[i] + (1.0 - lam) * ends[j]
            convex_ok &= not np.any(arc > chord + 1e-12)
            concave_ok &= not np.any(arc < chord - 1e-12)
        assert model_mod._chord_flags(model, box, axis) == (convex_ok, concave_ok)

    def test_black_box_constant_is_affine(self, box):
        constant = HamiltonianModel.general(lambda p, q: 1.5)  # a scalar for any (p, q)
        assert convexity_probe(constant, box, "q-axis") == "convex"
        assert saddle_probe(constant, box) == "saddle"


# V'' = 1e-3 - 1.6 (q - 0.174)^2: positive only for |q - 0.174| < 0.025, a band
# narrower than the chord probe's sample spacing on [-2, 2] (4 / 23)
NARROW_BAND = (-1.2222e-4, 2.8096e-3, -2.37208e-2, 0.0928, -0.13333)


def _verdict_slack(coeffs, lo, hi):
    """The exact verdict's slack, 1e-12 of sum |V''_k| max(|lo|, |hi|)^k."""
    return 1e-12 * P.polyval(max(abs(lo), abs(hi)), np.abs(P.polyder(coeffs, 2)))


class TestExactVerdict:
    """A separable model with potential coefficients is decided on the
    extremes of V'' instead of the chord probe."""

    @pytest.mark.parametrize("model", [
        HamiltonianModel.free(2.0), HamiltonianModel.sho(0.5, 2.0),
        HamiltonianModel.saddle_quadratic(3.0, 0.4), HamiltonianModel.constant_force(1.0, 2.0),
        HamiltonianModel.separable(1.0, potential_coeffs=(0.0, 0.0, -0.5, 0.0, -0.05)),
        HamiltonianModel.separable(1.0, potential_coeffs=NARROW_BAND),
    ])
    def test_polynomial_models_skip_the_chord_probe(self, model, box, monkeypatch):
        def chord(*args):
            raise AssertionError("a polynomial separable model took the chord probe")

        monkeypatch.setattr(model_mod, "_chord_flags", chord)
        saddle_probe(model, box)
        convexity_probe(model, box, "p-axis")
        convexity_probe(model, box, "q-axis")

    @pytest.mark.parametrize("model", [
        DRIFT_SADDLE, HamiltonianModel.general(lambda p, q: p**2 - q**2),
        HamiltonianModel.separable(1.0, potential=lambda q: -q**2),
    ])
    def test_other_models_take_the_chord_probe(self, model, box, monkeypatch):
        chord = model_mod._chord_flags
        axes = []

        def recording(model, box, axis):
            axes.append(axis)
            return chord(model, box, axis)

        monkeypatch.setattr(model_mod, "_chord_flags", recording)
        assert saddle_probe(model, box) == "saddle"
        assert axes == ["p-axis", "q-axis"]

    def test_narrow_band_is_not_a_saddle(self, box):
        model = HamiltonianModel.separable(1.0, potential_coeffs=NARROW_BAND)
        q = np.linspace(0.15, 0.2, 1001)
        assert P.polyval(q, P.polyder(NARROW_BAND, 2)).max() > 9e-4
        # 24 chord samples on [-2, 2] step over the band
        assert model_mod._chord_flags(model, box, "q-axis") == (False, True)
        assert convexity_probe(model, box, "q-axis") == "neither"
        assert saddle_probe(model, box) == "not-saddle"

    def test_a_huge_box_is_decided_without_overflow(self):
        # V''' = 1e10 + 1e-300 q^2 on |q| <= 1e300: both terms count there, and their ratio
        # overflowed np.roots' companion matrix (a LinAlgError), as V'' = 1e10 q + q^3 / 3e300
        # overflows at the box's ends; V'' changes sign at 0
        model = HamiltonianModel.separable(1.0, (0.0, 0.0, 0.0, 1e10 / 6, 0.0, 1e-300 / 60))
        box = DomainBox(-1.0, 1.0, -1e300, 1e300)
        assert saddle_probe(model, box) == "not-saddle"
        assert convexity_probe(model, box, "q-axis") == "neither"

    @pytest.mark.parametrize("coeffs", [
        (0.0,), (0.0, -1.0), (0.3, -0.7, 0.0, 0.0), (0.0, 0.0, -0.5, 0.0, 0.0),
        # V'' = -(q - 0.3)^2, zero at a double root inside the box
        (-0.000675, 0.009, -0.045, 0.1, -1.0 / 12.0),
    ])
    def test_curvature_zero_up_to_rounding_stays_a_saddle(self, coeffs, box):
        model = HamiltonianModel.separable(1.0, potential_coeffs=coeffs)
        assert saddle_probe(model, box) == "saddle"
        assert model_mod._chord_flags(model, box, "q-axis")[1]

    @pytest.mark.parametrize("model", [
        HamiltonianModel.free(), HamiltonianModel.sho(), HamiltonianModel.saddle_quadratic(),
        HamiltonianModel.constant_force(), HamiltonianModel.sho(1e-3, 30.0),
        HamiltonianModel.saddle_quadratic(3.0, 3.0 * 0.6**2),
        HamiltonianModel.saddle_quadratic(1.17e-3, 1.0),
        HamiltonianModel.separable(1.0, potential_coeffs=(0.0, 0.0, -0.5, 0.0, -0.05)),
        HamiltonianModel.separable(2.0, potential_coeffs=(0.0, 0.0, 1.0, 0.0, 0.1)),
        HamiltonianModel.separable(1.0, potential_coeffs=(0.0, 0.0, 0.5, 0.0, 10.0)),
        HamiltonianModel.separable(1.0, potential_coeffs=(0.0, 0.0, 0.0, 1.0)),
        HamiltonianModel.separable(1.7, potential_coeffs=(0.3, -0.2, 0.4, 0.1)),
    ])
    @pytest.mark.parametrize("bounds", [(-2.0, 2.0, -2.0, 2.0), (-2.9, 2.1, -2.0, 2.4),
                                        (-40.0, 40.0, -1.0, 3.0)])
    def test_models_of_the_suites_keep_their_chord_verdict(self, model, bounds):
        # along p only convex_ok enters a verdict
        box = DomainBox(*bounds)
        assert model_mod._axis_flags(model, box, "p-axis")[0]
        assert model_mod._chord_flags(model, box, "p-axis")[0]
        assert model_mod._axis_flags(model, box, "q-axis") == model_mod._chord_flags(
            model, box, "q-axis")

    @settings(max_examples=50)
    @given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7),
           q_min=st.floats(-3.0, 3.0), width=st.floats(0.01, 5.0))
    # V''' = 6 + 1.2e-322 q: np.roots overflowed dividing by its subnormal lead
    @example(coeffs=[0.0, 0.0, 0.0, 1.0, 5e-324], q_min=0.0, width=1.0)
    # the coefficients of test_a_huge_box_is_decided_without_overflow, on a small box
    @example(coeffs=[0.0, 0.0, 0.0, 1e10 / 6, 0.0, 1e-300 / 60], q_min=-3.0, width=5.0)
    def test_exact_verdict_agrees_with_a_dense_scan(self, coeffs, q_min, width):
        q_max = q_min + width
        model = HamiltonianModel.separable(1.0, potential_coeffs=coeffs)
        convex_ok, concave_ok = model_mod._axis_flags(model, DomainBox(-1.0, 1.0, q_min, q_max),
                                                 "q-axis")
        q = np.linspace(q_min, q_max, 10_000)
        curvature = P.polyval(q, P.polyder(coeffs, 2))
        slack = _verdict_slack(coeffs, q_min, q_max)
        # between scan points V'' exceeds the scan by at most (spacing / 2)^2 / 2 max |V''''|
        size = max(abs(q_min), abs(q_max))
        gap = (q[1] - q[0]) ** 2 / 8.0 * P.polyval(size, np.abs(P.polyder(coeffs, 4)))
        rounding = 1e-14 * P.polyval(size, np.abs(P.polyder(coeffs, 2)))
        if curvature.max() > slack + rounding:
            assert not concave_ok
        if curvature.max() + gap < slack - rounding:
            assert concave_ok
        if curvature.min() < -slack - rounding:
            assert not convex_ok
        if curvature.min() - gap > -slack + rounding:
            assert convex_ok


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

    @pytest.mark.parametrize("build, message", [
        (lambda: HamiltonianModel(kind="hamiltonian", mass=1.0, potential_coeffs=(0.0,)),
         "unknown Hamiltonian kind"),
        (lambda: HamiltonianModel.separable(0.0, potential_coeffs=(0.0, 0.0, 0.5)),
         "positive mass"),
        (lambda: HamiltonianModel(kind="separable", potential_coeffs=(0.0, 0.0, 0.5)),
         "positive mass"),
        (lambda: HamiltonianModel.with_drift(-1.0, (0.0,), (0.0, 0.0, 0.5)), "positive mass"),
        (lambda: convexity_probe(HamiltonianModel.sho(), DomainBox(-1, 1, -1, 1), "t-axis"),
         "axis must be"),
    ], ids=["kind", "mass", "no-mass", "drift-mass", "axis"])
    def test_precondition_violations_raise(self, build, message):
        with pytest.raises(PreconditionError, match=message) as err:
            build()
        assert err.value.code == "precondition"

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


def _out_of_place_horner(coeffs, q):
    """Horner's rule with a new array per step, skipping zero coefficients."""
    coeffs = [float(c) for c in coeffs]
    value = coeffs[-1]
    for c in coeffs[-2::-1]:
        value = value * q
        if c:
            value = value + c
    return value


_HORNER_INPUTS = {
    "float": lambda q: float(q[0]),
    "0-d": lambda q: np.array(q[0]),
    "int": lambda q: np.array(q).astype(np.int64),
    "broadcast": lambda q: np.broadcast_to(np.reshape(q, (1, 6)), (3, 6)),  # read-only
    "fortran": lambda q: np.asfortranarray(np.reshape(q, (2, 3))),
}


@settings(max_examples=60)
@given(
    coeffs=st.lists(_COEFF, min_size=1, max_size=7),
    q=st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
    form=st.sampled_from(sorted(_HORNER_INPUTS)),
)
def test_horner_in_place_equals_out_of_place(coeffs, q, form):
    # _horner updates its first product in place; q itself is never written
    q = _HORNER_INPUTS[form](q)
    before = np.array(q, copy=True)
    value, expected = _horner(coeffs)(q), _out_of_place_horner(coeffs, q)
    assert type(value) is type(expected)
    assert np.shape(value) == np.shape(expected)
    assert np.array_equal(value, expected)
    assert np.array_equal(q, before) and np.asarray(q).dtype == before.dtype


@settings(max_examples=60)
@given(
    coeffs=st.lists(_COEFF, min_size=1, max_size=7),
    q=st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
    form=st.sampled_from(["int", "broadcast", "fortran", "c"]),
)
def test_horner_in_out_equals_out_of_place(coeffs, q, form):
    # with out, _horner computes in out (a constant fills it) and returns it
    q = np.reshape(q, (2, 3)) if form == "c" else _HORNER_INPUTS[form](q)
    before = np.array(q, copy=True)
    out = np.full(np.shape(q), np.nan)
    assert _horner(coeffs)(q, out) is out
    expected = np.broadcast_to(_out_of_place_horner(coeffs, q), np.shape(q))
    assert np.array_equal(out, expected)
    assert np.array_equal(q, before)
