import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualaction import (
    BandwidthError,
    CausticError,
    FourierGrid,
    HamiltonianModel,
    PreconditionError,
    SliceScheme,
    compose_kernels,
    fourier_endpoints,
    free_momentum_delta_kernel,
    free_momentum_propagator,
    momentum_kernel_sampler,
    normalization_extraction,
    position_kernel_sampler,
    sliced_momentum_propagator,
    sliced_position_propagator,
)
from dualaction.propagator import GaussianKernel, PropagatorValue


def node_sum_chain(mass, c2, x_i, x_f, t, n):
    """Reference N-slice chain for H = p^2/2m + c2 q^2, node by node: the
    determinant, the prefactor, the discrete action of the discrete
    classical path, and the sum of the magnitudes of its kinetic and
    potential parts."""
    dt = t / n
    u = 2.0 - 2.0 * c2 / mass * dt * dt
    f = np.empty(n + 1)
    f[0], f[1] = 0.0, 1.0
    for j in range(1, n):
        f[j + 1] = u * f[j] - f[j - 1]
    nodes = (x_i * f[::-1] + x_f * f) / f[n]
    kinetic = mass * np.sum(np.diff(nodes) ** 2) / (2.0 * dt)
    v = c2 * nodes**2
    potential = dt * (np.sum(v) - 0.5 * (v[0] + v[-1]))
    det = dt * f[n]
    prefactor = cmath.sqrt(mass / (2.0j * math.pi * det))
    return det, prefactor, kinetic - potential, kinetic + abs(potential)


class TestSliceScheme:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            SliceScheme(0)

    def test_non_integral_slice_count_rejected(self):
        with pytest.raises(PreconditionError, match="n_slices must be an integer"):
            SliceScheme(2.5)


class TestPropagatorValue:
    def test_delta_phase_must_be_unimodular(self):
        with pytest.raises(PreconditionError):
            PropagatorValue.delta(2.0 + 0.0j, True, True)

    def test_regular_has_no_phase_accessor(self):
        v = PropagatorValue.regular(0.3 + 0.1j)
        with pytest.raises(PreconditionError):
            _ = v.phase


class TestPositionSlicing:
    def test_free_particle_every_n(self, free):
        # the Gaussian chain collapses identically for every N; the N = 1
        # hand computation sqrt(1/(2 pi i)) exp(i/2) is the oracle
        oracle = cmath.sqrt(1.0 / (2.0j * math.pi)) * cmath.exp(0.5j)
        for n in (1, 2, 17, 256):
            g = sliced_position_propagator(free, 0.0, 1.0, 1.0, SliceScheme(n))
            assert abs(g.amplitude - oracle) <= 1e-12
        assert abs(abs(g.amplitude) - (2.0 * math.pi) ** -0.5) <= 1e-12

    def test_sho_matches_semigroup_composition(self, sho):
        # oracle: numerically compose two half-time kernels
        scheme = SliceScheme(512)
        t = math.pi / 4
        half = position_kernel_sampler(sho, t / 2.0, SliceScheme(256))
        composed = compose_kernels(half, half, 0.0, 0.0)
        direct = sliced_position_propagator(sho, 0.0, 0.0, t, scheme)
        assert abs(direct.amplitude - composed) <= 1e-3
        assert abs(abs(direct.amplitude) - (2.0 * math.pi * math.sin(t)) ** -0.5) <= 1e-3

    def test_short_time_scaling(self, free):
        # |G| sqrt(t) is fixed by the prefactor form
        values = []
        for t in (1e-2, 1e-3):
            g = sliced_position_propagator(free, 0.0, 1.0, t, SliceScheme(16))
            values.append(abs(g.amplitude) * math.sqrt(t))
        assert abs(values[0] - values[1]) <= 1e-6

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, sho, t):
        with pytest.raises(PreconditionError, match="t must be positive and finite"):
            sliced_position_propagator(sho, 0.0, 1.0, t, SliceScheme(8))

    def test_caustic_precondition(self, sho):
        with pytest.raises(PreconditionError):
            sliced_position_propagator(sho, 0.0, 0.0, math.pi, SliceScheme(64))

    def test_near_caustic_determinant_error(self, sho):
        # the discrete chain has its own caustic where f_N = sin(N h)/sin(h)
        # vanishes, slightly before the continuum one; hit it exactly
        n = 4
        dt = math.sqrt(2.0 - 2.0 * math.cos(math.pi / n))
        with pytest.raises(CausticError):
            sliced_position_propagator(sho, 0.0, 0.0, n * dt, SliceScheme(n))

    def test_non_quadratic_rejected(self):
        cubic = HamiltonianModel.separable(1.0, potential_coeffs=(0.0, 0.0, 0.0, 1.0))
        with pytest.raises(PreconditionError):
            sliced_position_propagator(cubic, 0.0, 1.0, 1.0, SliceScheme(8))

    def test_saddle_sign_flip(self, saddle):
        # omega -> i omega: no caustic, determinant grows like sinh
        g = sliced_position_propagator(saddle, 0.0, 1.0, 1.0, SliceScheme(512))
        expected_mag = (2.0 * math.pi * math.sinh(1.0)) ** -0.5
        assert abs(abs(g.amplitude) - expected_mag) <= 1e-3

    def test_discrete_action_links_to_action_module_free(self, free):
        # exact agreement for the free particle: both reduce to m dq^2/2t
        from dualaction import PhasePath, action_s

        kernel = position_kernel_sampler(free, 1.0, SliceScheme(64))
        times = np.linspace(0.0, 1.0, 65)
        path = PhasePath(0.0, 1.0, np.full(65, 1.0), times)
        assert abs(kernel.action(1.0, 0.0) - action_s(free, path).value) <= 1e-9

    def test_discrete_action_links_to_action_module_sho(self, sho):
        # same identity for the oscillator at grid accuracy, against the
        # classical path q = sin(s)/sin(t), p = m cos(s)/sin(t)
        from dualaction import PhasePath, action_s

        n, t = 512, math.pi / 4
        dt = t / n
        kernel = position_kernel_sampler(sho, t, SliceScheme(n))
        times = np.linspace(0.0, t, n + 1)
        path = PhasePath(0.0, t, sho.mass * np.cos(times) / math.sin(t),
                         np.sin(times) / math.sin(t))
        assert abs(kernel.action(1.0, 0.0) - action_s(sho, path).value) <= 5.0 * dt**2


_MASS = st.floats(-1.0, 1.0).map(lambda e: 10.0**e)


@settings(max_examples=200)
@given(family=st.sampled_from(["free", "sho", "saddle-quadratic"]), mass=_MASS,
       omega_t=st.floats(0.05, 0.95 * math.pi), n=st.integers(1, 800),
       x_i=st.floats(-2.0, 2.0), x_f=st.floats(-2.0, 2.0))
def test_kernel_matches_node_sum_chain(family, mass, omega_t, n, x_i, x_f):
    # unit frequency: t = omega t, and c2 = +-m/2 (0 for the free particle)
    model = HamiltonianModel.builtin(family, mass=mass, k=mass)
    c2 = model.potential_coeffs[2] if family != "free" else 0.0
    t = omega_t
    det, prefactor, action, scale = node_sum_chain(mass, c2, x_i, x_f, t, n)
    if abs(det) < 1e-6:  # at a caustic of the discrete chain
        return
    kernel = position_kernel_sampler(model, t, SliceScheme(n))
    assert isinstance(kernel, GaussianKernel)
    reference = prefactor * cmath.exp(1j * action)
    # relative to the magnitudes both sides sum: the path's kinetic and
    # potential parts, and the kernel's three endpoint terms
    scale += abs(0.5 * kernel.a_i * x_i**2) + abs(0.5 * kernel.a_f * x_f**2) \
        + abs(kernel.cross * x_i * x_f)
    assert abs(kernel.action(x_f, x_i) - action) <= 1e-11 * scale
    assert abs(complex(kernel(x_f, x_i)) - reference) <= 1e-11 * abs(reference)
    point = sliced_position_propagator(model, x_i, x_f, t, SliceScheme(n)).amplitude
    assert point == complex(kernel(x_f, x_i))


@settings(max_examples=40)
@given(mass=_MASS, log_omega=st.floats(-0.5, 0.5), omega_t=st.floats(0.05, 0.9 * math.pi),
       x_i=st.floats(-2.0, 2.0), x_f=st.floats(-2.0, 2.0))
def test_chain_approaches_van_vleck_kernel_at_second_order(mass, log_omega, omega_t, x_i, x_f):
    # the oscillator's continuum kernel (hbar = 1), away from its caustic at
    # omega t = pi: sqrt(m w / (2 pi i sin wt)) exp(i m w ((x_i^2 + x_f^2) cos wt
    # - 2 x_i x_f) / (2 sin wt)); doubling the slices quarters the error
    omega = 10.0**log_omega
    model = HamiltonianModel.sho(mass, omega)
    sin, cos = math.sin(omega_t), math.cos(omega_t)
    exact = cmath.sqrt(mass * omega / (2j * math.pi * sin)) * cmath.exp(
        0.5j * mass * omega * ((x_i**2 + x_f**2) * cos - 2.0 * x_i * x_f) / sin)
    t = omega_t / omega
    errors = [abs(sliced_position_propagator(model, x_i, x_f, t, SliceScheme(n)).amplitude - exact)
              for n in (64, 128, 256)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.9 <= coarse / fine <= 4.1


class TestMomentumSlicing:
    def test_matches_fourier_oracle(self, sho):
        scheme = SliceScheme(512)
        t = math.pi / 4
        sampler = position_kernel_sampler(sho, t, scheme)
        grid = FourierGrid(out_final=np.array([0.0]), out_initial=np.array([0.0]),
                           band=24.0, n_quad=4096)
        oracle = fourier_endpoints(sampler, grid, to="momentum").values[0, 0]
        direct = sliced_momentum_propagator(sho, 0.0, 0.0, t, scheme)
        assert abs(direct.amplitude - oracle) <= 1e-3

    def test_endpoint_exchange_symmetry(self, sho):
        scheme = SliceScheme(512)
        t = math.pi / 4
        a = sliced_momentum_propagator(sho, 0.3, 0.8, t, scheme).amplitude
        b = sliced_momentum_propagator(sho, 0.8, 0.3, t, scheme).amplitude
        assert abs(a - b) <= 1e-6

    def test_self_convergence_order(self, sho):
        t = math.pi / 4
        ref = sliced_momentum_propagator(sho, 0.2, 0.5, t, SliceScheme(8192)).amplitude
        e64 = abs(sliced_momentum_propagator(sho, 0.2, 0.5, t, SliceScheme(64)).amplitude - ref)
        e512 = abs(sliced_momentum_propagator(sho, 0.2, 0.5, t, SliceScheme(512)).amplitude - ref)
        order = math.log(e64 / e512) / math.log(8.0)
        assert order >= 0.9

    def test_free_model_rejected(self, free):
        with pytest.raises(PreconditionError):
            sliced_momentum_propagator(free, 0.0, 0.0, 1.0, SliceScheme(16))


class TestFreeMomentumDelta:
    def test_phase_at_pi(self):
        v = free_momentum_propagator(1.0, 1.0, 1.0, math.pi)
        assert abs(v.phase - (-1j)) <= 1e-12
        assert v.support_matched and v.causal

    def test_support_mismatch(self):
        assert free_momentum_propagator(1.0, 1.0, 2.0, 1.0).support_matched is False

    def test_non_causal(self):
        assert free_momentum_propagator(1.0, 1.0, 1.0, -1.0).causal is False

    def test_unimodular(self):
        v = free_momentum_propagator(2.0, 1.7, 1.7, 5.3)
        assert abs(abs(v.phase) - 1.0) <= 1e-12

    def test_support_tolerance_mode(self):
        assert free_momentum_propagator(1.0, 1.0, 1.0 + 1e-9, 1.0).support_matched is False

    @pytest.mark.parametrize("mass", [-1.0, 0.0])
    def test_non_positive_mass_rejected_by_both(self, mass):
        with pytest.raises(PreconditionError, match="mass must be positive"):
            free_momentum_delta_kernel(mass, 1.0)
        with pytest.raises(PreconditionError, match="mass must be positive"):
            free_momentum_propagator(mass, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_mass_rejected(self, mass):
        with pytest.raises(PreconditionError, match="mass must be positive and finite"):
            free_momentum_delta_kernel(mass, 1.0)

    @pytest.mark.parametrize("t", [math.nan, -math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(PreconditionError, match="t must be finite"):
            free_momentum_delta_kernel(1.0, t)

    def test_point_value_is_the_kernel_phase(self):
        for mass, p, t in ((1.0, 1.0, math.pi), (2.0, 1.7, 5.3), (0.3, -0.8, -1.1)):
            v = free_momentum_propagator(mass, p, p, t)
            k = free_momentum_delta_kernel(mass, t)
            assert v.phase == complex(k.phase_fn(p)) and v.causal == k.causal

    def test_delta_semigroup_phase_composition(self):
        # on the matched support the phases of the two sub-intervals
        # multiply into the full-interval phase
        m, p = 2.0, 0.8
        a = free_momentum_propagator(m, p, p, 0.4).phase
        b = free_momentum_propagator(m, p, p, 0.9).phase
        c = free_momentum_propagator(m, p, p, 1.3).phase
        assert abs(a * b - c) <= 1e-12


class TestFourierGrid:
    @pytest.mark.parametrize("band", [math.nan, math.inf, -1.0])
    def test_band_must_be_positive_and_finite(self, band):
        with pytest.raises(PreconditionError, match="band must be positive and finite"):
            FourierGrid(np.array([0.0]), np.array([0.0]), band=band)

    @pytest.mark.parametrize("n_quad", [4096.5, 8])
    def test_n_quad_must_be_an_integer_of_at_least_16(self, n_quad):
        with pytest.raises(PreconditionError, match="n_quad must be an integer >= 16"):
            FourierGrid(np.array([0.0]), np.array([0.0]), n_quad=n_quad)

    @pytest.mark.parametrize("out_final", [np.array([0.0, math.nan]), np.array([])])
    def test_output_grid_must_be_non_empty_and_finite(self, out_final):
        with pytest.raises(PreconditionError, match="non-empty finite out_final"):
            FourierGrid(out_final, np.array([0.0]))
        with pytest.raises(PreconditionError, match="non-empty finite out_initial"):
            FourierGrid(np.array([0.0]), out_final)


class TestFourierEndpoints:
    def test_delta_collapse_matches_closed_form(self):
        grid = FourierGrid(out_final=np.linspace(-3.0, 3.0, 512), out_initial=np.array([0.0]))
        ks = fourier_endpoints(free_momentum_delta_kernel(1.0, 1.0), grid, to="position")
        dq = grid.out_final
        ref = np.sqrt(1.0 / (2.0j * math.pi)) * np.exp(0.5j * dq**2)
        assert np.max(np.abs(ks.values[:, 0] - ref)) <= 1e-3

    def test_delta_transform_memory(self):
        # one product of per-endpoint exponentials, not an (n_f, n_i, n_quad) array (~290 MiB)
        grid = FourierGrid(out_final=np.linspace(-1.0, 1.0, 48),
                           out_initial=np.linspace(-0.8, 1.2, 48))
        kernel = free_momentum_delta_kernel(1.0, 1.0)
        tracemalloc.start()
        try:
            ks = fourier_endpoints(kernel, grid, to="position")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        dq = grid.out_final[:, None] - grid.out_initial[None, :]
        ref = np.sqrt(1.0 / (2.0j * math.pi)) * np.exp(0.5j * dq**2)
        assert np.max(np.abs(ks.values - ref)) <= 1e-3

    def test_round_trip_identity_on_band_limited_kernel(self):
        def source(qf, qi):
            qf = np.asarray(qf, float)
            qi = np.asarray(qi, float)
            return np.exp(-(qf**2 + qi**2) / 2.0 + 0.3j * qf * qi)

        n, band = 768, 12.0
        axis = np.linspace(-band, band, n)
        fwd = fourier_endpoints(source, FourierGrid(axis, axis, band=band, n_quad=n),
                                to="momentum")

        def transformed(pf, pi):
            shape = np.broadcast(pf, pi).shape
            i = np.clip(np.searchsorted(axis, np.broadcast_to(pf, shape).ravel() - 1e-9), 0, n - 1)
            j = np.clip(np.searchsorted(axis, np.broadcast_to(pi, shape).ravel() - 1e-9), 0, n - 1)
            return fwd.values[i, j].reshape(shape)

        qs = np.linspace(-1.5, 1.5, 7)
        back = fourier_endpoints(transformed, FourierGrid(qs, qs, band=band, n_quad=n),
                                 to="position")
        assert np.max(np.abs(back.values - source(qs[:, None], qs[None, :]))) <= 1e-6

    def test_sho_cross_representation(self, sho):
        scheme = SliceScheme(512)
        t = math.pi / 4
        sampler = position_kernel_sampler(sho, t, scheme)
        pts = np.array([0.0, 0.4])
        grid = FourierGrid(out_final=pts, out_initial=pts, band=24.0, n_quad=4096)
        km = fourier_endpoints(sampler, grid, to="momentum")
        for i, pf in enumerate(pts):
            for j, pi_ in enumerate(pts):
                direct = sliced_momentum_propagator(sho, pi_, pf, t, scheme).amplitude
                assert abs(km.values[i, j] - direct) <= 2e-3

    def test_chain_kernel_is_never_sampled_on_the_quadrature_grid(self, sho, monkeypatch):
        # the chirp-z branch reads a GaussianKernel's coefficients; only the
        # bandwidth guards sample it, one row and one column of n_quad points
        n_quad = 4096

        class GridSampled(Exception):
            pass

        call = GaussianKernel.__call__

        def guarded(kernel, x_f, x_i):
            if np.broadcast(x_f, x_i).size > n_quad:
                raise GridSampled
            return call(kernel, x_f, x_i)

        monkeypatch.setattr(GaussianKernel, "__call__", guarded)
        sampler = position_kernel_sampler(sho, math.pi / 4, SliceScheme(512))
        pts = np.array([0.0, 0.4])
        grid = FourierGrid(out_final=pts, out_initial=pts, band=24.0, n_quad=n_quad)
        assert np.all(np.isfinite(fourier_endpoints(sampler, grid, to="momentum").values))
        with pytest.raises(GridSampled):
            fourier_endpoints(lambda xf, xi: sampler(xf, xi), grid, to="momentum")

    def test_degenerate_short_time_bandwidth_error(self):
        grid = FourierGrid(out_final=np.array([1.0]), out_initial=np.array([0.0]))
        with pytest.raises(BandwidthError):
            fourier_endpoints(free_momentum_delta_kernel(1.0, 1e-6), grid, to="position")

    def test_non_causal_delta_gives_zero(self):
        grid = FourierGrid(out_final=np.array([0.5]), out_initial=np.array([0.0]))
        ks = fourier_endpoints(free_momentum_delta_kernel(1.0, -1.0), grid, to="position")
        assert np.all(ks.values == 0.0)

    def test_csv_export(self, tmp_path):
        grid = FourierGrid(out_final=np.array([0.0, 0.5]), out_initial=np.array([0.0]))
        ks = fourier_endpoints(free_momentum_delta_kernel(1.0, 1.0), grid, to="position")
        out = tmp_path / "kernel.csv"
        ks.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x_final,x_initial,re,im"
        assert len(lines) == 3
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)


_CHAIN_TRANSFORMS = st.sampled_from([
    ("free", position_kernel_sampler, "momentum"),
    ("sho", position_kernel_sampler, "momentum"),
    ("saddle-quadratic", position_kernel_sampler, "momentum"),
    ("sho", momentum_kernel_sampler, "position"),
])
_OUT_POINTS = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4).map(np.array)


@settings(max_examples=80)
@given(case=_CHAIN_TRANSFORMS, mass=_MASS, omega_t=st.floats(0.05, 0.95 * math.pi),
       n=st.integers(3, 800), band=st.floats(4.0, 24.0),
       n_quad=st.sampled_from([256, 512, 1000, 1023, 1024]),
       out_final=_OUT_POINTS, out_initial=_OUT_POINTS)
def test_chirp_z_matches_double_quadrature(case, mass, omega_t, n, band, n_quad,
                                           out_final, out_initial):
    # a plain callable takes the generic n_quad^2 double quadrature, the
    # kernel itself the chirp-z branch: the same Riemann sum in another order
    family, sampler, to = case
    model = HamiltonianModel.builtin(family, mass=mass, k=mass)
    kernel = sampler(model, omega_t, SliceScheme(n))
    grid = FourierGrid(out_final, out_initial, band=band, n_quad=n_quad)
    try:
        reference = fourier_endpoints(lambda xf, xi: kernel(xf, xi), grid, to=to).values
    except BandwidthError as err:
        with pytest.raises(BandwidthError, match=re.escape(str(err))):
            fourier_endpoints(kernel, grid, to=to)
        return
    values = fourier_endpoints(kernel, grid, to=to).values
    assert np.max(np.abs(values - reference)) <= 1e-11 * np.max(np.abs(reference))


@settings(max_examples=20)
@given(t=st.floats(0.3, 1.2), x_i=st.floats(-0.5, 0.5), x_f=st.floats(-0.5, 0.5))
def test_fourier_round_trip_between_chains(t, x_i, x_f):
    # each chain's endpoint transform is the other representation's chain,
    # to acceptance criterion 8's tolerance
    sho = HamiltonianModel.sho(1.0, 1.0)
    scheme = SliceScheme(512)
    grid = FourierGrid(np.array([x_f]), np.array([x_i]), band=24.0, n_quad=4096)
    for sampler, to, chain in (
        (position_kernel_sampler, "momentum", sliced_momentum_propagator),
        (momentum_kernel_sampler, "position", sliced_position_propagator),
    ):
        transformed = fourier_endpoints(sampler(sho, t, scheme), grid, to=to).values[0, 0]
        assert abs(transformed - chain(sho, x_i, x_f, t, scheme).amplitude) <= 2e-3


class TestSemigroup:
    def test_free_composition(self, free):
        k1 = position_kernel_sampler(free, 0.4, SliceScheme(64))
        k2 = position_kernel_sampler(free, 0.6, SliceScheme(64))
        ktot = position_kernel_sampler(free, 1.0, SliceScheme(64))
        got = compose_kernels(k2, k1, 0.7, -0.2)
        assert abs(got - complex(ktot(0.7, -0.2))) <= 1e-3

    def test_sho_composition_both_representations(self, sho):
        scheme = SliceScheme(512)
        half_pos = position_kernel_sampler(sho, math.pi / 8, scheme)
        tot_pos = position_kernel_sampler(sho, math.pi / 4, scheme)
        got = compose_kernels(half_pos, half_pos, 0.3, 0.1)
        assert abs(got - complex(tot_pos(0.3, 0.1))) <= 1e-3

        half_mom = momentum_kernel_sampler(sho, math.pi / 8, scheme)
        tot_mom = momentum_kernel_sampler(sho, math.pi / 4, scheme)
        got_m = compose_kernels(half_mom, half_mom, 0.2, 0.4)
        assert abs(got_m - complex(tot_mom(0.2, 0.4))) <= 1e-3


class TestNormalizationExtraction:
    def test_constant_across_separations_and_times(self):
        ratios = []
        for dq, t in ((0.0, 1.0), (0.5, 1.0), (1.0, 1.0)):
            grid = FourierGrid(out_final=np.array([dq]), out_initial=np.array([0.0]))
            ks = fourier_endpoints(free_momentum_delta_kernel(1.0, t, prefactor=1.0),
                                   grid, to="position")
            ratios.append(normalization_extraction(ks, 1.0, t))
        assert max(ratios) - min(ratios) <= 1e-6

    def test_mass_time_equivalence(self):
        # reference depends on m/t only; the ratio must agree for
        # (m=2, t=1) and (m=1, t=2)
        out = []
        for mass, t in ((2.0, 1.0), (1.0, 2.0)):
            grid = FourierGrid(out_final=np.array([0.3]), out_initial=np.array([0.0]))
            ks = fourier_endpoints(free_momentum_delta_kernel(mass, t), grid, to="position")
            out.append(normalization_extraction(ks, mass, t))
        assert abs(out[0] - out[1]) <= 1e-6

    @pytest.mark.parametrize("mass, t", [(0.0, 1.0), (math.nan, 1.0), (1.0, 0.0)])
    def test_mass_and_time_must_be_positive_and_finite(self, mass, t):
        grid = FourierGrid(out_final=np.array([0.5]), out_initial=np.array([0.0]))
        ks = fourier_endpoints(free_momentum_delta_kernel(1.0, 1.0), grid, to="position")
        with pytest.raises(PreconditionError, match="must be positive and finite"):
            normalization_extraction(ks, mass, t)

    def test_unit_prefactor_gives_unit_ratio(self):
        grid = FourierGrid(out_final=np.array([0.5]), out_initial=np.array([0.0]))
        ks = fourier_endpoints(free_momentum_delta_kernel(1.0, 1.0), grid, to="position")
        assert normalization_extraction(ks, 1.0, 1.0) == pytest.approx(1.0, abs=1e-9)
