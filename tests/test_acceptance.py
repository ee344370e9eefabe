"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dualaction import (
    BoundarySpec,
    FourierGrid,
    HamiltonianModel,
    PerturbationSpec,
    PhasePath,
    SliceScheme,
    action_s,
    certify_bounds,
    classify_extremum,
    fourier_endpoints,
    free_momentum_delta_kernel,
    free_momentum_propagator,
    hj_residual_r,
    hj_residual_s,
    legendre_residual,
    normalization_extraction,
    position_kernel_sampler,
    sliced_momentum_propagator,
    solve_position_bvp,
    spin_half_propagator,
    composite_spin_propagator,
)
from dualaction.spin import composite_values, spin_half_closed_form

from conftest import smooth_fourier_path

FREE = HamiltonianModel.free()
SHO = HamiltonianModel.sho()
SADDLE = HamiltonianModel.saddle_quadratic()


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_legendre_identity():
    with criterion(1, "Legendre identity on 100 seeded smooth paths"):
        start = time.perf_counter()
        models = [FREE, SHO, SADDLE]
        worst = {2000: 0.0, 4000: 0.0}
        for k in range(100):
            model = models[k % 3]
            for n in (2000, 4000):
                _, p, q = smooth_fourier_path(1000 + k, n)
                res = abs(legendre_residual(model, PhasePath(0.0, 1.0, p, q)))
                worst[n] = max(worst[n], res)
        elapsed = time.perf_counter() - start
        assert worst[2000] <= 1e-6, f"residual {worst[2000]:.3e} exceeds 1e-6"
        assert worst[2000] / worst[4000] >= 3.5, "refinement shrink below 3.5x"
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


def test_criterion_2_hamilton_jacobi_s():
    with criterion(2, "Hamilton-Jacobi residual for S (free and SHO surfaces)"):
        start = time.perf_counter()
        fld_free = hj_residual_s(FREE, 0.0, np.linspace(0.5, 1.5, 11), np.linspace(0.5, 1.5, 11))
        assert np.all(fld_free.valid)
        assert fld_free.max_abs_hj() <= 1e-4, f"free max {fld_free.max_abs_hj():.3e}"
        fld_sho = hj_residual_s(SHO, 0.0, np.linspace(0.5, 1.5, 11), np.linspace(0.3, 1.0, 11))
        assert np.all(fld_sho.valid)
        assert fld_sho.max_abs_hj() <= 1e-3, f"sho max {fld_sho.max_abs_hj():.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_3_hamilton_jacobi_r():
    with criterion(3, "Hamilton-Jacobi residual for R (free line, SHO surface, companion)"):
        fld_free = hj_residual_r(FREE, 1.0, [1.0], np.linspace(0.5, 1.5, 11))
        assert np.all(fld_free.valid)
        assert fld_free.max_abs_hj() <= 1e-8, f"free line max {fld_free.max_abs_hj():.3e}"
        fld_sho = hj_residual_r(SHO, 1.0, np.linspace(0.2, 0.9, 8), np.linspace(0.3, 1.0, 8))
        assert np.all(fld_sho.valid)
        assert fld_sho.max_abs_hj() <= 1e-3, f"sho max {fld_sho.max_abs_hj():.3e}"
        assert fld_sho.max_abs_companion() <= 1e-3, (
            f"companion {fld_sho.max_abs_companion():.3e}"
        )


def _critical_path(model, q0, q1, t, n=1000):
    rep = solve_position_bvp(model, BoundarySpec("position-type", q0, q1), (0.0, t), n)
    assert rep.flag == "unique"
    return rep.path


def test_criterion_4_extremum_classification():
    with criterion(4, "second-variation verdicts: minimum / indefinite / maximum"):
        gmin = HamiltonianModel.saddle_quadratic(0.5, 2.0)  # H = p^2 - q^2
        rep1 = classify_extremum(gmin, _critical_path(gmin, 0.0, 1.0, 1.0), "S",
                                 zero_tol_relative=1e-9)
        assert rep1.classification == "minimum"
        rep2 = classify_extremum(SHO, _critical_path(SHO, 0.0, 1.0, math.pi / 2), "S",
                                 zero_tol_relative=1e-9)
        assert rep2.classification == "indefinite"
        rep3 = classify_extremum(SADDLE, _critical_path(SADDLE, 0.0, 1.0, 1.0), "R",
                                 zero_tol_relative=1e-9)
        assert rep3.classification == "maximum"


def test_criterion_5_drift_independence():
    with criterion(5, "classification blind to a drift term B(q) p"):
        path = _critical_path(SHO, 0.0, 1.0, math.pi / 2)
        plain = HamiltonianModel.with_drift(1.0, (0.0,), (0.0, 0.0, 0.5))
        drift = HamiltonianModel.with_drift(1.0, (0.0, 0.0, 3.0), (0.0, 0.0, 0.5))
        rep0 = classify_extremum(plain, path, "S")
        rep1 = classify_extremum(drift, path, "S")
        assert rep0.classification == rep1.classification
        np.testing.assert_allclose(rep0.eigenvalues, rep1.eigenvalues, atol=1e-12)


def test_criterion_6_bound_certification():
    with criterion(6, "saddle bound chains: 1000 perturbations, margins O(eps^2)"):
        start = time.perf_counter()
        bvp = solve_position_bvp(SADDLE, BoundarySpec("position-type", 0.0, 1.0),
                                 (0.0, 1.0), 2000)
        for chain, pin in (("S-chain", "q-pinned"), ("R-chain", "p-pinned")):
            spec = PerturbationSpec(amplitude=0.2, mode_count=8, seed=2024, pinned=pin)
            cert = certify_bounds(SADDLE, chain, bvp, spec, 1000)
            assert cert.violations == 0, f"{chain}: {cert.violations} violations"

        for chain, pin in (("S-chain", "q-pinned"), ("R-chain", "p-pinned")):
            amplitudes = (1e-1, 1e-2, 1e-3)
            means = []
            for eps in amplitudes:
                spec = PerturbationSpec(amplitude=eps, mode_count=8, seed=7, pinned=pin)
                cert = certify_bounds(SADDLE, chain, bvp, spec, 50)
                means.append(np.mean(np.concatenate([cert.margins_low, cert.margins_high])))
            order = np.polyfit(np.log(amplitudes), np.log(means), 1)[0]
            assert order >= 1.9, f"{chain} margin order {order:.3f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_7_free_particle_propagators():
    with criterion(7, "free-particle delta phase, endpoint transform, normalization"):
        # exact delta phase
        v = free_momentum_propagator(1.0, 1.0, 1.0, math.pi)
        assert abs(v.phase - cmath.exp(-1j * math.pi / 2.0)) <= 1e-12
        assert v.support_matched and v.causal

        # endpoint Fourier transform reproduces the position kernel
        grid = FourierGrid(out_final=np.linspace(-3.0, 3.0, 512), out_initial=np.array([0.0]))
        ks = fourier_endpoints(free_momentum_delta_kernel(1.0, 1.0), grid, to="position")
        dq = grid.out_final
        ref = np.sqrt(1.0 / (2.0j * math.pi)) * np.exp(0.5j * dq**2)
        err = np.max(np.abs(ks.values[:, 0] - ref))
        assert err <= 1e-3, f"transform error {err:.3e}"

        # normalization ratio constant across (dq, t) pairs
        ratios = []
        for dq_val, t in ((0.0, 1.0), (0.5, 1.0), (1.0, 2.0)):
            g = FourierGrid(out_final=np.array([dq_val]), out_initial=np.array([0.0]))
            k = fourier_endpoints(free_momentum_delta_kernel(1.0, t, prefactor=1.0),
                                  g, to="position")
            ratios.append(normalization_extraction(k, 1.0, t))
        assert max(ratios) - min(ratios) <= 1e-6, f"ratio spread {max(ratios)-min(ratios):.3e}"


def test_criterion_8_sho_momentum_kernel():
    with criterion(8, "SHO momentum kernel vs endpoint-Fourier oracle and convergence"):
        start = time.perf_counter()
        t = math.pi / 4
        scheme = SliceScheme(512)
        sampler = position_kernel_sampler(SHO, t, scheme)
        grid = FourierGrid(out_final=np.array([0.0]), out_initial=np.array([0.0]),
                           band=24.0, n_quad=4096)
        oracle = fourier_endpoints(sampler, grid, to="momentum").values[0, 0]
        direct = sliced_momentum_propagator(SHO, 0.0, 0.0, t, scheme)
        assert abs(direct.amplitude - oracle) <= 2e-3

        ref = sliced_momentum_propagator(SHO, 0.2, 0.5, t, SliceScheme(8192)).amplitude
        e64 = abs(sliced_momentum_propagator(SHO, 0.2, 0.5, t, SliceScheme(64)).amplitude - ref)
        e512 = abs(sliced_momentum_propagator(SHO, 0.2, 0.5, t, SliceScheme(512)).amplitude - ref)
        order = math.log(e64 / e512) / math.log(8.0)
        assert order >= 0.9, f"self-convergence order {order:.3f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, f"runtime {elapsed:.1f}s exceeds 20s"


def test_criterion_9_spin():
    with criterion(9, "spin enumeration vs closed form, |G| = 1, composite hand sum"):
        for n in range(1, 13):
            for policy in ("paper-unconstrained", "endpoint-filtered"):
                a = spin_half_propagator(1.3, 0.7, "+", "-", 0.9, n, policy=policy)
                b = spin_half_closed_form(1.3, 0.7, "+", "-", 0.9, n, policy=policy)
                assert abs(a - b) <= 1e-12

        for n in (1, 4, 9):
            for t in (0.2, 1.0, 3.7):
                g = spin_half_propagator(1.0, 1.0, "+", "+", t, n)
                assert abs(abs(g) - 1.0) <= 1e-12

        # composite N = 1 against the explicit 4-term sum
        inertia, l0, t = 1.0, 0.5, 1.0
        hand = sum(
            cmath.exp(-1j * ((s1 + s2) * l0) ** 2 * t / (2.0 * inertia))
            for s1 in (+1, -1) for s2 in (+1, -1)
        ) / 4.0
        module = composite_spin_propagator(inertia, l0, 2 * l0, 2 * l0, t, 1)
        assert abs(module - hand) <= 1e-12
        assert abs(module - 0.5 * (1.0 + cmath.exp(-1j * t * l0**2 * 4.0 / (2.0 * inertia)))) <= 1e-12

        # multiplicity audit 1:2:1
        values = dict(composite_values(l0))
        assert (values[2 * l0], values[0.0], values[-2 * l0]) == (1, 2, 1)


def test_criterion_10_conjugate_point_detection():
    with criterion(10, "conjugate point at t = pi flagged, unique just below"):
        degenerate = solve_position_bvp(SHO, BoundarySpec("position-type", 0.0, 0.0),
                                        (0.0, math.pi), 1000)
        assert degenerate.flag == "conjugate-degenerate"
        unique = solve_position_bvp(SHO, BoundarySpec("position-type", 0.0, 0.0),
                                    (0.0, math.pi - 0.1), 1000)
        assert unique.flag == "unique"
        assert unique.residual <= 1e-9
