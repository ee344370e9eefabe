import math

import numpy as np
import pytest

from dualaction import (
    BoundarySpec,
    HamiltonianModel,
    PreconditionError,
    classify_extremum,
    hessian_r,
    hessian_s,
    solve_position_bvp,
)


def critical_path(model, q0, q1, t, n=600):
    rep = solve_position_bvp(model, BoundarySpec("position-type", q0, q1), (0.0, t), n)
    assert rep.flag == "unique"
    return rep.path


class TestHessianS:
    def test_global_minimum_example(self):
        m = HamiltonianModel.saddle_quadratic(0.5, 2.0)  # H = p^2 - q^2
        mat = hessian_s(m, 0.7, -1.3)
        assert (mat.a11, mat.a12, mat.a22) == (2.0, 0.0, 2.0)

    def test_sho_indefinite_entries(self, sho):
        mat = hessian_s(sho, 0.4, 0.9)
        assert (mat.a11, mat.a12, mat.a22) == (1.0, 0.0, -1.0)

    def test_saddle_entries(self, saddle):
        mat = hessian_s(saddle, -0.2, 0.5)
        assert (mat.a11, mat.a12, mat.a22) == (1.0, 0.0, 1.0)

    def test_vectorized_over_path(self, sho):
        mat = hessian_s(sho, np.linspace(-1, 1, 7), np.linspace(0, 1, 7))
        assert mat.a11.shape == (7,)
        assert mat.eigenvalues().shape == (7, 2)


class TestHessianR:
    def test_saddle_maximum_entries(self, saddle):
        mat = hessian_r(saddle, 0.7, 0.3)
        assert (mat.a11, mat.a12, mat.a22) == (-1.0, 0.0, -1.0)

    def test_sho_entries(self, sho):
        mat = hessian_r(sho, 0.7, 0.3)
        assert (mat.a11, mat.a12, mat.a22) == (-1.0, 0.0, 1.0)

    def test_free_particle_degenerate_axis(self):
        m = HamiltonianModel.free(2.0)
        mat = hessian_r(m, 0.7, 0.3)
        assert (mat.a11, mat.a12, mat.a22) == (-0.5, 0.0, 0.0)


class TestClassification:
    def test_global_minimum_verdict(self):
        m = HamiltonianModel.saddle_quadratic(0.5, 2.0)
        rep = classify_extremum(m, critical_path(m, 0.0, 1.0, 1.0), "S")
        assert rep.classification == "minimum"

    def test_sho_indefinite_verdict(self, sho):
        rep = classify_extremum(sho, critical_path(sho, 0.0, 1.0, math.pi / 2), "S")
        assert rep.classification == "indefinite"

    def test_saddle_r_maximum_verdict(self, saddle):
        rep = classify_extremum(saddle, critical_path(saddle, 0.0, 1.0, 1.0), "R")
        assert rep.classification == "maximum"

    def test_free_particle_r_degenerate(self, free):
        rep = classify_extremum(free, critical_path(free, 0.0, 1.0, 1.0), "R")
        assert rep.classification == "degenerate"

    def test_which_validated(self, free):
        with pytest.raises(PreconditionError):
            classify_extremum(free, critical_path(free, 0.0, 1.0, 1.0), "T")

    def test_stationarity_check_small_on_critical_path(self, sho):
        rep = classify_extremum(sho, critical_path(sho, 0.0, 1.0, 1.2, n=2000), "S")
        assert rep.hamilton_residual <= 1e-5

    def test_separable_minimum_iff_concave_potential(self, sho, saddle, free):
        # minimum exactly when -H_qq > 0 along the path
        path = critical_path(saddle, 0.0, 1.0, 1.0)
        assert classify_extremum(saddle, path, "S").classification == "minimum"
        path2 = critical_path(sho, 0.0, 1.0, 1.0)
        assert classify_extremum(sho, path2, "S").classification == "indefinite"
        path3 = critical_path(free, 0.0, 1.0, 1.0)
        assert classify_extremum(free, path3, "S").classification == "degenerate"

    def test_eigenvalue_product_equals_determinant(self, sho, saddle):
        for model in (sho, saddle):
            path = critical_path(model, 0.0, 1.0, 1.0)
            for which, build in (("S", hessian_s), ("R", hessian_r)):
                mat = build(model, path.p, path.q)
                eig = mat.eigenvalues()
                np.testing.assert_allclose(eig[:, 0] * eig[:, 1], mat.determinant(), atol=1e-12)

    def test_exports(self, saddle, tmp_path):
        rep = classify_extremum(saddle, critical_path(saddle, 0.0, 1.0, 1.0), "S")
        csv_path = tmp_path / "eig.csv"
        rep.to_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,lambda_1,lambda_2"
        assert len(lines) == 1 + rep.eigenvalues.shape[0]
        assert rep.summary()["classification"] == "minimum"


class TestMassIndependence:
    # (model, q-window, expected S verdict, expected R verdict); the window of
    # sho stays below its conjugate point
    CASES = (
        ("sho", math.pi / 2, "indefinite", "indefinite"),
        ("saddle-quadratic", 1.0, "minimum", "maximum"),
        ("free", 1.0, "degenerate", "degenerate"),
    )

    @pytest.mark.parametrize("mass", [1e-3, 1e-1, 1.0, 1e2, 1e4, 1e6, 1e7])
    @pytest.mark.parametrize("name, t, want_s, want_r", CASES)
    def test_verdicts_do_not_depend_on_mass(self, name, t, want_s, want_r, mass):
        # k = m: the trajectory and both verdicts are those of unit mass
        model = HamiltonianModel.builtin(name, mass=mass, omega=1.0, k=mass)
        bounds = BoundarySpec("position-type", 0.0, 1.0)
        rep = solve_position_bvp(model, bounds, (0.0, t), 400)
        assert rep.flag == "unique"
        assert classify_extremum(model, rep.path, "S").classification == want_s
        assert classify_extremum(model, rep.path, "R").classification == want_r

    def test_momentum_endpoint_sho_is_indefinite_at_large_mass(self):
        from dualaction import solve_momentum_bvp

        model = HamiltonianModel.sho(1e6, 1.0)
        rep = solve_momentum_bvp(model, BoundarySpec("momentum-type", 0.4e6, -0.2e6),
                                 (0.0, 1.0), 500)
        assert rep.flag == "unique"
        for which in "SR":
            report = classify_extremum(model, rep.path, which)
            assert report.classification == "indefinite"
            # eigenvalues are reported unscaled: 1/m and m w^2 in magnitude
            assert np.max(np.abs(report.eigenvalues)) == pytest.approx(1e6)


class TestDriftIndependence:
    def test_s_matrix_ignores_drift_term(self, sho):
        # H = p^2/2m + B(q) p + V(q): the S matrix must not see B
        path = critical_path(sho, 0.0, 1.0, math.pi / 2, n=800)
        plain = HamiltonianModel.with_drift(1.0, (0.0,), (0.0, 0.0, 0.5))
        drift = HamiltonianModel.with_drift(1.0, (0.0, 0.0, 3.0), (0.0, 0.0, 0.5))
        rep0 = classify_extremum(plain, path, "S")
        rep1 = classify_extremum(drift, path, "S")
        assert rep0.classification == rep1.classification
        np.testing.assert_allclose(rep0.eigenvalues, rep1.eigenvalues, atol=1e-12)

    def test_drift_a22_is_minus_vqq(self):
        drift = HamiltonianModel.with_drift(1.0, (0.0, 0.0, 3.0), (0.0, 0.0, 0.5))
        mat = hessian_s(drift, 0.8, -0.4)
        assert float(mat.a22) == pytest.approx(-1.0, abs=1e-12)
        assert float(mat.a12) == 0.0
