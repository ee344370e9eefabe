import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import dualaction
from dualaction import HamiltonianModel, PhasePath, legendre_residual
from dualaction.action import _legendre_residuals
from dualaction.cli import ERROR_SCHEMA, REPORT_SCHEMA, main

from conftest import padded_row_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_report(out):
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return report


def run_error(capsys, exit_code, *argv):
    """The JSON error of an in-process run that must exit with exit_code
    and print nothing on stdout."""
    code, out, err = run_cli(capsys, *argv)
    assert code == exit_code
    assert out == ""
    error = json.loads(err)
    jsonschema.validate(error, ERROR_SCHEMA)
    return error


class TestCommands:
    def test_classify_saddle_minimum(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--hamiltonian", "saddle-quadratic",
                               "--q-start", "0", "--q-end", "1", "--t1", "1", "--N", "400")
        assert code == 0
        report = load_report(out)
        assert report["results"]["classification"] == "minimum"
        assert report["results"]["which"] == "S"

    def test_action_command(self, capsys):
        code, out, _ = run_cli(capsys, "action", "--hamiltonian", "free",
                               "--q-start", "0", "--q-end", "1", "--t1", "1")
        assert code == 0
        report = load_report(out)
        assert report["results"]["S"] == pytest.approx(0.5, abs=1e-6)
        assert report["results"]["R"] == pytest.approx(-0.5, abs=1e-6)
        assert abs(report["results"]["legendre_residual"]) <= 1e-9

    def test_bounds_on_sho_exits_2_with_code(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--hamiltonian", "sho", "--samples", "3")
        assert code == 2
        assert out == ""
        error = json.loads(err)
        jsonschema.validate(error, ERROR_SCHEMA)
        assert error["error_code"] == "not-saddle"

    def test_bounds_on_narrow_convex_band_exits_2(self, capsys):
        # V'' = 1e-3 - 1.6 (q - 0.174)^2 > 0 on a band narrower than the chord spacing
        code, out, err = run_cli(capsys, "bounds",
                                 "--potential-coeffs=-1.2222e-4,2.8096e-3,-2.37208e-2,0.0928,"
                                 "-0.13333", "--samples", "3")
        assert (code, out) == (2, "")
        assert json.loads(err)["error_code"] == "not-saddle"

    def test_bounds_with_a_subnormal_quartic_coefficient_is_a_json_error(self, capsys):
        # V''' = 6 + 1.2e-322 q: the saddle probe drops the subnormal term, which
        # overflowed np.roots into a LinAlgError; V'' = 6 q - 1 > 0 for q > 1/6
        error = run_error(capsys, 2, "bounds", "--potential-coeffs", "0,0,-0.5,1,5e-324",
                          "--q-end", "1", "--t1", "1", "--samples", "10")
        assert error["error_code"] == "not-saddle"

    def test_bounds_on_saddle(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--hamiltonian", "saddle-quadratic",
                               "--samples", "20", "--N", "800", "--seed", "4")
        assert code == 0
        report = load_report(out)
        assert report["results"]["violations"] == 0

    def test_spin_defaults_unit_magnitude(self, capsys):
        code, out, _ = run_cli(capsys, "spin", "--N", "4")
        assert code == 0
        report = load_report(out)
        assert report["results"]["abs"] == pytest.approx(1.0, abs=1e-12)
        assert report["results"]["path_count"] == 16

    def test_propagate_position(self, capsys):
        code, out, _ = run_cli(capsys, "propagate", "--hamiltonian", "free",
                               "--rep", "position", "--q-start", "0", "--q-end", "1",
                               "--t1", "1", "--slices", "64")
        assert code == 0
        report = load_report(out)
        assert report["results"]["abs"] == pytest.approx((2 * math.pi) ** -0.5, abs=1e-9)

    def test_propagate_momentum_delta(self, capsys):
        code, out, _ = run_cli(capsys, "propagate", "--hamiltonian", "free",
                               "--rep", "momentum", "--p-start", "1", "--p-end", "1",
                               "--t1", str(math.pi))
        assert code == 0
        report = load_report(out)
        assert report["results"]["variant"] == "delta"
        assert report["results"]["support_matched"] is True
        assert report["results"]["phase_im"] == pytest.approx(-1.0, abs=1e-12)

    def test_propagate_caustic_exits_1(self, capsys):
        t = 4.0 * math.sqrt(2.0 - 2.0 * math.cos(math.pi / 4.0))
        code, _, err = run_cli(capsys, "propagate", "--hamiltonian", "sho",
                               "--rep", "position", "--q-start", "0", "--q-end", "0",
                               "--t1", repr(t), "--slices", "4")
        assert code == 1
        assert json.loads(err)["error_code"] == "caustic"

    def test_hj_check_free(self, capsys):
        code, out, _ = run_cli(capsys, "hj-check", "--hamiltonian", "free", "--which", "s",
                               "--grid-count", "5", "--t-count", "5", "--N", "400")
        assert code == 0
        report = load_report(out)
        assert report["results"]["max_abs_residual"] <= 1e-4

    def test_legendre_check(self, capsys):
        code, out, _ = run_cli(capsys, "legendre-check", "--hamiltonian", "sho",
                               "--samples", "10", "--N", "1000", "--seed", "3")
        assert code == 0
        report = load_report(out)
        assert report["results"]["max_residual"] <= 1e-6
        assert report["results"]["shrink_factor"] >= 3.5


class TestOutputs:
    def test_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "spin", "--N", "3", "--out", str(out_path))
        assert code == 0 and out == ""
        report = load_report(out_path.read_text())
        assert report["command"] == "spin"

    def test_csv_series_with_json_to_stdout(self, capsys, tmp_path):
        series = tmp_path / "eigen.csv"
        code, out, _ = run_cli(capsys, "classify", "--hamiltonian", "saddle-quadratic",
                               "--N", "200", "--format", "csv", "--out", str(series))
        assert code == 0
        report = load_report(out)
        assert report["parameters"]["series_path"] == str(series)
        assert series.read_text().splitlines()[0] == "t,lambda_1,lambda_2"

    def test_csv_format_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--hamiltonian", "sho", "--format", "csv")
        assert code == 2

    def test_determinism_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "bounds", "--hamiltonian", "saddle-quadratic",
                                 "--samples", "10", "--N", "600", "--seed", "42",
                                 "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--hamiltonian", "unknown-model"])
        assert exc.value.code == 2



class TestInputValidation:
    @pytest.mark.parametrize("argv", [
        ("bounds", "--hamiltonian", "saddle-quadratic", "--samples", "0"),
        ("classify", "--N", "0"),
        ("hj-check", "--grid-count", "0"),
        ("hj-check", "--t-count", "0"),
        ("hj-check", "--N", "0"),
        ("hj-check", "--fd-step", "0"),
        ("hj-check", "--fd-step", "nan"),
        ("legendre-check", "--samples", "0"),
        ("legendre-check", "--N", "1"),
        ("propagate", "--grid-count", "-1"),
        ("classify", "--q-end", "nan"),
        ("classify", "--mass", "inf"),
        ("bounds", "--hamiltonian", "saddle-quadratic", "--epsilon", "nan"),
        ("hj-check", "--grid-min", "nan"),
        ("hj-check", "--fd-step", "inf"),
        ("propagate", "--p-start", "inf"),
        ("spin", "--t1=-inf"),
    ])
    def test_rejected_at_argument_parsing(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_non_finite_result_is_a_json_error(self, capsys, monkeypatch):
        import dualaction.cli as cli

        def handler(config, model):
            return {"value": float("inf")}, {}, None

        monkeypatch.setitem(cli._HANDLERS, "spin", handler)
        code, out, err = run_cli(capsys, "spin", "--N", "2")
        assert code == 2
        assert out == ""
        error = json.loads(err)
        jsonschema.validate(error, ERROR_SCHEMA)
        assert error["error_code"] == "non-finite"

    @pytest.mark.parametrize("argv", [
        ("hj-check", "--t-min", "0"),
        ("hj-check", "--t-min", "-1", "--t-count", "2"),
        ("hj-check", "--hamiltonian", "free", "--which", "r", "--t-min", "0.001"),
    ])
    def test_non_positive_horizon_is_a_json_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        jsonschema.validate(error, ERROR_SCHEMA)
        assert error["error_code"] == "precondition"

    @pytest.mark.parametrize("argv", [
        ("spin", "--spin", "composite", "--N", "11", "--policy", "endpoint-filtered",
         "--l-i", "0.3", "--l-f", "0.3", "--use-closed-form"),
        ("spin", "--spin", "composite", "--N", "3", "--policy", "endpoint-filtered",
         "--l0", "0", "--l-i", "0", "--l-f", "0"),
        ("spin", "--N", "3", "--policy", "endpoint-filtered", "--l", "0", "--sign-f=-"),
    ])
    def test_undefined_spin_end_is_a_json_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        jsonschema.validate(error, ERROR_SCHEMA)
        assert error["error_code"] == "precondition"

    def test_mass_flag_sets_the_builtin_mass(self, capsys):
        code, out, _ = run_cli(capsys, "action", "--hamiltonian", "sho", "--mass", "2",
                               "--q-end", "1", "--t1", "1")
        assert code == 0
        report = load_report(out)
        assert report["parameters"]["hamiltonian"]["mass"] == 2.0
        # S = (m omega / 2) cot(omega t) (q0^2 + q1^2) - m omega q0 q1 / sin(omega t): cot 1
        # for m = 2, omega = 1, q 0 -> 1 in t = 1 (m = 1 would give half)
        assert report["results"]["S"] == pytest.approx(1.0 / math.tan(1.0), abs=1e-6)

    def test_zero_mass_is_a_precondition_error(self, capsys):
        error = run_error(capsys, 2, "action", "--hamiltonian", "sho", "--mass", "0")
        assert error["error_code"] == "precondition"
        assert "positive mass" in error["message"]

    def test_classify_infeasible_target_exits_1(self, capsys):
        # a free particle reaches q = 100 in t = 0.01 only at p = 1e4, beyond the
        # scan's |p| <= BRACKET_RANGE = 1e3
        error = run_error(capsys, 1, "classify", "--hamiltonian", "free", "--q-end", "100",
                          "--t1", "0.01")
        assert error["error_code"] == "numeric"
        assert "infeasible" in error["message"]

    def test_solve_that_blows_up_exits_1(self, capsys):
        # m = 1e-20 gives the saddle a growth rate sqrt(k / m) = 1e10, so the RK4
        # step map of t = 0.1 grows by ~1e34 a step and the flow overflows at node 9
        error = run_error(capsys, 1, "action", "--hamiltonian", "saddle-quadratic",
                          "--mass", "1e-20", "--N", "10")
        assert error["error_code"] == "blow-up"
        assert error["message"] == "non-finite state at node 9"

    def test_infeasible_free_target_reported_at_zero_momentum(self, capsys):
        # every scanned momentum misses q = 1e200 by the same rounded residual
        code, out, _ = run_cli(capsys, "action", "--hamiltonian", "free", "--q-end", "1e200",
                               "--N", "50")
        assert code == 0
        results = load_report(out)["results"]
        assert results["bvp_flag"] == "infeasible"
        assert results["initial_momentum"] == 0.0

    def test_overflowed_cyclic_line_has_no_valid_node(self, capsys):
        # H(1e300) overflows on the line p_f = p_i, so no node has a residual
        code, out, _ = run_cli(capsys, "hj-check", "--which", "r", "--hamiltonian", "free",
                               "--start", "1e300", "--grid-min", "1e300", "--grid-max", "1e300",
                               "--grid-count", "1", "--t-count", "3", "--N", "100")
        assert code == 0
        results = load_report(out)["results"]
        assert results["valid_nodes"] == 0 and results["total_nodes"] == 3
        assert results["max_abs_residual"] is None

    def test_undefined_cyclic_companion_is_null(self, capsys):
        code, out, _ = run_cli(capsys, "hj-check", "--hamiltonian", "free", "--which", "r",
                               "--start", "1.0", "--grid-min", "0.5", "--grid-max", "1.5",
                               "--grid-count", "3", "--t-count", "3", "--N", "200")
        assert code == 0
        report = load_report(out)
        assert report["results"]["max_abs_companion"] is None
        assert report["results"]["max_abs_residual"] <= 1e-8
        assert report["results"]["valid_nodes"] == 3


class TestConfigIngestion:
    def test_ini_hamiltonian_section(self, capsys, tmp_path):
        cfg = tmp_path / "model.ini"
        cfg.write_text(
            "[hamiltonian]\nkind = separable\nmass = 2.0\npotential_coeffs = 0, 0, 0.5\n"
        )
        code, out, _ = run_cli(capsys, "classify", "--config", str(cfg), "--N", "300",
                               "--t1", "0.8")
        assert code == 0
        report = load_report(out)
        assert report["parameters"]["hamiltonian"]["mass"] == 2.0
        assert report["results"]["classification"] == "indefinite"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "model.ini"
        cfg.write_text("[hamiltonian]\nbuiltin = sho\n")
        code, out, _ = run_cli(capsys, "classify", "--config", str(cfg),
                               "--hamiltonian", "saddle-quadratic", "--N", "300")
        assert code == 0
        assert load_report(out)["results"]["classification"] == "minimum"

    @pytest.mark.parametrize("model_args", [
        ("--config", "{nan_mass_ini}"),
        ("--potential-coeffs", "0,0,inf"),
        ("--potential-coeffs", "0,nan"),
    ])
    def test_non_finite_model_is_a_json_error(self, capsys, tmp_path, model_args):
        cfg = tmp_path / "model.ini"
        cfg.write_text(
            "[hamiltonian]\nkind = separable\nmass = nan\npotential_coeffs = 0, 0, 0.5\n"
        )
        argv = [arg.format(nan_mass_ini=cfg) for arg in model_args]
        code, out, err = run_cli(capsys, "classify", *argv)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        jsonschema.validate(error, ERROR_SCHEMA)
        assert error["error_code"] == "precondition"

    @pytest.mark.parametrize("ini, message", [
        ("kind = separable\nmass = 2\n", "needs potential_coeffs"),
        ("kind = general\n", "cannot build hamiltonian of kind 'general'"),
        ("builtin = sho\nomega = fast\n", "cannot parse the hamiltonian spec"),
    ], ids=["separable-without-coefficients", "general", "unparsable-value"])
    def test_unusable_config_is_a_precondition_error(self, capsys, tmp_path, ini, message):
        cfg = tmp_path / "model.ini"
        cfg.write_text("[hamiltonian]\n" + ini)
        error = run_error(capsys, 2, "classify", "--config", str(cfg))
        assert error["error_code"] == "precondition"
        assert message in error["message"]

    def test_missing_config_errors(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--config", "/nonexistent.ini")
        assert code == 2

    def test_potential_coeffs_flag(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--potential-coeffs", "0,0,-0.5",
                               "--N", "300")
        assert code == 0
        assert load_report(out)["results"]["classification"] == "minimum"

    def test_log_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("DUALACTION_LOG", "INFO")
        code, out, _ = run_cli(capsys, "spin", "--N", "2")
        assert code == 0


def _cold_run(argv):
    """A fresh `python -m dualaction` run, logging left unconfigured."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("DUALACTION_LOG", None)
    return subprocess.run([sys.executable, "-m", "dualaction", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def _cold_error(argv, exit_code=1):
    """The JSON error of a fresh run that must fail with exit_code, nothing
    on stdout and nothing but the error on stderr."""
    proc = _cold_run(argv)
    assert proc.returncode == exit_code
    assert proc.stdout == ""
    error = json.loads(proc.stderr)  # one JSON object and nothing else
    jsonschema.validate(error, ERROR_SCHEMA)
    return error


def test_stderr_carries_only_the_json_error():
    # a Newton lane that blows up used to print a RuntimeWarning first, and
    # the error log line reached stderr through logging's last-resort handler
    argv = ["classify", "--potential-coeffs", "0,0,0,0,0,0,0,0,0,0,0,0,0,1e300", "--q-end", "5"]
    assert _cold_error(argv)["error_code"] == "numeric"


def test_flow_past_float_range_prints_no_warning():
    # growth e^2000 overflows the scan residuals and the RK4 step-map powers
    argv = ["classify", "--hamiltonian", "saddle-quadratic", "--q-end", "1", "--t1", "2000"]
    assert _cold_error(argv)["error_code"] == "blow-up"


@pytest.mark.parametrize("spec", [
    ["--potential-coeffs", "1,,2"],
    ["--potential-coeffs", ""],
    "[hamiltonian]\nkind = separable\nmass = abc\npotential_coeffs = 0, 0, 1\n",
    "[hamiltonian]\nkind = separable\npotential_coeffs = 0, x\n",
    "[hamiltonian\nkind = separable\n",
    "[hamiltonian]\nkind = separable\npotential_coeffs =\n",
], ids=["empty-coefficient", "empty-flag", "ini-mass", "ini-coefficient", "ini-header",
        "ini-empty"])
def test_unparsable_model_spec_is_a_json_error(spec, tmp_path):
    if isinstance(spec, str):
        config = tmp_path / "model.ini"
        config.write_text(spec)
        spec = ["--config", str(config)]
    assert _cold_error(["classify", *spec], exit_code=2)["error_code"] == "precondition"


@pytest.mark.parametrize("which, model", [
    ("s", "sho"), ("r", "sho"), ("s", "saddle-quadratic"), ("r", "saddle-quadratic"),
    ("r", "free"),
])
def test_masked_overflowed_surface_prints_no_warning(which, model):
    # every lane started at 1e300 overflows; all are masked, so the run is quiet
    proc = _cold_run(["hj-check", "--which", which, "--hamiltonian", model, "--start", "1e300",
                      "--grid-count", "3", "--t-count", "3", "--N", "100"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    results = json.loads(proc.stdout)["results"]
    assert results["valid_nodes"] == 0
    assert results["max_abs_residual"] is None and results["max_abs_companion"] is None


def test_import_loads_no_scipy():
    # scipy's import alone used to be most of every CLI call's start-up time,
    # numpy.polynomial's a few milliseconds more; numpy.fft (about 2 ms)
    # loads on the first chirp-z endpoint transform, not at import
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    check = (
        "import dualaction, sys; "
        "assert 'scipy' not in sys.modules; assert 'numpy.polynomial' not in sys.modules; "
        "assert 'numpy.fft' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", check], env=env, check=True)


def _per_sample_legendre(model, amp_p, amp_q, n):
    """The reference: one smooth path per sample, each series the row a block
    builds for it (padded_row_series), within a few ulp of its modes added
    in k order."""
    tt = np.linspace(0.0, 1.0, n + 1)
    sines = [np.sin(np.pi * (k + 1) * tt) for k in range(amp_p.shape[1])]
    cosines = [np.cos(np.pi * (k + 1) * tt) for k in range(amp_q.shape[1])]
    out = []
    for a_p, a_q in zip(amp_p, amp_q):
        p = 0.3 + padded_row_series([a / (k + 1) ** 3 for k, a in enumerate(a_p)], sines)
        q = padded_row_series([a / (k + 1) ** 3 for k, a in enumerate(a_q)], cosines)
        out.append(abs(legendre_residual(model, PhasePath(0.0, 1.0, p, q))))
    return out


@pytest.mark.parametrize("model", [
    HamiltonianModel.free(), HamiltonianModel.sho(2.0, 0.7), HamiltonianModel.saddle_quadratic(),
    HamiltonianModel.separable(1.3, (0.1, 0.2, 0.3, 0.4)),
], ids=["free", "sho", "saddle", "quartic"])
@pytest.mark.parametrize("samples, n", [(1, 2), (19, 131), (8, 2000), (37, 500)])
def test_legendre_blocks_equal_the_per_sample_loop(model, samples, n):
    rng = np.random.default_rng(samples * n)
    amp_p, amp_q = rng.normal(size=(2, samples, 4)) * 0.25
    assert np.array_equal(_legendre_residuals(model, amp_p, amp_q, n),
                          _per_sample_legendre(model, amp_p, amp_q, n))


def _cold_modules(code):
    """The dualaction modules loaded by a fresh interpreter that runs code."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    check = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {code}\n"
        "print(' '.join(m for m in sys.modules if m.startswith('dualaction')))"
    )
    proc = subprocess.run([sys.executable, "-c", check], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return set(proc.stdout.split())


def test_package_import_loads_no_submodule():
    assert _cold_modules("import dualaction") == {"dualaction"}
    # a submodule's name imports that submodule and the ones it imports
    assert _cold_modules("import dualaction; dualaction.propagator.SliceScheme") == {
        "dualaction", "dualaction.propagator", "dualaction.errors", "dualaction.model",
        "dualaction.series"}


_SOLVERS = {f"dualaction.{m}" for m in ("dynamics", "action", "bounds", "extrema")}


_UNUSED_BY_ACTION = {f"dualaction.{m}" for m in ("bounds", "extrema", "propagator")}


@pytest.mark.parametrize("argv, not_loaded", [
    (["spin", "--N", "4"], _SOLVERS | {"dualaction.propagator"}),
    (["propagate", "--rep", "momentum"], _SOLVERS),
    (["hj-check", "--hamiltonian", "free", "--grid-count", "3", "--t-count", "3"],
     _UNUSED_BY_ACTION),
    (["legendre-check", "--hamiltonian", "sho", "--samples", "2", "--N", "50"],
     _UNUSED_BY_ACTION),
    (["action", "--hamiltonian", "sho", "--N", "50"], _UNUSED_BY_ACTION),
    (["classify", "--hamiltonian", "saddle-quadratic", "--N", "50"],
     {"dualaction.bounds", "dualaction.propagator"}),
], ids=["spin", "propagate", "hj-check", "legendre-check", "action", "classify"])
def test_cold_command_loads_only_its_modules(argv, not_loaded):
    # a cold CLI call pays the import of every module it loads
    loaded = _cold_modules(f"from dualaction.cli import main; main({argv!r})")
    assert "dualaction.cli" in loaded and not loaded & not_loaded, sorted(loaded & not_loaded)


def test_package_exports_resolve_to_their_submodules():
    assert set(dualaction.__all__) <= set(dir(dualaction))
    for name in dualaction.__all__:
        module = importlib.import_module(f"dualaction.{dualaction._MODULE_OF[name]}")
        assert getattr(dualaction, name) is getattr(module, name), name
        assert name in vars(dualaction)  # cached after the first lookup
    with pytest.raises(AttributeError):
        dualaction.no_such_name
