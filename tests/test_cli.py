import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dualaction
from dualaction import HamiltonianModel, PhasePath, legendre_residual
from dualaction.action import _legendre_residuals
from dualaction.cli import ERROR_SCHEMA, REPORT_SCHEMA, main
from dualaction.spin import POLICIES

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

    @pytest.mark.parametrize("argv, message", [
        (("--mass", "-1"), "separable kind requires a positive mass"),
        (("--potential-coeffs", "1,nan"), "potential coefficients must be finite"),
        (("--config", "/nonexistent.ini"), "config file not found: /nonexistent.ini"),
        (("--potential-coeffs", "abc"),
         "cannot parse the hamiltonian spec: could not convert string to float: 'abc'"),
    ], ids=["negative-mass", "nan-coefficient", "missing-config", "unparsable-coefficient"])
    def test_spin_still_checks_its_model_options(self, capsys, argv, message):
        # spin builds no model for the default spec, but any model option is built
        error = run_error(capsys, 2, "spin", *argv)
        assert error["error_code"] == "precondition"
        assert error["message"] == message

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


@pytest.mark.parametrize("argv, error_code", [
    # growth e^2000 overflows the scan residuals and the RK4 step-map powers
    (["classify", "--hamiltonian", "saddle-quadratic", "--q-end", "1", "--t1", "2000"],
     "blow-up"),
    # a horizon at the float range overflows the RK4 step times the field matrix
    (["bounds", "--potential-coeffs", "1.0,9.313203315072441e+26,-9803.324067967054",
      "--q-start", "0.47318965240115174", "--q-end", "-0.0", "--t1", "1.7976931348623157e+308",
      "--N", "15", "--samples", "13", "--epsilon", "6.54514034450093e-12"], "blow-up"),
    # a target at the float range overflows the scan residuals
    (["classify", "--potential-coeffs", "-16257503.151357545", "--q-start", "634.252606663473",
      "--q-end", "1.7976931348623157e+308", "--t1", "1.7976931348623157e+308", "--N", "51"],
     "numeric"),
    # a mass at the float range makes the momentum per unit velocity non-finite
    (["classify", "--mass", "1.7976931348623157e+308", "--q-start", "8.058002942570637e+26",
      "--q-end", "8.755788659765918e-13", "--t1", "1e+308", "--N", "47"], "blow-up"),
], ids=["saddle-growth", "huge-horizon", "huge-target", "huge-mass"])
def test_flow_past_float_range_prints_no_warning(argv, error_code):
    assert _cold_error(argv)["error_code"] == error_code


@pytest.mark.parametrize("argv", [
    ["spin", "--inertia", "5e-324"],  # the phase's divide overflows
    ["spin", "--l", "1e308"],  # the square overflows
    ["spin", "--spin", "composite", "--l0", "1e300", "--N", "10"],
    # Python's float ** raised OverflowError on these
    ["spin", "--l", "1e308", "--N", "30", "--use-closed-form"],
    ["spin", "--l", "1e308", "--N", "3", "--policy", "endpoint-filtered"],
    # the phase argument is infinite, where cmath.exp raises
    ["spin", "--t1", "1e308", "--inertia", "1e-300"],
    ["spin", "--t1", "1e308", "--inertia", "1e-300", "--N", "30", "--use-closed-form"],
    ["spin", "--spin", "composite", "--t1", "1e308", "--inertia", "1e-300", "--N", "10",
     "--policy", "endpoint-filtered"],
    # the horizon overflows, and a zero square times it is nan
    ["spin", "--spin", "composite", "--t0=-1e308", "--t1", "1e308"],
], ids=["tiny-inertia", "huge-l", "huge-l0", "huge-l-closed-form", "huge-l-filtered",
        "infinite-phase", "infinite-phase-closed-form", "infinite-phase-composite",
        "infinite-horizon"])
def test_spin_past_float_range_prints_no_warning(argv):
    assert _cold_error(argv, exit_code=2)["error_code"] == "non-finite"


@pytest.mark.parametrize("argv", [
    ["propagate", "--rep", "position", "--q-end", "1e308"],  # the action's square overflows
    ["propagate", "--mass", "5e-324", "--rep", "momentum"],  # the phase's divide overflows
    ["legendre-check", "--hamiltonian", "sho", "--mass", "5e-324", "--samples", "2", "--N", "10"],
], ids=["propagate-huge-end", "propagate-tiny-mass", "legendre-tiny-mass"])
def test_propagate_and_legendre_past_float_range_print_no_warning(argv):
    assert _cold_error(argv, exit_code=2)["error_code"] == "non-finite"


@pytest.mark.parametrize("argv", [
    ["bounds", "--hamiltonian", "saddle-quadratic", "--epsilon", "1e308"],
    ["bounds", "--potential-coeffs", "0,0,-0.5,0,-0.05", "--N", "10", "--epsilon", "1e308"],
], ids=["quadratic-form", "blocked"])
def test_bounds_past_float_range_is_non_finite(argv):
    # every sample's margin is a violation, and the nan worst margin ends the report
    assert _cold_error(argv, exit_code=2)["error_code"] == "non-finite"


@pytest.mark.parametrize("argv", [
    ["hj-check", "--grid-min=-1e308", "--grid-max", "1e308"],
    ["hj-check", "--t-min=-1e308", "--t-max", "1e308"],
    ["propagate", "--grid-min=-1e308", "--grid-max", "1e308", "--format", "csv", "--out",
     os.devnull],
], ids=["hj-check-grid", "hj-check-times", "propagate-grid"])
def test_span_past_float_range_is_a_precondition_error(argv):
    # np.linspace over such a span printed RuntimeWarnings and gave nan and inf nodes
    error = _cold_error(argv, exit_code=2)
    assert error["error_code"] == "precondition" and "float range" in error["message"]


# the whole float range, nan and infinities included, with its ends drawn more often
_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([5e-324, -5e-324, 1e308, -1e308]))


@settings(max_examples=200)
@given(composite=st.booleans(), n=st.integers(1, 25), policy=st.sampled_from(POLICIES),
       closed_form=st.booleans(), l=_ANY_FLOAT, l0=_ANY_FLOAT, inertia=_ANY_FLOAT,
       t0=_ANY_FLOAT, t1=_ANY_FLOAT, signs=st.sampled_from(["++", "+-", "-+", "--"]),
       # a composite end is a float, or k in {2, 0, -2} for the level k l0
       ends=st.tuples(*[st.one_of(_ANY_FLOAT, st.sampled_from([2, 0, -2]))] * 2))
# these printed a RuntimeWarning (overflow in square, in divide) before the JSON error
@example(composite=True, n=1, policy="paper-unconstrained", closed_form=False, l=0.0,
         l0=6.703903964971299e+153, inertia=1.0, t0=0.0, t1=0.0, signs="++", ends=(0.0, 0.0))
@example(composite=False, n=1, policy="paper-unconstrained", closed_form=False, l=0.0, l0=0.0,
         inertia=5e-324, t0=0.0, t1=0.0, signs="++", ends=(0.0, 0.0))
# and these ended in an OverflowError from Python's float **
@example(composite=False, n=25, policy="paper-unconstrained", closed_form=True, l=1e308,
         l0=0.5, inertia=1.0, t0=0.0, t1=1.0, signs="++", ends=(1.0, 1.0))
@example(composite=False, n=3, policy="endpoint-filtered", closed_form=False, l=1e308, l0=0.5,
         inertia=1.0, t0=0.0, t1=1.0, signs="+-", ends=(1.0, 1.0))
@example(composite=True, n=12, policy="endpoint-filtered", closed_form=True, l=1.0, l0=1e200,
         inertia=1.0, t0=0.0, t1=1.0, signs="++", ends=(2, -2))
def test_spin_run_ends_in_a_report_or_a_json_error(composite, n, policy, closed_form, l, l0,
                                                   inertia, t0, t1, signs, ends):
    l_i, l_f = (k * l0 if isinstance(k, int) else k for k in ends)
    floats = {"--l": l, "--l0": l0, "--l-i": l_i, "--l-f": l_f, "--inertia": inertia,
              "--t0": t0, "--t1": t1}
    argv = ["spin", "--spin", "composite" if composite else "half",
            "--N", str(1 + (n - 1) % 12 if composite else n), "--policy", policy,
            f"--sign-i={signs[0]}", f"--sign-f={signs[1]}",
            *[f"{flag}={value!r}" for flag, value in floats.items()]]
    if closed_form:
        argv.append("--use-closed-form")
    _ends_in_a_report_or_a_json_error(argv, floats.values())


def _ends_in_a_report_or_a_json_error(argv, floats, error_exits=(2,)):
    """Run argv in process: it must end in a finite report (exit 0), a JSON
    error (exit 2, or another of error_exits) or, when one of its float
    options is not finite, argparse's "must be finite" usage error;
    returns the report or None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if not all(map(math.isfinite, floats)):
            with pytest.raises(SystemExit) as exc:  # a usage error, as for every command
                main(argv)
            assert exc.value.code == 2 and "must be finite" in err.getvalue()
            return None
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        return load_report(out.getvalue())  # strict JSON: every value in it is finite
    assert code in error_exits and out.getvalue() == ""
    jsonschema.validate(json.loads(err.getvalue()), ERROR_SCHEMA)
    return None


@settings(max_examples=200)
@given(rep=st.sampled_from(["position", "momentum"]),
       model=st.sampled_from(dualaction.BUILTIN_NAMES), slices=st.integers(-1, 16),
       grid_count=st.integers(1, 9), csv=st.booleans(),
       floats=st.fixed_dictionaries({flag: _ANY_FLOAT for flag in (
           "--mass", "--t0", "--t1", "--q-start", "--q-end", "--p-start", "--p-end",
           "--grid-min", "--grid-max")}))
# these printed numpy RuntimeWarnings: the first two before their non-finite JSON error, the
# third while writing its CSV series
@example(rep="position", model="free", slices=16, grid_count=9, csv=False,
         floats={"--mass": 1.0, "--t0": 0.0, "--t1": 1.0, "--q-start": 0.0, "--q-end": 1e308,
                 "--p-start": 1.0, "--p-end": 1.0, "--grid-min": -3.0, "--grid-max": 3.0})
@example(rep="momentum", model="free", slices=16, grid_count=9, csv=False,
         floats={"--mass": 5e-324, "--t0": 0.0, "--t1": 1.0, "--q-start": 0.0, "--q-end": 1.0,
                 "--p-start": 1.0, "--p-end": 1.0, "--grid-min": -3.0, "--grid-max": 3.0})
@example(rep="position", model="sho", slices=16, grid_count=9, csv=True,
         floats={"--mass": 1.0, "--t0": 0.0, "--t1": 1.0, "--q-start": 0.0, "--q-end": 1.0,
                 "--p-start": 1.0, "--p-end": 1.0, "--grid-min": -1e308, "--grid-max": 1e308})
# a short horizon was a caustic, the determinant being held to an absolute tolerance,
# and a slice width that underflows divided by zero
@example(rep="position", model="free", slices=1, grid_count=1, csv=False,
         floats={"--mass": 1.0, "--t0": 0.0, "--t1": 1.690037626896811e-145, "--q-start": 0.0,
                 "--q-end": 0.0, "--p-start": 0.0, "--p-end": 0.0, "--grid-min": 0.0,
                 "--grid-max": 0.0})
@example(rep="position", model="free", slices=16, grid_count=1, csv=False,
         floats={"--mass": 1.0, "--t0": 0.0, "--t1": 5e-324, "--q-start": 0.0,
                 "--q-end": 0.0, "--p-start": 0.0, "--p-end": 0.0, "--grid-min": 0.0,
                 "--grid-max": 0.0})
def test_propagate_run_ends_in_a_report_or_a_json_error(rep, model, slices, grid_count, csv,
                                                       floats):
    argv = ["propagate", "--rep", rep, "--hamiltonian", model, "--slices", str(slices),
            "--grid-count", str(grid_count),
            *[f"{flag}={value!r}" for flag, value in floats.items()]]
    with tempfile.TemporaryDirectory() as tmp:
        series = Path(tmp) / "series.csv"
        if csv:
            argv += ["--format", "csv", "--out", str(series)]
        report = _ends_in_a_report_or_a_json_error(argv, floats.values())
        if csv and report and report["results"]["variant"] == "regular":
            assert len(series.read_text().splitlines()) == 1 + grid_count


@settings(max_examples=200)
@given(which=st.sampled_from(["s", "r"]), model=st.sampled_from(dualaction.BUILTIN_NAMES),
       n=st.integers(1, 40), grid_count=st.integers(1, 5), t_count=st.integers(1, 5),
       csv=st.booleans(),
       floats=st.fixed_dictionaries({
           **{flag: _ANY_FLOAT for flag in (
               "--mass", "--start", "--grid-min", "--grid-max", "--t-min", "--t-max")},
           # a step that is not positive is argparse's usage error, as --N 0 is
           "--fd-step": _ANY_FLOAT.filter(lambda x: not x <= 0.0)}))
# these printed numpy RuntimeWarnings, the first then reporting 15 valid nodes on a grid
# of nan and inf
@example(which="s", model="free", n=40, grid_count=5, t_count=5, csv=False,
         floats={"--mass": 1.0, "--start": 0.0, "--grid-min": -1e308, "--grid-max": 1e308,
                 "--t-min": 0.5, "--t-max": 1.5, "--fd-step": 1e-3})
@example(which="s", model="sho", n=40, grid_count=5, t_count=5, csv=True,
         floats={"--mass": 1.0, "--start": 0.0, "--grid-min": 0.5, "--grid-max": 1.5,
                 "--t-min": -1e308, "--t-max": 1e308, "--fd-step": 1e-3})
# and so did these: a finite span whose last step overflows before linspace sets the
# last node, and t - fd_step overflowing in the horizon check
@example(which="s", model="free", n=1, grid_count=4, t_count=1, csv=False,
         floats={"--mass": 1.0, "--start": 0.0, "--grid-min": 0.0,
                 "--grid-max": 1.7976931348623157e+308, "--t-min": 1.0, "--t-max": 1.0,
                 "--fd-step": 1e-3})
@example(which="s", model="free", n=1, grid_count=1, t_count=1, csv=False,
         floats={"--mass": 1.0, "--start": 0.0, "--grid-min": 0.0, "--grid-max": 0.0,
                 "--t-min": -1e308, "--t-max": 0.0, "--fd-step": 1e308})
# a tiny mass blows the cyclic R line up: exit 1
@example(which="r", model="free", n=1, grid_count=1, t_count=1, csv=False,
         floats={"--mass": 5e-324, "--start": 0.0, "--grid-min": 0.0, "--grid-max": 0.0,
                 "--t-min": 1.0, "--t-max": 0.0, "--fd-step": 5e-324})
def test_hj_check_run_ends_in_a_report_or_a_json_error(which, model, n, grid_count, t_count,
                                                       csv, floats):
    argv = ["hj-check", "--which", which, "--hamiltonian", model, "--N", str(n),
            "--grid-count", str(grid_count), "--t-count", str(t_count),
            *[f"{flag}={value!r}" for flag, value in floats.items()]]
    with tempfile.TemporaryDirectory() as tmp:
        series = Path(tmp) / "series.csv"
        if csv:
            argv += ["--format", "csv", "--out", str(series)]
        # exit 1: a cyclic R line whose path leaves the float range is a blow-up
        report = _ends_in_a_report_or_a_json_error(argv, floats.values(), error_exits=(1, 2))
        if csv and report:
            rows = len(series.read_text().splitlines())
            assert rows == 1 + report["results"]["valid_nodes"]


def _mostly(typical):
    """typical three draws in four, any float (_ANY_FLOAT) the fourth."""
    return st.one_of(typical, typical, typical, _ANY_FLOAT)


# the anharmonic saddles run the blocked route, saddle-quadratic the quadratic form; the
# other builtins and most coefficient lists end in an error before either.  Each float is
# typical three draws in four, so that about one run in six certifies
_SADDLE_COEFFS = [(0.0, 0.0, -0.5, 0.0, -0.05), (0.0, 0.0, -0.5, -0.05)]


@settings(max_examples=200)
@given(chain=st.sampled_from(["S-chain", "R-chain"]),
       model=st.one_of(st.just("saddle-quadratic"), st.sampled_from(_SADDLE_COEFFS),
                       st.sampled_from(dualaction.BUILTIN_NAMES),
                       st.lists(_ANY_FLOAT, min_size=1, max_size=5).map(tuple)),
       n=st.integers(1, 40), samples=st.integers(1, 8), modes=st.integers(-1, 8),
       seed=st.integers(-1, 2**64), csv=st.booleans(),
       floats=st.fixed_dictionaries({
           "--mass": _mostly(st.floats(0.5, 2.0)), "--t0": _mostly(st.just(0.0)),
           "--t1": _mostly(st.floats(0.5, 2.0)), "--q-start": _mostly(st.floats(-1.0, 1.0)),
           "--q-end": _mostly(st.floats(-1.5, 1.5)), "--epsilon": _mostly(st.floats(0.0, 0.5))}))
# these printed a RuntimeWarning: V' = 2e308 q overflowed building the model's derivatives,
# and the horizon t1 - t0 overflowed before the boundary-value solve
@example(chain="S-chain", model=(0.0, 0.0, 1e308), n=1, samples=1, modes=0, seed=0, csv=False,
         floats={"--mass": 5e-324, "--t0": 0.0, "--t1": 0.0, "--q-start": 0.0, "--q-end": 0.0,
                 "--epsilon": 0.0})
@example(chain="S-chain", model="free", n=1, samples=1, modes=0, seed=0, csv=False,
         floats={"--mass": 1.0, "--t0": 7.976931348623158e+307, "--t1": -1e308,
                 "--q-start": 0.0, "--q-end": 0.0, "--epsilon": 0.0})
# a negative seed ended in numpy's ValueError traceback; it is argparse's usage error now
@example(chain="S-chain", model="saddle-quadratic", n=10, samples=2, modes=8, seed=-1, csv=False,
         floats={"--mass": 1.0, "--t0": 0.0, "--t1": 1.0, "--q-start": 0.0, "--q-end": 1.0,
                 "--epsilon": 0.2})
# a mass at the float range sends the non-affine shooting's lanes past it: these printed
# RuntimeWarnings in _seed_path and _newton before their blow-up or non-finite error
@example(chain="S-chain", model=_SADDLE_COEFFS[0], n=2, samples=1, modes=0, seed=0, csv=False,
         floats={"--mass": 1e308, "--t0": 0.0, "--t1": 15058438410.0, "--q-start": 0.0,
                 "--q-end": -1.0, "--epsilon": 0.0})
@example(chain="S-chain", model=_SADDLE_COEFFS[0], n=1, samples=1, modes=0, seed=0, csv=False,
         floats={"--mass": 1e308, "--t0": 0.0, "--t1": 15058438410.0, "--q-start": 0.0,
                 "--q-end": -1.0, "--epsilon": 0.0})
@example(chain="S-chain", model=_SADDLE_COEFFS[0], n=1, samples=1, modes=0, seed=0, csv=False,
         floats={"--mass": 1e308, "--t0": 0.0, "--t1": 1.0, "--q-start": 0.0, "--q-end": 1.0,
                 "--epsilon": 0.0})
@example(chain="S-chain", model=_SADDLE_COEFFS[0], n=2, samples=1, modes=0, seed=0, csv=False,
         floats={"--mass": 1e308, "--t0": -15058438409.0, "--t1": 1.0, "--q-start": 1.0,
                 "--q-end": 0.0, "--epsilon": 0.0})
# and this overflowed in the certificate itself, whose perturbations have sup-norm 1e308
@example(chain="R-chain", model=_SADDLE_COEFFS[0], n=10, samples=4, modes=8, seed=0, csv=True,
         floats={"--mass": 1.0, "--t0": 0.0, "--t1": 1.0, "--q-start": 0.0, "--q-end": 1.0,
                 "--epsilon": 1e308})
def test_bounds_run_ends_in_a_report_or_a_json_error(chain, model, n, samples, modes, seed, csv,
                                                     floats):
    spec = (["--hamiltonian", model] if isinstance(model, str) else
            [f"--potential-coeffs={','.join(map(repr, model))}"])
    argv = ["bounds", "--chain", chain, *spec, "--N", str(n), "--samples", str(samples),
            "--modes", str(modes), "--seed", str(seed),
            *[f"{flag}={value!r}" for flag, value in floats.items()]]
    if seed < 0:
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        assert exc.value.code == 2
        return
    with tempfile.TemporaryDirectory() as tmp:
        series = Path(tmp) / "series.csv"
        if csv:
            argv += ["--format", "csv", "--out", str(series)]
        # exit 1: a solve that blows up, or a restriction without a root
        report = _ends_in_a_report_or_a_json_error(argv, floats.values(), error_exits=(1, 2))
        if csv and report:
            assert len(series.read_text().splitlines()) == 1 + samples


# a builtin, or a coefficient list that is non-affine past degree 2
_ANY_MODEL = st.one_of(st.sampled_from(dualaction.BUILTIN_NAMES),
                       st.lists(_ANY_FLOAT, min_size=1, max_size=5).map(tuple))
_PATH_FLOATS = st.fixed_dictionaries(
    {flag: _ANY_FLOAT for flag in ("--mass", "--t0", "--t1", "--q-start", "--q-end")})


def _model_argv(model):
    return (["--hamiltonian", model] if isinstance(model, str) else
            [f"--potential-coeffs={','.join(map(repr, model))}"])


def _path_run(command, model, n, csv, floats, extra=()):
    """Run a critical-path command (classify or action) on any floats; exit 1, a
    blow-up or an infeasible solve, is a JSON error too.  Returns the report or None
    and the series' row count."""
    argv = [command, *_model_argv(model), "--N", str(n), *extra,
            *[f"{flag}={value!r}" for flag, value in floats.items()]]
    with tempfile.TemporaryDirectory() as tmp:
        series = Path(tmp) / "series.csv"
        if csv:
            argv += ["--format", "csv", "--out", str(series)]
        report = _ends_in_a_report_or_a_json_error(argv, floats.values(), error_exits=(1, 2))
        rows = len(series.read_text().splitlines()) if csv and report else None
    return report, rows


@settings(max_examples=200)
@given(model=_ANY_MODEL, which=st.sampled_from(["S", "R"]), n=st.integers(1, 40),
       csv=st.booleans(), floats=_PATH_FLOATS)
# these printed numpy RuntimeWarnings before their non-finite JSON error: a mass that
# overflows the second variation's entries, and a horizon whose step underflows
@example(model="free", which="S", n=29, csv=False,
         floats={"--mass": 1e-300, "--t0": 0.0, "--t1": 1.0, "--q-start": 1.0, "--q-end": 1.0})
@example(model="constant-force", which="R", n=40, csv=False,
         floats={"--mass": 1e-300, "--t0": 0.0, "--t1": 5e-324, "--q-start": 0.0,
                 "--q-end": 0.0})
def test_classify_run_ends_in_a_report_or_a_json_error(model, which, n, csv, floats):
    report, rows = _path_run("classify", model, n, csv, floats, extra=["--which", which])
    if rows is not None:
        assert rows > 1


@settings(max_examples=200)
@given(model=_ANY_MODEL, n=st.integers(1, 40), csv=st.booleans(), floats=_PATH_FLOATS)
# these printed numpy RuntimeWarnings before their non-finite JSON error: a mass at the
# float range overflows p^2 in the quadrature, and a subnormal horizon divides by 0
@example(model="free", n=21, csv=False,
         floats={"--mass": 1e308, "--t0": 0.0, "--t1": 1.0, "--q-start": 0.0, "--q-end": 1.0})
@example(model="free", n=8, csv=False,
         floats={"--mass": 1.0, "--t0": 0.0, "--t1": 5e-324, "--q-start": 1.0, "--q-end": 1.0})
def test_action_run_ends_in_a_report_or_a_json_error(model, n, csv, floats):
    report, rows = _path_run("action", model, n, csv, floats)
    if rows is not None:
        assert rows == 1 + n + 1


@settings(max_examples=200)
@given(model=_ANY_MODEL, n=st.integers(2, 40), samples=st.integers(1, 4),
       seed=st.integers(0, 2**64), csv=st.booleans(), mass=_ANY_FLOAT)
def test_legendre_check_run_ends_in_a_report_or_a_json_error(model, n, samples, seed, csv,
                                                             mass):
    argv = ["legendre-check", *_model_argv(model), "--N", str(n), "--samples", str(samples),
            "--seed", str(seed), f"--mass={mass!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        series = Path(tmp) / "series.csv"
        if csv:
            argv += ["--format", "csv", "--out", str(series)]
        report = _ends_in_a_report_or_a_json_error(argv, [mass])
        if csv and report:
            assert len(series.read_text().splitlines()) == 1 + samples


def test_spin_past_the_cap_is_a_json_error():
    error = _cold_error(["spin", "--N", "25"], exit_code=2)
    assert error["error_code"] == "precondition"
    assert error["message"] == "N = 25 exceeds the enumeration cap 20; pass use_closed_form=True"


@pytest.mark.parametrize("argv", [
    ["spin", "--N", "20000", "--use-closed-form"],
    ["spin", "--N", "10000000000000000000", "--use-closed-form"],
], ids=["past-the-digit-limit", "huge"])
def test_spin_count_past_the_digit_limit_is_a_json_error(argv):
    # 2^N has more digits than int-to-str conversion allows (4300 by default), which
    # ended in a misleading non-finite error, or, for a huge N, in building 2^N for ever
    error = _cold_error(argv, exit_code=2)
    assert error["error_code"] == "precondition"
    largest = math.ceil(sys.get_int_max_str_digits() / math.log10(2)) - 1
    assert f"the largest N is {largest}" in error["message"]


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
    """The dualaction modules, and numpy, loaded by a fresh interpreter that runs code."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    check = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {code}\n"
        "print(' '.join(m for m in sys.modules if m.startswith('dualaction') or m == 'numpy'))"
    )
    proc = subprocess.run([sys.executable, "-c", check], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return set(proc.stdout.split())


def test_package_import_loads_no_submodule():
    assert _cold_modules("import dualaction") == {"dualaction"}
    # a submodule's name imports that submodule and the ones it imports
    assert _cold_modules("import dualaction; dualaction.propagator.SliceScheme") == {
        "dualaction", "dualaction.propagator", "dualaction.errors", "dualaction.model",
        "dualaction.series", "numpy"}


def test_cli_import_loads_no_numpy():
    assert _cold_modules("import dualaction.cli") == {
        "dualaction", "dualaction.cli", "dualaction.errors", "dualaction.spin"}


_SOLVERS = {f"dualaction.{m}" for m in ("dynamics", "action", "bounds", "extrema")}


_UNUSED_BY_SPIN = _SOLVERS | {"dualaction.propagator", "dualaction.model", "numpy"}
_UNUSED_BY_ACTION = {f"dualaction.{m}" for m in ("bounds", "extrema", "propagator")}


@pytest.mark.parametrize("argv, not_loaded", [
    # spin is pure Python, whether it enumerates, takes the closed form or stops at the cap
    (["spin", "--N", "25"], _UNUSED_BY_SPIN),
    (["spin", "--N", "4"], _UNUSED_BY_SPIN),
    (["spin", "--N", "20", "--policy", "endpoint-filtered"], _UNUSED_BY_SPIN),
    (["spin", "--spin", "composite", "--N", "10"], _UNUSED_BY_SPIN),
    (["spin", "--N", "30", "--use-closed-form"], _UNUSED_BY_SPIN),
    (["propagate", "--rep", "momentum"], _SOLVERS),
    (["hj-check", "--hamiltonian", "free", "--grid-count", "3", "--t-count", "3"],
     _UNUSED_BY_ACTION),
    (["legendre-check", "--hamiltonian", "sho", "--samples", "2", "--N", "50"],
     _UNUSED_BY_ACTION),
    (["action", "--hamiltonian", "sho", "--N", "50"], _UNUSED_BY_ACTION),
    (["classify", "--hamiltonian", "saddle-quadratic", "--N", "50"],
     {"dualaction.bounds", "dualaction.propagator"}),
], ids=["spin-cap", "spin", "spin-filtered", "spin-composite", "spin-closed-form",
        "propagate", "hj-check", "legendre-check", "action", "classify"])
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
