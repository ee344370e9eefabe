"""cli-cold: one fresh ``python -m dualaction`` process per request.

The commands are the start-up dominated ones: the README ``propagate``
and ``spin`` examples, a position-kernel CSV, filtered spin-1/2 at N = 20,
the composite spin at N = 10, the README ``legendre-check`` and one
precondition error.  Import, argument handling, report and CSV writing
and spin enumeration do most of the work, so this is where the scipy
import cost shows.  Requests are timed including interpreter start-up,
because every CLI user pays it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

from dualaction import (
    HamiltonianModel, SliceScheme, cli, composite_spin_propagator, position_kernel_sampler,
    sliced_momentum_propagator, sliced_position_propagator, spin_half_propagator,
)
from dualaction.spin import composite_closed_form, spin_half_closed_form

from common import Request, Verdict, judge, round_rng, uniform
from models import free_position_kernel, sho_momentum_kernel

SALT = 4
QUARTER = 0.7853981633974483
SPIN_TOL = 1e-12            # acceptance criterion 9
KERNEL_TOL = 1e-5           # 512-slice oscillator chain vs continuum (error ~1e-7)
FREE_KERNEL_TOL = 1e-9      # the free chain is exact
LEGENDRE_TOL, LEGENDRE_SHRINK = 1e-6, 3.5
GRID_COUNT = 201            # propagate --grid-count default
SERIES_PATH = "perfbench/results/cli-cold-series.csv"   # relative to the checkout root

CELLS = ("propagate-momentum", "spin-readme", "propagate-csv", "spin-filtered",
         "spin-composite", "legendre-check", "spin-cap-error")


def _fmt(x):
    return repr(float(x))


def build_round(seed, round_index, tracer=None):
    rng = round_rng(seed, round_index, SALT)
    out = []
    for i, cell in enumerate(CELLS):
        if cell == "propagate-momentum":
            spec = {"p_i": uniform(rng, -0.5, 0.5), "p_f": uniform(rng, -0.5, 0.5), "t": QUARTER}
            argv = ["propagate", "--hamiltonian", "sho", "--rep", "momentum", "--slices", "512",
                    "--p-start", _fmt(spec["p_i"]), "--p-end", _fmt(spec["p_f"]),
                    "--t1", _fmt(spec["t"])]
        elif cell == "spin-readme":
            spec = {"N": 4, "policy": "paper-unconstrained", "l": uniform(rng, 0.5, 1.5),
                    "t": uniform(rng, 0.5, 2.0), "inertia": 1.0, "sign_i": "+", "sign_f": "+"}
            argv = ["spin", "--N", "4", "--policy", spec["policy"], "--l", _fmt(spec["l"]),
                    "--t1", _fmt(spec["t"])]
        elif cell == "propagate-csv":
            spec = {"q_i": uniform(rng, -0.5, 0.5), "q_f": uniform(rng, 0.5, 1.5),
                    "t": uniform(rng, 0.5, 1.5), "series": SERIES_PATH}
            argv = ["propagate", "--rep", "position", "--format", "csv", "--out", SERIES_PATH,
                    "--q-start", _fmt(spec["q_i"]), "--q-end", _fmt(spec["q_f"]),
                    "--t1", _fmt(spec["t"])]
        elif cell == "spin-filtered":
            signs = ("+", "-")
            spec = {"N": 20, "policy": "endpoint-filtered", "l": uniform(rng, 0.5, 1.5),
                    "t": uniform(rng, 0.5, 2.0), "inertia": uniform(rng, 0.5, 2.0),
                    "sign_i": signs[int(rng.integers(2))], "sign_f": signs[int(rng.integers(2))]}
            argv = ["spin", "--N", "20", "--policy", spec["policy"], "--l", _fmt(spec["l"]),
                    "--t1", _fmt(spec["t"]), "--inertia", _fmt(spec["inertia"]),
                    "--sign-i", spec["sign_i"], "--sign-f", spec["sign_f"]]
        elif cell == "spin-composite":
            spec = {"N": 10, "l0": uniform(rng, 0.25, 0.75), "t": uniform(rng, 0.5, 2.0),
                    "inertia": uniform(rng, 0.5, 2.0)}
            argv = ["spin", "--spin", "composite", "--N", "10", "--l0", _fmt(spec["l0"]),
                    "--t1", _fmt(spec["t"]), "--inertia", _fmt(spec["inertia"])]
        elif cell == "legendre-check":
            spec = {"seed": int(rng.integers(2**31))}
            argv = ["legendre-check", "--hamiltonian", "sho", "--samples", "100", "--N", "2000",
                    "--seed", str(spec["seed"])]
        else:
            spec = {"t": uniform(rng, 0.5, 2.0)}
            argv = ["spin", "--N", "25", "--t1", _fmt(spec["t"])]
        spec["argv"] = argv
        out.append(Request(f"cli-cold.{round_index}.{i}", cell, spec))
    return out


def _series_bytes(spec):
    path = spec.get("series")
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def run(request, tr):
    """Fresh interpreter per request: start-up is part of the latency."""
    proc = subprocess.run(
        [sys.executable, "-m", "dualaction", *request.spec["argv"]],
        capture_output=True, text=True, timeout=120, check=False,
    )
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def trace(request, tr):
    """In-process form: cli.main, then the layer calls behind the command."""
    spec = request.spec
    stdout, stderr = io.StringIO(), io.StringIO()
    with tr.span("cli.main") as sp:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(spec["argv"])
        sp["attrs"]["report_bytes"] = len(stdout.getvalue().encode())
        sp["attrs"]["series_bytes"] = _series_bytes(spec)
    _layer_calls(request, tr)
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _layer_calls(request, tr):
    spec, cell = request.spec, request.kind
    if cell == "propagate-momentum":
        with tr.span("propagator.chain"):
            sliced_momentum_propagator(HamiltonianModel.sho(), spec["p_i"], spec["p_f"],
                                       spec["t"], SliceScheme(512))
    elif cell == "propagate-csv":
        free = HamiltonianModel.free()
        with tr.span("propagator.chain"):
            sliced_position_propagator(free, spec["q_i"], spec["q_f"], spec["t"], SliceScheme(512))
            sampler = position_kernel_sampler(free, spec["t"], SliceScheme(512))
            grid = np.linspace(-3.0, 3.0, GRID_COUNT)
            sampler(grid, np.full_like(grid, spec["q_i"]))
    elif cell in ("spin-readme", "spin-filtered"):
        with tr.span("spin.enum", paths=2 ** spec["N"]):
            spin_half_propagator(spec["inertia"], spec["l"], spec["sign_i"], spec["sign_f"],
                                 spec["t"], spec["N"], policy=spec["policy"])
    elif cell == "spin-composite":
        with tr.span("spin.enum", paths=4 ** spec["N"]):
            composite_spin_propagator(spec["inertia"], spec["l0"], 1.0, 1.0, spec["t"], spec["N"])


def _report(out, command):
    """Parsed report and problems with it (schema, command, status)."""
    import jsonschema  # verifier only: kept out of the measured set-up
    try:
        report = json.loads(out["stdout"])
    except json.JSONDecodeError:
        return None, ["stdout is not one JSON report"]
    try:
        jsonschema.validate(report, cli.REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        return None, [f"report fails REPORT_SCHEMA: {exc.message}"]
    if report["command"] != command:
        return None, [f"report for {report['command']}, expected {command}"]
    return report["results"], []


def _check_error(out):
    import jsonschema
    if out["rc"] == 0:
        return judge(["exit 0 where a precondition error was due"], presented_valid=True)
    if out["rc"] != 2:
        return Verdict("failed", (f"exit {out['rc']}, expected 2",))
    problems = []
    try:
        err = json.loads(out["stderr"].strip().splitlines()[-1])
        jsonschema.validate(err, cli.ERROR_SCHEMA)
        if err["error_code"] != "precondition":
            problems.append(f"error_code {err['error_code']!r}, expected 'precondition'")
    except (json.JSONDecodeError, IndexError, jsonschema.ValidationError) as exc:
        problems.append(f"no JSON error on stderr ({type(exc).__name__})")
    if out["stdout"]:
        problems.append("report printed on a precondition error")
    return judge(problems, presented_valid=True)


def _check_csv(spec, res):
    problems = []
    with open(spec["series"], newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["q_f", "re", "im"] or len(rows) != GRID_COUNT + 1:
        return ["kernel CSV has the wrong header or row count"]
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    want = free_position_kernel(1.0, data[:, 0], spec["q_i"], spec["t"])
    err = float(np.max(np.abs(data[:, 1] + 1j * data[:, 2] - want)))
    if not err <= FREE_KERNEL_TOL:
        problems.append(f"kernel CSV off the closed form by {err:.3e}")
    point = complex(res["re"], res["im"])
    want_point = complex(free_position_kernel(1.0, spec["q_f"], spec["q_i"], spec["t"]))
    if not abs(point - want_point) <= FREE_KERNEL_TOL:
        problems.append("propagator value off the free closed form")
    return problems


def check(request, out):
    spec, cell = request.spec, request.kind
    if cell == "spin-cap-error":
        return _check_error(out)
    if out["rc"] != 0:
        return Verdict("failed", (f"exit {out['rc']}: {out['stderr'].strip()[-200:]}",))
    res, problems = _report(out, spec["argv"][0])
    if problems:
        return judge(problems, presented_valid=True)
    if cell == "propagate-momentum":
        want = sho_momentum_kernel(1.0, 1.0, spec["p_i"], spec["p_f"], spec["t"])
        err = abs(complex(res["re"], res["im"]) - want)
        if not err <= KERNEL_TOL:
            problems.append(f"momentum kernel off the closed form by {err:.3e}")
    elif cell == "propagate-csv":
        problems += _check_csv(spec, res)
    elif cell in ("spin-readme", "spin-filtered"):
        want = spin_half_closed_form(spec["inertia"], spec["l"], spec["sign_i"], spec["sign_f"],
                                     spec["t"], spec["N"], spec["policy"])
        if not abs(complex(res["re"], res["im"]) - want) <= SPIN_TOL:
            problems.append("spin-1/2 amplitude off the closed form")
        if res["path_count"] != 2 ** spec["N"]:
            problems.append(f"path_count {res['path_count']}")
    elif cell == "spin-composite":
        want = composite_closed_form(spec["inertia"], spec["l0"], 1.0, 1.0, spec["t"], spec["N"])
        if not abs(complex(res["re"], res["im"]) - want) <= SPIN_TOL:
            problems.append("composite amplitude off the closed form")
        if res["path_count"] != 4 ** spec["N"]:
            problems.append(f"path_count {res['path_count']}")
    else:
        if not res["max_residual"] <= LEGENDRE_TOL:
            problems.append(f"Legendre residual {res['max_residual']:.3e} > {LEGENDRE_TOL:g}")
        if not res["shrink_factor"] >= LEGENDRE_SHRINK:
            problems.append(f"shrink factor {res['shrink_factor']:.3f} < {LEGENDRE_SHRINK}")
    if not all(math.isfinite(v) for v in res.values() if isinstance(v, float)):
        problems.append("non-finite value in the report")
    return judge(problems, presented_valid=True)
