"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from spans import COUNT_METRICS, NullTracer, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, certify, cli_cold, paths  # noqa: E402


def _specs(workload, seed, round_index):
    return json.dumps([(r.id, r.kind, r.spec) for r in
                       WORKLOADS[workload].build_round(seed, round_index)], sort_keys=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_requests(workload):
    assert _specs(workload, 5, 1) == _specs(workload, 5, 1)
    assert _specs(workload, 5, 1) != _specs(workload, 6, 1)
    assert _specs(workload, 5, 1) != _specs(workload, 5, 2)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rounds_keep_the_same_cells(workload):
    kinds = [[r.kind for r in WORKLOADS[workload].build_round(seed, k)]
             for seed, k in ((1, 0), (2, 3), (9, 1))]
    assert kinds[0] == kinds[1] == kinds[2]


def _first(workload, kind, seed=3):
    return next(r for r in WORKLOADS[workload].build_round(seed, 0) if r.kind == kind)


def test_paths_verifier_rejects_shifted_action():
    req = _first("paths", "pos/sho")
    out = paths.run(req, NullTracer())
    assert paths.check(req, out).status == "ok"
    bad = paths.check(req, dict(out, S=out["S"] + 1e-3))
    assert bad.status == "wrong"
    assert any("Legendre" in r for r in bad.reasons)
    assert paths.check(req, dict(out, verdict_S="minimum")).status == "wrong"
    assert paths.check(req, dict(out, parameter=out["parameter"] * (1 + 1e-4))).status == "wrong"


def test_paths_counts_known_failures_as_failed():
    req = _first("paths", "pos/free")          # mass 1e-3: solved
    heavy = [r for r in paths.build_round(3, 0) if r.kind == "pos/free"][1]   # mass 1e5
    assert paths.check(req, paths.run(req, NullTracer())).status == "ok"
    verdict = paths.check(heavy, paths.run(heavy, NullTracer()))
    assert verdict.status == "failed"
    assert verdict.reasons == ("solver flagged infeasible",)


def test_certify_verifier_rejects_bound_past_critical_value():
    req = _first("certify", "bounds/saddle-quadratic/S-chain")
    out = certify.run(req, NullTracer())
    assert certify.check(req, out).status == "ok"
    cert = out["cert"]
    lower = cert.lower_values.copy()
    lower[0] = cert.critical_value + 1e-3          # G(Pi) above S: a violation
    forged = dataclasses.replace(cert, lower_values=lower)
    assert certify.check(req, dict(out, cert=forged)).status == "wrong"
    shifted = dataclasses.replace(cert, critical_value=cert.critical_value + 1e-3)
    assert certify.check(req, dict(out, cert=shifted)).status == "wrong"


def test_cli_verifier_rejects_corrupted_reports():
    req = _first("cli-cold", "spin-readme")
    out = cli_cold.trace(req, NullTracer())
    assert cli_cold.check(req, out).status == "ok"
    report = json.loads(out["stdout"])
    report["results"]["re"] += 1e-9
    assert cli_cold.check(req, dict(out, stdout=json.dumps(report))).status == "wrong"
    del report["status"]
    assert cli_cold.check(req, dict(out, stdout=json.dumps(report))).status == "wrong"

    err = _first("cli-cold", "spin-cap-error")
    out = cli_cold.trace(err, NullTracer())
    assert out["rc"] == 2
    assert cli_cold.check(err, out).status == "ok"
    assert cli_cold.check(err, dict(out, rc=0)).status == "wrong"


def _traced_counts(workload, kinds):
    tracer = Tracer()
    wl = WORKLOADS[workload]
    for req in wl.build_round(4, 0, tracer):
        if req.kind in kinds:
            with tracer.request(req.id):
                getattr(wl, "trace", wl.run)(req, tracer)
    metrics = layer_metrics(tracer)
    return {k: metrics[k] for k in COUNT_METRICS}, tracer.records()


def test_traced_counts_repeat_exactly():
    kinds = ("pos/soft-oscillator", "pos/free", "pos/sho")
    first, spans = _traced_counts("paths", kinds)
    second, _ = _traced_counts("paths", kinds)
    assert first == second
    assert first["model.vf_calls"] > 0 and first["dynamics.solve_calls"] == 5
    solve = [s for s in spans if s["name"] == "dynamics.solve"]
    by_id = {s["id"]: s for s in spans}
    assert all(by_id[s["parent"]]["name"] == "request" for s in solve)
    assert all(s["request"] == by_id[s["parent"]]["request"] for s in solve)
    # model time is charged to the solve span it ran in
    assert sum(s["self_s"] for s in solve) < sum(s["end"] - s["start"] for s in solve)

    cli_first, _ = _traced_counts("cli-cold", ("spin-readme", "spin-composite", "propagate-csv"))
    cli_second, _ = _traced_counts("cli-cold", ("spin-readme", "spin-composite", "propagate-csv"))
    assert cli_first == cli_second
    assert cli_first["spin.paths_enumerated"] == 2**4 + 4**10
    assert cli_first["cli.series_bytes"] > 0


def test_parse_importtime_charges_numpy_pulled_in_by_scipy_to_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:       500 |      50000 |   numpy",
        "import time:       200 |        200 |     scipy._lib",
        "import time:       300 |       8000 |   scipy",
        "import time:       100 |       3000 |       numpy.testing",
        "import time:       100 |       4000 |     scipy._lib._util",
        "import time:       400 |     500000 |   scipy.integrate",
        "import time:       600 |     600000 | dualaction",
    ])
    got = run.parse_importtime(text)
    assert got == {"setup.import_ms": 600.0, "setup.import_numpy_ms": 50.0,
                   "setup.import_scipy_ms": 508.0}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paths", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
