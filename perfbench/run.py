"""dualaction benchmark: four seeded closed-loop workloads, one client.

    python3 perfbench/run.py --workload paths --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's ``src``; nothing is installed.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is a separate traced
run that gives the per-layer metrics and writes its spans.  Summary
lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Each run also writes
``perfbench/results/<workload>-seed<seed>-trace<t>.json`` with the
environment, sample counts, failure reasons and, for traced runs, the
spans.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("paths", "surfaces", "certify", "cli-cold")
# set-up-only workers timed to ready, half before and half after the timed
# phase so the median spans the run, besides the measuring worker itself
SETUP_PROBES = 4
DEADLINE_S = 170.0      # one invocation must end well inside 180 s

# one client process and single-threaded BLAS/OpenMP in every child
PINNED_THREADS = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)}

END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER_UNITS = {
    "model.vf_calls": "count", "model.vf_points": "count", "model.vf_s": "s",
    "dynamics.solve_calls": "count", "dynamics.solve_s": "s", "dynamics.solve_p50_ms": "ms",
    "dynamics.node_steps": "count", "dynamics.infeasible_ratio": "ratio",
    "dynamics.degenerate_ratio": "ratio",
    "action.quadrature_calls": "count", "action.quadrature_s": "s",
    "action.quadrature_points": "count", "action.hj_surfaces": "count", "action.hj_s": "s",
    "action.hj_lanes": "count", "action.hj_valid_ratio": "ratio",
    "extrema.classify_calls": "count", "extrema.classify_s": "s",
    "bounds.certify_s": "s", "bounds.samples": "count", "bounds.samples_per_s": "1/s",
    "bounds.violations": "count",
    "propagator.chain_s": "s", "propagator.fourier_s": "s", "propagator.fourier_points": "count",
    "spin.enum_s": "s", "spin.paths_enumerated": "count",
    "cli.compute_ms": "ms", "cli.report_bytes": "bytes", "cli.series_bytes": "bytes",
    "setup.import_ms": "ms", "setup.import_numpy_ms": "ms", "setup.import_scipy_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **PINNED_THREADS)
    env.pop("DUALACTION_LOG", None)
    return env


def _worker(workload, seed, seconds, mode, deadline):
    """Start a worker; returns (seconds to its ready line, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    start = time.perf_counter()
    # own process group, so a worker past the deadline goes down with its CLI children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"{mode} worker did not get ready (exit {proc.wait()})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker passed the deadline") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def parse_importtime(text):
    """setup.import_* in ms from ``python -X importtime`` output.

    Lines come in post-order: a module's imports are listed before it, one
    level deeper.  A package's cost is the cumulative time of its modules
    imported from outside numpy, scipy and itself, so the numpy modules
    that scipy pulls in count as scipy's cost.
    """
    rows = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4).split(".")[0], int(m.group(2))))
    parent = [next((j for j in range(i + 1, len(rows)) if rows[j][0] < rows[i][0]), None)
              for i in range(len(rows))]

    def top_ms(pkg):
        total = 0
        for i, (_, top, cum) in enumerate(rows):
            j = parent[i]
            while j is not None and rows[j][1] not in (pkg, "numpy", "scipy"):
                j = parent[j]
            if top == pkg and j is None:
                total += cum
        return total / 1e3

    return {"setup.import_ms": top_ms("dualaction"),
            "setup.import_numpy_ms": top_ms("numpy"),
            "setup.import_scipy_ms": top_ms("scipy")}


def import_breakdown(deadline):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import dualaction"], cwd=ROOT,
        env=child_env(), capture_output=True, text=True, check=False,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError("import dualaction failed under -X importtime")
    return parse_importtime(proc.stderr)


def environment(seed):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dualaction").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "seed": seed, "commit": commit, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "threads": PINNED_THREADS["OMP_NUM_THREADS"], "clients": 1,
    }


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (final JSON object, human summary lines, record)."""
    deadline = time.monotonic() + DEADLINE_S
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "environment": environment(seed)}
    if trace:
        _, res = _worker(workload, seed, seconds, "trace", deadline)
        metrics = dict(res.pop("metrics"))
        metrics.update(import_breakdown(deadline))
        values = {k: {"value": float(metrics[k]), "unit": u} for k, u in PER_LAYER_UNITS.items()}
        record["spans"] = res.pop("spans")
        lines = [f"{k:28s} {v['value']:.6g} {v['unit']}" for k, v in values.items()]
    else:
        def probe():
            before = calibrate.kernel_s()
            ready_s, _ = _worker(workload, seed, seconds, "setup", deadline)
            return calibrate.scaled(ready_s, before, calibrate.kernel_s()), ready_s

        samples = [probe() for _ in range(SETUP_PROBES // 2)]
        before = calibrate.kernel_s()
        ready_s, res = _worker(workload, seed, seconds, "run", deadline)
        samples.append((calibrate.scaled(ready_s, before, res["first_kernel_s"]), ready_s))
        samples += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        setups = [scaled for scaled, _ in samples]
        raw_setups = [raw for _, raw in samples]
        lat = res["latencies_ms"]
        scaled_busy_s = sum(lat) / 1e3
        values = {
            "throughput_rps": res["verified"] / scaled_busy_s,
            "latency_p50_ms": statistics.median(lat),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        values = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END}
        raw = {
            "throughput_rps": res["verified"] / res["busy_s"],
            "latency_p50_ms": statistics.median(res["raw_latencies_ms"]),
            "setup_s": statistics.median(raw_setups),
        }
        kernel_ms = statistics.median(res["kernel_ms"])
        error_rate = res["failed"] / res["attempted"]
        lines = [
            f"throughput_rps  {values['throughput_rps']['value']:.6g} 1/s   "
            f"({res['verified']} verified requests; raw {raw['throughput_rps']:.6g} 1/s "
            f"over {res['busy_s']:.3f} s busy)",
            f"latency_p50_ms  {values['latency_p50_ms']['value']:.6g} ms   "
            f"(n={len(lat)}; raw {raw['latency_p50_ms']:.6g} ms)",
            f"setup_s         {values['setup_s']['value']:.6g} s    "
            f"(median of n={len(setups)} fresh interpreters; raw {raw['setup_s']:.6g} s)",
            f"peak_rss_mb     {values['peak_rss_mb']['value']:.6g} MB   "
            f"({'largest CLI child' if workload == 'cli-cold' else 'worker'}, n=1)",
            f"error_rate      {error_rate:.6g} 1    ({res['failed']} of {res['attempted']} requests)",
            f"host            calibration kernel median {kernel_ms:.4g} ms over n={len(lat)} "
            f"(times above are scaled to {calibrate.NOMINAL_S * 1e3:g} ms)",
        ]
        record.update(rounds=res["rounds"], busy_s=res["busy_s"], setup_samples_s=setups,
                      raw_setup_samples_s=raw_setups, raw=raw, error_rate=error_rate,
                      raw_latencies_ms=res["raw_latencies_ms"], kernel_ms=res["kernel_ms"])
    correct = res["wrong"] == 0 and res["verified"] > 0
    env = record["environment"]
    lines[:0] = [
        f"workload={workload} seed={seed} trace={trace} requests={res['attempted']} "
        f"verified={res['verified']} failed={res['failed']} wrong={res['wrong']} correct={correct}",
        f"env python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"nproc={env['nproc']} commit={env['commit']} src={env['source_sha256'][:12]}",
    ]
    lines += [f"  {n} x {reason}" for reason, n in res["reasons"].items()]
    final = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
             "metrics": values}
    record.update(result=final, latencies_ms=res["latencies_ms"], reasons=res["reasons"],
                  wrong=res["wrong"])
    return final, lines, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # one CPU for this process and every child: the calibration kernel must
    # time the CPU that the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run still takes its workers down (see _worker's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "dualaction" / "__init__.py").is_file():
        sys.stderr.write(f"no dualaction sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    RESULTS.mkdir(exist_ok=True)

    finals = {}
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        try:
            final, lines, record = run_once(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            sys.stderr.write(f"{workload}: {exc}\n")
            return 1
        out = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print("\n".join(lines), flush=True)
        finals[workload] = final
    if len(finals) == 1:
        print(json.dumps(next(iter(finals.values()))))
    else:
        print(json.dumps({
            "correct": all(f["correct"] for f in finals.values()),
            "attempted": sum(f["attempted"] for f in finals.values()),
            "failed": sum(f["failed"] for f in finals.values()),
            "metrics": {f"{w}/{k}": v for w, f in finals.items() for k, v in f["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
