"""One measured process of the benchmark (started by run.py, never by hand).

    python3 perfbench/worker.py --workload W --seed S --seconds T --mode M

The worker imports the library from the checkout's ``src``, builds the
workload's models and request rounds, prints ``ready`` (the parent
times set-up up to that line), and then, by mode:

* ``setup``: exits;
* ``run``: a closed loop with one client and tracing off: whole rounds
  until the next round would end past T seconds, at least one round;
* ``trace``: round 0 once with tracing off and once with tracing on.

Its last line on stdout is one JSON object with the outcome.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import dualaction  # noqa: E402  (from the checkout's src, checked in main)
from common import Verdict  # noqa: E402
from spans import NullTracer, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PREBUILT_ROUNDS = 4     # run mode cycles through these


def _verdict(wl, request, outcome, exc):
    if exc is not None:
        code = exc.code if isinstance(exc, dualaction.DualActionError) else type(exc).__name__
        return Verdict("failed", (f"raised {code}: {exc}"[:200],))
    try:
        return wl.check(request, outcome)
    except Exception as err:  # an outcome the verifier cannot read is not verified
        return Verdict("wrong", (f"unreadable outcome: {type(err).__name__}: {err}"[:200],))


def _serve(wl, fn, requests, tracer, tally):
    """Run requests one after another; returns the raw busy time.

    The calibration kernel runs between requests, so each request sits
    between two kernel timings and its latency is also kept scaled.
    """
    busy = 0.0
    kernel = calibrate.kernel_s()
    for req in requests:
        start = time.perf_counter()
        outcome, exc = None, None
        try:
            with tracer.request(req.id):
                outcome = fn(req, tracer)
        except Exception as err:  # request boundary: a raising request is a failed one
            exc = err
        elapsed = time.perf_counter() - start
        busy += elapsed
        after = calibrate.kernel_s()
        tally["latencies_ms"].append(calibrate.scaled(elapsed, kernel, after) * 1e3)
        tally["raw_latencies_ms"].append(elapsed * 1e3)
        tally["kernel_ms"].append(after * 1e3)
        kernel = after
        verdict = _verdict(wl, req, outcome, exc)
        tally["status"][verdict.status] += 1
        for reason in verdict.reasons:
            tally["reasons"][f"{req.kind}: {reason}"] += 1
    return busy


def _new_tally():
    return {"latencies_ms": [], "raw_latencies_ms": [], "kernel_ms": [],
            "status": Counter(), "reasons": Counter()}


def _summary(tally):
    status = tally["status"]
    attempted = sum(status.values())
    return {
        "attempted": attempted,
        "verified": status["ok"],
        "failed": attempted - status["ok"],
        "wrong": status["wrong"],
        "latencies_ms": tally["latencies_ms"],
        "raw_latencies_ms": tally["raw_latencies_ms"],
        "kernel_ms": tally["kernel_ms"],
        "reasons": dict(tally["reasons"].most_common(20)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    if Path(dualaction.__file__).resolve().parent != ROOT / "src" / "dualaction":
        sys.exit(f"dualaction imported from {dualaction.__file__}, not from this checkout")
    wl = WORKLOADS[args.workload]
    null = NullTracer()
    if args.mode == "trace":
        tracer = Tracer()
        plain = wl.build_round(args.seed, 0)
        traced = wl.build_round(args.seed, 0, tracer)
    else:
        rounds = [wl.build_round(args.seed, r) for r in range(PREBUILT_ROUNDS)]
    (ROOT / "perfbench" / "results").mkdir(exist_ok=True)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    first_kernel_s = calibrate.kernel_s()      # closes the parent's set-up timing

    if args.mode == "trace":
        fn = getattr(wl, "trace", wl.run)
        untraced_s = _serve(wl, fn, plain, null, _new_tally())
        tally = _new_tally()
        traced_s = _serve(wl, fn, traced, tracer, tally)
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = traced_s / untraced_s
        result = _summary(tally)
        result.update(metrics=metrics, spans=tracer.records())
    else:
        tally = _new_tally()
        busy, n_rounds, start = 0.0, 0, time.perf_counter()
        while True:
            busy += _serve(wl, wl.run, rounds[n_rounds % PREBUILT_ROUNDS], null, tally)
            n_rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / n_rounds > args.seconds:
                break
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        result = _summary(tally)
        result.update(busy_s=busy, rounds=n_rounds, first_kernel_s=first_kernel_s,
                      peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
