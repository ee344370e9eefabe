"""Spans and counters recorded around calls into the library's layers.

A span is recorded by the benchmark around one public call (name, start,
end, parent span, request id).  Counts attached to a span are derived
from the call's inputs or read off its result, never from the clock, so
two traced runs of the same requests give identical counts.

The benchmark-defined model reports its own partial-derivative calls
through :meth:`Tracer.model_call`; that time is charged to the innermost
open span and subtracted from its self time.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext

# the spans the workloads record, named <layer>.<call>
SPAN_NAMES = (
    "request", "dynamics.solve", "action.quadrature", "action.hj",
    "extrema.classify", "bounds.certify", "propagator.chain",
    "propagator.fourier", "spin.enum", "cli.main",
)


class NullTracer:
    """Tracing off: every hook is a no-op, so timed runs pay nothing."""

    enabled = False

    def span(self, name, **attrs):
        return nullcontext({"attrs": dict(attrs)})

    def request(self, request_id):
        return nullcontext()

    def model_call(self, seconds, points):
        pass


class Tracer:
    """Keeps spans in memory; :meth:`records` hands them out at the end."""

    enabled = True

    def __init__(self):
        self._spans = []
        self._stack = []
        self._request = None
        self.vf_calls = 0
        self.vf_points = 0
        self.vf_s = 0.0

    @contextmanager
    def request(self, request_id):
        self._request = request_id
        try:
            with self.span("request"):
                yield
        finally:
            self._request = None

    @contextmanager
    def span(self, name, **attrs):
        if name not in SPAN_NAMES:
            raise ValueError(f"unknown span name {name!r}")
        rec = {
            "id": len(self._spans),
            "name": name,
            "request": self._request,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "child_s": 0.0,
            "attrs": dict(attrs),
        }
        self._spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1]["child_s"] += rec["end"] - rec["start"]

    def model_call(self, seconds, points):
        self.vf_calls += 1
        self.vf_points += points
        self.vf_s += seconds
        if self._stack:
            self._stack[-1]["child_s"] += seconds

    def records(self):
        """Closed spans with their self time (duration minus children)."""
        out = []
        for rec in self._spans:
            dur = rec["end"] - rec["start"]
            out.append({
                "id": rec["id"], "name": rec["name"], "request": rec["request"],
                "parent": rec["parent"], "start": rec["start"], "end": rec["end"],
                "self_s": dur - rec["child_s"], "attrs": rec["attrs"],
            })
        return out


def _spans(records, name):
    return [r for r in records if r["name"] == name]


def _total(records):
    return sum(r["self_s"] for r in records)


def _attr_sum(records, key):
    return sum(r["attrs"].get(key, 0) for r in records)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics from one traced pass (names as in BENCHMARK.json)."""
    recs = tracer.records()
    solve = _spans(recs, "dynamics.solve")
    quad = _spans(recs, "action.quadrature")
    hj = _spans(recs, "action.hj")
    classify = _spans(recs, "extrema.classify")
    certify = _spans(recs, "bounds.certify")
    chain = _spans(recs, "propagator.chain")
    fourier = _spans(recs, "propagator.fourier")
    spin = _spans(recs, "spin.enum")
    cli = _spans(recs, "cli.main")
    flags = [r["attrs"].get("flag") for r in solve]
    certify_s = _total(certify)
    samples = _attr_sum(certify, "samples")
    durations = [(r["end"] - r["start"]) * 1e3 for r in solve]
    return {
        "model.vf_calls": tracer.vf_calls,
        "model.vf_points": tracer.vf_points,
        "model.vf_s": tracer.vf_s,
        "dynamics.solve_calls": len(solve),
        "dynamics.solve_s": _total(solve),
        "dynamics.solve_p50_ms": statistics.median(durations) if durations else 0.0,
        "dynamics.node_steps": _attr_sum(solve, "node_steps"),
        "dynamics.infeasible_ratio": _ratio(flags.count("infeasible"), len(flags)),
        "dynamics.degenerate_ratio": _ratio(flags.count("conjugate-degenerate"), len(flags)),
        "action.quadrature_calls": len(quad),
        "action.quadrature_s": _total(quad),
        "action.quadrature_points": _attr_sum(quad, "points"),
        "action.hj_surfaces": len(hj),
        "action.hj_s": _total(hj),
        "action.hj_lanes": _attr_sum(hj, "lanes"),
        "action.hj_valid_ratio": _ratio(_attr_sum(hj, "valid_nodes"), _attr_sum(hj, "nodes")),
        "extrema.classify_calls": len(classify),
        "extrema.classify_s": _total(classify),
        "bounds.certify_s": certify_s,
        "bounds.samples": samples,
        "bounds.samples_per_s": _ratio(samples, certify_s),
        "bounds.violations": _attr_sum(certify, "violations"),
        "propagator.chain_s": _total(chain),
        "propagator.fourier_s": _total(fourier),
        "propagator.fourier_points": _attr_sum(fourier, "points"),
        "spin.enum_s": _total(spin),
        "spin.paths_enumerated": _attr_sum(spin, "paths"),
        "cli.compute_ms": _total(cli) * 1e3,
        "cli.report_bytes": _attr_sum(cli, "report_bytes"),
        "cli.series_bytes": _attr_sum(cli, "series_bytes"),
    }


# counts that must repeat exactly between two traced runs of the same seed
COUNT_METRICS = (
    "model.vf_calls", "model.vf_points", "dynamics.solve_calls", "dynamics.node_steps",
    "dynamics.infeasible_ratio", "dynamics.degenerate_ratio", "action.quadrature_calls",
    "action.quadrature_points", "action.hj_surfaces", "action.hj_lanes",
    "action.hj_valid_ratio", "extrema.classify_calls", "bounds.samples",
    "bounds.violations", "propagator.fourier_points", "spin.paths_enumerated",
    "cli.report_bytes", "cli.series_bytes",
)
