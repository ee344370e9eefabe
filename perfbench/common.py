"""Request and verdict types shared by the workloads.

A workload module provides

* ``build_round(seed, round_index, tracer)`` -> list of :class:`Request`,
  a pure function of its arguments (the tracer only wraps the
  benchmark-defined model so it can count its own calls);
* ``run(request, tracer)`` -> outcome dict, the timed request;
* ``check(request, outcome)`` -> :class:`Verdict`;
* optionally ``trace(request, tracer)``, the traced form of a request when
  it differs from ``run`` (``cli-cold`` runs its commands in-process there).

Every round of a workload holds the same cells (model, boundary type,
size); the seed and the round index only draw the continuous inputs.  So
every run measures the same mix, whatever its length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Request:
    id: str
    kind: str
    spec: dict                                        # JSON-able inputs
    model: object = field(default=None, compare=False)


@dataclass(frozen=True)
class Verdict:
    """ok: verified.  failed: the program raised, refused or flagged the
    answer itself.  wrong: the program presented an answer as valid and
    it failed an independent check."""

    status: str
    reasons: tuple = ()


OK = Verdict("ok")


def judge(problems, presented_valid):
    """Verdict for a finished request given the failed checks."""
    if not problems:
        return OK
    return Verdict("wrong" if presented_valid else "failed", tuple(problems))


def round_rng(seed, round_index, salt):
    return np.random.default_rng([int(seed), int(round_index), salt])


def uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def rel_err(got, want, floor=1e-300):
    return abs(got - want) / max(abs(want), floor)
