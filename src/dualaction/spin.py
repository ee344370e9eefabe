"""Spin propagators from piecewise-constant momentum paths with sign freedom.

A freely spinning particle keeps |l| fixed but the unobservable angle
leaves the sign of l open on each of the N time slices, so the
propagator is an equal-weight sum of 2^N sign paths (4^N constituent
paths for the two-particle composite), normalized by the same count.
Only l^2 enters the phase, so the unconstrained sum collapses to a pure
phase; the endpoint-filtered policy keeps the same normalization but
admits only paths whose first/last slice match the requested signs.
Filtering needs distinct per-interval values (l != 0, l0 != 0) and end
values among them; otherwise no end is defined and it is a precondition
error.

Paths with equal square sums have equal phases, so the enumeration
groups them by square sum with exact integer counts and takes one phase
per distinct sum.  The module is pure Python: it never loads numpy.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass

from .errors import PreconditionError

SPIN_HALF_ENUM_CAP = 20
COMPOSITE_ENUM_CAP = 10
POLICIES = ("paper-unconstrained", "endpoint-filtered")


@dataclass(frozen=True)
class SpinPathEnsemble:
    """Allowed per-interval values with multiplicities and the path policy."""

    n_intervals: int
    values: tuple  # ((value, multiplicity), ...)
    policy: str = "paper-unconstrained"

    def __post_init__(self):
        if self.n_intervals < 1:
            raise PreconditionError("need at least one interval")
        if self.policy not in POLICIES:
            raise PreconditionError(f"policy must be one of {POLICIES}")

    @property
    def path_count(self):
        per_interval = sum(mult for _, mult in self.values)
        return per_interval**self.n_intervals

    def admitted_ends(self, ends):
        """The (first, last) interval values the policy admits, None when it admits every path."""
        if self.policy == "paper-unconstrained":
            return None
        levels = [v for v, _ in self.values]
        if len(set(levels)) < len(levels) or not all(v in levels for v in ends):
            raise PreconditionError(f"endpoint filtering needs distinct interval values (l, l0 != 0) "
                                    f"and end values among them, got {tuple(levels)} and {tuple(ends)}")
        return ends


def _validated(inertia, values, ends, n_intervals, policy):
    """The ensemble of a propagator or closed-form call and the ends its policy admits."""
    if inertia <= 0:
        raise PreconditionError("inertia must be positive")
    ensemble = SpinPathEnsemble(n_intervals, values, policy)
    return ensemble, ensemble.admitted_ends(ends)


def _phase(square, dt, inertia):
    """exp(-i square dt / 2I), nan where a value or time past the float range
    makes the argument infinite (cmath raises there) or nan."""
    try:
        return cmath.exp(complex(0.0, -square * dt / (2.0 * inertia)))
    except ValueError:
        return complex(math.nan, math.nan)


def _closed_form(ensemble, ends, t, inertia):
    """The path sum factorized over intervals: (sum_v m_v phase_v / M)^N for
    M paths per interval, with the first and last factors fixed to
    m phase / M of the admitted ends when there are ends."""
    n_intervals = ensemble.n_intervals
    mult = dict(ensemble.values)
    per_interval = float(sum(m for _, m in ensemble.values))
    dt = t / n_intervals
    # v * v, not v**2, which raises past the float range
    full = sum(m * _phase(v * v, dt, inertia) for v, m in ensemble.values) / per_interval
    if ends is None:
        return full**n_intervals
    l_i, l_f = ends
    if n_intervals == 1:
        return mult[l_i] * _phase(l_i * l_i, dt, inertia) / per_interval if l_i == l_f else 0j
    weight = (mult[l_i] * _phase(l_i * l_i, dt, inertia)
              * mult[l_f] * _phase(l_f * l_f, dt, inertia))
    # normalized per interval: per_interval**N overflows a float past N ~ 500
    return full ** (n_intervals - 2) * weight / per_interval**2


def _square_sums(ensemble, ends):
    """{square sum: path count} over the paths that the ends admit, every path when ends is None.

    Each value enters the levels once per multiplicity.  With ends =
    (v_first, v_last) the first and last values are fixed and only the
    interior intervals are walked, and each interior path counts once
    per pair of levels giving those ends (the composite's 0 is two
    levels).  A path's sum starts at the fixed ends' squares and adds
    its interior squares left to right.  Paths whose partial sums are
    equal stay equal, so the walk keeps one exact count per distinct
    partial sum: one entry for spin-1/2, whose levels share a square.
    """
    levels = [v for v, mult in ensemble.values for _ in range(mult)]
    n_intervals = ensemble.n_intervals
    # products, not **, which raises past the float range
    if ends is None:
        walked, sums = n_intervals, Counter({0.0: 1})
    elif n_intervals == 1:  # one interval is both ends
        walked, sums = 0, Counter({ends[0] * ends[0]: levels.count(ends[0])}
                                  if ends[0] == ends[1] else {})
    else:
        walked = n_intervals - 2
        sums = Counter({ends[0] * ends[0] + ends[1] * ends[1]:
                        levels.count(ends[0]) * levels.count(ends[1])})
    squares = Counter(v * v for v in levels)
    for _ in range(walked):
        step = Counter()
        for partial, count in sums.items():
            for square, mult in squares.items():
                step[partial + square] += count * mult
        sums = step
    return sums


def _path_sum(ensemble, ends, t, inertia):
    """Sum of exp(-i sum_j v_j^2 dt / 2I) over the admitted paths, over the
    full path count: one phase per distinct square sum, times its count."""
    dt = t / ensemble.n_intervals
    amplitude = sum((count * _phase(s, dt, inertia)
                     for s, count in _square_sums(ensemble, ends).items()), 0j)
    return amplitude / ensemble.path_count


def _propagator(inertia, values, ends, t, n_intervals, policy, cap, use_closed_form):
    """Enumerate the paths up to N = cap; past it, the closed form on request."""
    ensemble, ends = _validated(inertia, values, ends, n_intervals, policy)
    if n_intervals <= cap:
        return _path_sum(ensemble, ends, t, inertia)
    if use_closed_form:
        return _closed_form(ensemble, ends, t, inertia)
    raise PreconditionError(
        f"N = {n_intervals} exceeds the enumeration cap {cap}; pass use_closed_form=True"
    )


def spin_half_values(l):
    """Per-interval spin-1/2 values +l and -l, one sign path each."""
    return ((l, 1), (-l, 1))


def _signed_ends(l, sign_i, sign_f):
    """The (first, last) spin-1/2 values for end signs '+' or '-' (or +-1)."""
    for sign in (sign_i, sign_f):
        if sign not in ("+", "-", 1, -1):
            raise PreconditionError(f"sign must be '+' or '-', got {sign!r}")
    return tuple(l if sign in ("+", 1) else -l for sign in (sign_i, sign_f))


def spin_half_closed_form(inertia, l, sign_i, sign_f, t, n_intervals,
                          policy="paper-unconstrained"):
    """C * (admitted path count) * exp(-i l^2 t / 2I) with C = 2^-N."""
    ensemble, ends = _validated(inertia, spin_half_values(l), _signed_ends(l, sign_i, sign_f),
                                n_intervals, policy)
    return _closed_form(ensemble, ends, t, inertia)


def spin_half_propagator(inertia, l, sign_i, sign_f, t, n_intervals,
                         policy="paper-unconstrained", use_closed_form=False):
    """Sum over all sign paths of the spinning free particle.

    Brute-force enumeration up to N = 20; beyond that the closed form
    must be requested explicitly.
    """
    return _propagator(inertia, spin_half_values(l), _signed_ends(l, sign_i, sign_f), t,
                       n_intervals, policy, SPIN_HALF_ENUM_CAP, use_closed_form)


def composite_values(l0):
    """Per-interval composite angular momentum values with multiplicities."""
    return ((+2.0 * l0, 1), (0.0, 2), (-2.0 * l0, 1))


def composite_closed_form(inertia, l0, l_i, l_f, t, n_intervals,
                          policy="paper-unconstrained"):
    """C * sum over the admitted paths, factorized over intervals, with C = 4^-N."""
    ensemble, ends = _validated(inertia, composite_values(l0), (l_i, l_f), n_intervals, policy)
    return _closed_form(ensemble, ends, t, inertia)


def composite_spin_propagator(inertia, l0, l_i, l_f, t, n_intervals,
                              policy="paper-unconstrained", use_closed_form=False):
    """Two-constituent composite: per-interval values +2 l0, 0, -2 l0 with
    multiplicities 1:2:1 from the four constituent sign pairs, C = 4^-N."""
    return _propagator(inertia, composite_values(l0), (l_i, l_f), t, n_intervals, policy,
                       COMPOSITE_ENUM_CAP, use_closed_form)
