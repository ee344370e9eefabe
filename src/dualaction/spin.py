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

numpy loads on the first enumeration or closed form, not at import: a
call that stops at a precondition never needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError

SPIN_HALF_ENUM_CAP = 20
COMPOSITE_ENUM_CAP = 10
_CHUNK = 1 << 16
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


def _closed_form(ensemble, ends, t, inertia):
    """The path sum factorized over intervals: (sum_v m_v phase_v / M)^N for
    M paths per interval, with the first and last factors fixed to
    m phase / M of the admitted ends when there are ends.  A value or time
    past the float range gives a non-finite phase, not a warning."""
    import numpy as np

    n_intervals = ensemble.n_intervals
    mult = dict(ensemble.values)
    per_interval = float(sum(m for _, m in ensemble.values))
    dt = t / n_intervals

    def slice_phase(v):  # v * v, not v**2, which raises past the float range
        return np.exp(-1j * (v * v) * dt / (2.0 * inertia))

    with np.errstate(all="ignore"):
        full = sum(m * slice_phase(v) for v, m in ensemble.values)
        if ends is None:
            return complex((full / per_interval) ** n_intervals)
        l_i, l_f = ends
        if n_intervals == 1:
            if l_i != l_f:
                return 0.0 + 0.0j
            return complex(mult[l_i] * slice_phase(l_i) / per_interval)
        weight = mult[l_i] * slice_phase(l_i) * mult[l_f] * slice_phase(l_f)
        # normalized per interval: per_interval**N overflows a float past N ~ 500
        return complex((full / per_interval) ** (n_intervals - 2) * weight / per_interval**2)


def _path_sum(ensemble, ends, t, inertia):
    """Sum of exp(-i sum_j v_j^2 dt / 2I) over all paths, over the path count.

    Each value enters the levels once per multiplicity, and path `code`
    takes the value levels[d_j] on interval j, d_j being digit j of code
    in base len(levels) (2 or 4).  With ends = (v_first, v_last) only the
    paths starting and ending on those values are summed: the first and
    last values are fixed, only the interior digits are walked, and each
    interior path counts once per digit pair giving those ends (the
    composite's 0 has two digits).  The normalization keeps the full
    count.

    The walk goes in chunks of _CHUNK consecutive codes.  The low digits,
    those that vary inside a chunk, are summed once into a table: the
    fixed ends' squares plus each low digit's square in digit order.  A
    chunk is the table plus the squares of its high digits, added one
    digit at a time, so every path adds its squares left to right from
    the lowest digit.

    The table holds few distinct sums (a spin-1/2 table one, since every
    level has the same square), and equal sums stay equal when the same
    high digits are added to them.  So a chunk adds its high digits to
    the distinct sums only, takes one phase per distinct sum, and gathers
    the phases back into path order for the same np.sum: every chunk sums
    the same values in the same order as the whole table would.  A value
    or time past the float range gives a non-finite sum, not a warning.
    """
    import numpy as np

    levels = [v for v, mult in reversed(ensemble.values) for _ in range(mult)]
    n_intervals = ensemble.n_intervals
    base = len(levels)
    levels = np.asarray(levels, dtype=float)
    dt = t / n_intervals
    total = base**n_intervals
    if ends is None:
        walked, fixed, count = n_intervals, 0.0, 1
    elif n_intervals == 1:  # one interval is both ends
        if ends[0] != ends[1]:
            return 0.0 + 0.0j
        # products, not **, which raises past the float range
        walked, fixed, count = 0, ends[0] * ends[0], int(np.sum(levels == ends[0]))
    else:
        walked, fixed = n_intervals - 2, ends[0] * ends[0] + ends[1] * ends[1]
        count = int(np.sum(levels == ends[0])) * int(np.sum(levels == ends[1]))
    # base is 2 or 4, so a chunk's codes share all digits above the lowest `low`
    low = 0
    while low < walked and base ** (low + 1) <= _CHUNK:
        low += 1
    with np.errstate(all="ignore"):
        squares = levels**2
        table = np.array([fixed])
        for _ in range(low):  # code c + d base^j gets digit d at position j
            table = (table[None, :] + squares[:, None]).ravel()
        distinct, path_order = np.unique(table, return_inverse=True)
        acc = 0.0 + 0.0j
        for chunk in range(base ** (walked - low)):
            square_sum = distinct
            for j in range(walked - low):  # the chunk's high digits, lowest first
                square_sum = square_sum + squares[chunk // base**j % base]
            acc += np.sum(np.exp(-1j * square_sum * dt / (2.0 * inertia))[path_order])
        return complex(count * acc / total)


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
