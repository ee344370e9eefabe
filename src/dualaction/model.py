"""Hamiltonian descriptors: evaluation, partial derivatives, convexity probes.

A :class:`HamiltonianModel` supplies H(p, q) together with every partial
derivative up to total order 3.  Separable models with polynomial
potentials differentiate exactly; black-box evaluators fall back to
Richardson-extrapolated central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import BUILTIN_NAMES
from .errors import DomainError, PreconditionError, UnsupportedOrderError

# Stencil steps per total derivative order, in the natural scale of the
# axis.  Orders 2-3 need wider Richardson stencils than the first-order
# step: plain central differences at 1e-5 drown orders >= 2 in rounding
# noise, so the second/third-order steps sit near the float64 optimum.
_FD_STEP = {1: 1e-5, 2: 6e-3, 3: 1.2e-2}

PROBE_GRID = 21      # frozen-axis points of a DomainBox probe
PROBE_SAMPLES = 24   # chord-test points along the probed axis


@dataclass(frozen=True)
class DomainBox:
    """Rectangular probe region in phase space, PROBE_GRID points per axis."""

    p_min: float
    p_max: float
    q_min: float
    q_max: float

    def __post_init__(self):
        if not (self.p_min < self.p_max and self.q_min < self.q_max):
            raise PreconditionError("domain box must have positive extent on both axes")

    def p_grid(self):
        return np.linspace(self.p_min, self.p_max, PROBE_GRID)

    def q_grid(self):
        return np.linspace(self.q_min, self.q_max, PROBE_GRID)


# Central differences of f at x with step s, by derivative order.
_STENCIL = {
    1: lambda f, x, s: (f(x + s) - f(x - s)) / (2.0 * s),
    2: lambda f, x, s: (f(x + s) - 2.0 * f(x) + f(x - s)) / s**2,
    3: lambda f, x, s: (
        f(x + 2.0 * s) - 2.0 * f(x + s) + 2.0 * f(x - s) - f(x - 2.0 * s)
    ) / (2.0 * s**3),
}


def _fd_directional(f, x, order, h_base):
    """Derivative of a scalar/vectorized 1-argument function at x: the
    central difference, Richardson-extrapolated from steps h and h/2."""
    h = h_base * np.maximum(1.0, np.abs(x))
    diff = _STENCIL[order]
    return (4.0 * diff(f, x, h / 2.0) - diff(f, x, h)) / 3.0


def _poly_derivs(coeffs):
    """Ascending-order coefficient arrays for V, V', V'', V'''."""
    out = [np.asarray(coeffs, dtype=float)]
    for _ in range(3):
        c = out[-1]
        out.append(c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1))
    return out


def _horner(coeffs):
    """Callable (q, out=None) -> sum_k coeffs[k] q^k by Horner's rule (ascending coefficients).

    Zero coefficients are not added (adding 0.0 changes no finite
    value), so the values equal numpy's polyval.  A constant polynomial
    gives a scalar, which broadcasts against q.  With out (an array of
    q's shape other than q), the value is computed in out, a constant
    filling it, and out is returned.
    """
    coeffs = [float(c) for c in coeffs]
    lead, rest = coeffs[-1], coeffs[-2::-1]
    later = rest[1:]

    def poly(q, out=None):
        if not rest:
            if out is None:
                return lead
            out.fill(lead)
            return out
        # a new array or out, which the later steps update in place: q is never written
        value = lead * q if out is None else np.multiply(q, lead, out=out)
        if rest[0]:
            value += rest[0]
        for c in later:
            value *= q
            if c:
                value += c
        return value

    return poly


def _poly(coeffs):
    """_horner whose value has the shape of q, as polyval's, also for a constant polynomial."""
    horner = _horner(coeffs)
    if len(coeffs) == 1:
        return lambda q: np.full(np.shape(q), horner(q))
    return lambda q: horner(np.asarray(q, dtype=float))


def _require_finite(name, values):
    if not np.all(np.isfinite(values)):
        raise PreconditionError(f"{name} must be finite")


@dataclass(frozen=True)
class HamiltonianModel:
    """H(p, q) with partial derivatives through third order.

    kind
        "separable" for p^2/(2m) + V(q), from a mass and a potential
        (no evaluator or partials); "general" for a black-box evaluator
        of (p, q) (no mass or potential).
    partials
        Exact derivatives of a general model by order (a, b).  A general
        model with partials raises UnsupportedOrderError for an order it
        lacks; one without finite-differences every order.
    """

    kind: str
    mass: float | None = None
    potential_coeffs: tuple[float, ...] | None = None
    potential: Callable | None = None
    evaluator: Callable | None = None
    partials: Mapping[tuple[int, int], Callable] | None = None
    label: str = ""
    # V and its derivatives of a separable model with potential coefficients, else None
    _vcoeffs: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("separable", "general"):
            raise PreconditionError(f"unknown Hamiltonian kind: {self.kind!r}")
        if self.kind == "general":
            if self.evaluator is None:
                raise PreconditionError("general kind requires an evaluator")
            if any(x is not None for x in (self.mass, self.potential_coeffs, self.potential)):
                raise PreconditionError("general kind takes no mass or potential")
        else:
            if self.evaluator is not None or self.partials is not None:
                raise PreconditionError("separable kind takes no evaluator or partials")
            if self.mass is None or self.mass <= 0:
                raise PreconditionError("separable kind requires a positive mass")
            _require_finite("mass", self.mass)
            if self.potential_coeffs is None and self.potential is None:
                raise PreconditionError("separable kind requires a potential")
        if self.potential_coeffs is not None:
            _require_finite("potential coefficients", self.potential_coeffs)
            with np.errstate(over="ignore"):  # k c_k past the float range is checked below
                derivs = _poly_derivs(self.potential_coeffs)
            _require_finite("potential derivative coefficients", np.concatenate(derivs))
            object.__setattr__(self, "_vcoeffs", tuple(map(tuple, derivs)))

    # ---- constructors -------------------------------------------------

    @classmethod
    def separable(cls, mass, potential_coeffs=None, potential=None, label=""):
        if potential_coeffs is not None:
            potential_coeffs = tuple(float(c) for c in potential_coeffs)
        return cls(
            kind="separable", mass=float(mass), potential_coeffs=potential_coeffs,
            potential=potential, label=label
        )

    @classmethod
    def general(cls, evaluator, partials=None, label=""):
        return cls(kind="general", evaluator=evaluator, partials=dict(partials or {}), label=label)

    @classmethod
    def free(cls, mass=1.0):
        return cls.separable(mass, potential_coeffs=(0.0,), label="free")

    @classmethod
    def sho(cls, mass=1.0, omega=1.0):
        k = mass * omega**2
        return cls.separable(mass, potential_coeffs=(0.0, 0.0, 0.5 * k), label="sho")

    @classmethod
    def saddle_quadratic(cls, mass=1.0, k=1.0):
        """H = p^2/(2m) - k q^2/2: convex in p, concave in q."""
        m = cls.separable(mass, potential_coeffs=(0.0, 0.0, -0.5 * k), label="saddle-quadratic")
        return m

    @classmethod
    def constant_force(cls, mass=1.0, force=1.0):
        return cls.separable(mass, potential_coeffs=(0.0, -float(force)), label="constant-force")

    @classmethod
    def with_drift(cls, mass, drift_coeffs, potential_coeffs, label="drift"):
        """H = p^2/(2m) + B(q) p + V(q) with polynomial B and V.

        Built as a general-kind model with exact analytic partials, so
        third derivatives stay noise-free.
        """
        m = float(mass)
        if m <= 0:
            raise PreconditionError("with_drift requires a positive mass")
        _require_finite("mass", m)
        _require_finite("drift coefficients", drift_coeffs)
        _require_finite("potential coefficients", potential_coeffs)
        b = [_poly(c) for c in _poly_derivs(drift_coeffs)]
        v = [_poly(c) for c in _poly_derivs(potential_coeffs)]

        def H(p, q):
            return p**2 / (2.0 * m) + b[0](q) * p + v[0](q)

        partials = {
            (1, 0): lambda p, q: p / m + b[0](q),
            (2, 0): lambda p, q: np.full_like(np.asarray(p, dtype=float), 1.0 / m),
            (3, 0): lambda p, q: np.zeros_like(np.asarray(p, dtype=float)),
            (2, 1): lambda p, q: np.zeros(np.broadcast(p, q).shape),
        }
        for bq in range(1, 4):
            db, dv = b[bq], v[bq]
            partials[(0, bq)] = lambda p, q, db=db, dv=dv: db(q) * p + dv(q)
            if bq <= 2:
                partials[(1, bq)] = lambda p, q, db=db: db(q) * np.ones_like(
                    np.asarray(p, dtype=float)
                )
        return cls.general(H, partials=partials, label=label)

    @classmethod
    def builtin(cls, name, mass=1.0, omega=1.0, k=1.0, force=1.0):
        table = {
            "free": lambda: cls.free(mass),
            "sho": lambda: cls.sho(mass, omega),
            "saddle-quadratic": lambda: cls.saddle_quadratic(mass, k),
            "constant-force": lambda: cls.constant_force(mass, force),
        }
        if name not in table:
            raise PreconditionError(
                f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
            )
        return table[name]()

    # ---- evaluation ---------------------------------------------------

    def eval(self, p, q):
        return self._derivative(0, 0)(p, q)

    def _v_derivative(self, order):
        """dV/dq^order as a vectorized callable of q."""
        if self._vcoeffs is not None:
            return _poly(self._vcoeffs[order])
        if order == 0:
            return lambda q: np.asarray(self.potential(q), dtype=float)
        return lambda q: _fd_directional(
            lambda x: np.asarray(self.potential(x), dtype=float), np.asarray(q, dtype=float),
            order, _FD_STEP[order],
        )

    def _derivative(self, a, b):
        """Vectorized callable (p, q, out=None) for d^{a+b} H / dp^a dq^b.

        A polynomial separable model's partials in q (a = 0, b >= 1)
        compute in out, an array of q's shape other than q, by Horner's
        rule when it is given; every other partial returns a new value."""
        if a + b > 3 or a < 0 or b < 0:
            raise UnsupportedOrderError(f"partial order ({a},{b}) exceeds total order 3")
        if self.kind != "general":
            return self._separable_derivative(a, b)
        key = (a, b)
        if self.partials and key in self.partials:
            fn = self.partials[key]
            return lambda p, q, out=None: np.asarray(fn(p, q), dtype=float)
        if a == 0 and b == 0:
            return lambda p, q, out=None: np.asarray(self.evaluator(p, q), dtype=float)
        if self.partials:
            raise UnsupportedOrderError(f"this model has no partial of order ({a},{b})")
        return self._fd_derivative(a, b)

    def vector_field(self):
        """Callable (p, q) -> (H_p, H_q): the right-hand side of Hamilton's equations.

        Polynomial separable models evaluate both in one call, H_q by
        the Horner evaluator of the (0, 1) partial, so the values agree
        bit for bit.  A constant H_q is returned as a scalar; the results
        broadcast against p and q.  A general model with both partials
        calls them as given; other models call their (1, 0) and (0, 1)
        derivatives.
        """
        if self._vcoeffs is not None:
            m = self.mass
            hq = _horner(self._vcoeffs[1])
            return lambda p, q: (p / m, hq(q))
        partials = self.partials or {}
        hp = partials.get((1, 0)) or self._derivative(1, 0)
        hq = partials.get((0, 1)) or self._derivative(0, 1)
        return lambda p, q: (hp(p, q), hq(p, q))

    def _separable_derivative(self, a, b):
        m = self.mass
        if a > 0 and b > 0:
            return lambda p, q, out=None: np.zeros(np.broadcast(p, q).shape)
        if a == 1:
            return lambda p, q, out=None: np.asarray(p, dtype=float) / m
        if a == 2:
            return lambda p, q, out=None: np.full(np.broadcast(p, q).shape, 1.0 / m)
        if a == 3:
            return lambda p, q, out=None: np.zeros(np.broadcast(p, q).shape)
        dv = self._v_derivative(b)
        if b == 0:
            return lambda p, q, out=None: np.asarray(p, dtype=float) ** 2 / (2.0 * m) + dv(q)
        horner = _horner(self._vcoeffs[b]) if self._vcoeffs is not None else None
        return lambda p, q, out=None: (horner(q, out) if out is not None and horner
                                       else dv(q) * np.ones(np.broadcast(p, q).shape))

    def _fd_derivative(self, a, b):
        """d^{a+b} H / dp^a dq^b of a black-box evaluator: a differences along
        p nested inside b differences along q, where an order of 0 is the
        value itself, all at the step of the total order."""
        h = _FD_STEP[a + b]

        def nest(f, x, order):
            return f(x) if order == 0 else _fd_directional(f, x, order, h)

        def deriv(p, q, out=None):
            p = np.asarray(p, dtype=float)
            q = np.asarray(q, dtype=float)

            def along_q(qq):
                along_p = lambda pp: np.asarray(
                    self.evaluator(pp, np.broadcast_to(qq, pp.shape)), dtype=float)
                return nest(along_p, np.broadcast_to(p, qq.shape), a)

            return nest(along_q, np.broadcast_to(q, np.broadcast(p, q).shape), b)

        return deriv

    def _quadratic_potential(self):
        """(c0, c1, c2) when the model is separable with V = c0 + c1 q + c2 q^2
        (trailing zero coefficients allowed), else None.

        The one test of degree <= 2: the affine flow, the closed-form
        position restriction, the quadratic-form bound certificate and the
        Gaussian chain all ask it.
        """
        if self._vcoeffs is None:
            return None
        c = tuple(float(x) for x in self.potential_coeffs) + (0.0, 0.0, 0.0)
        return None if any(c[3:]) else c[:3]

    def is_cyclic_in_q(self):
        """True when H_q is zero (free-particle structure): every coefficient
        of V' when a separable model has them, else H_q at every point of a
        4x4 probe.  The rule is exact for both kinds, so the same H gives the
        same answer however it is built."""
        if self._vcoeffs is not None:
            return not np.any(np.asarray(self._vcoeffs[1]))
        hq = self._derivative(0, 1)
        probe = np.array([-1.7, -0.4, 0.3, 1.2])
        return not np.any(hq(probe[:, None], probe[None, :] * 0.7 + 0.1))


def eval_partials(model: HamiltonianModel, p, q, order=(0, 0)):
    """Evaluate d^{a+b} H / dp^a dq^b at (p, q) for order = (a, b)."""
    a, b = order
    if a + b > 3:
        raise UnsupportedOrderError(f"requested order {order} exceeds total order 3")
    val = model._derivative(a, b)(p, q)
    if not np.all(np.isfinite(val)):
        raise DomainError(f"non-finite H partial {order} at (p={p}, q={q})")
    if np.ndim(val) == 0 or (hasattr(val, "shape") and val.shape == ()):
        return float(val)
    return val


_LAMBDAS = np.arange(0.1, 0.95, 0.1)
_CHORD_SLACK = 1e-12


def _on_unit_box(coeffs, size):
    """Ascending coefficients of c(size u) / max_k |c_k| size^k, u = q / size,
    without the leading terms below eps of the largest (none when c = 0).

    Scaled through logarithms, they do not overflow on a huge box, and
    np.roots, which divides by the leading coefficient, gets a finite
    companion matrix (V''' = 6 + 1.2e-322 q on any box, and
    V''' = 1e10 + 1e-300 q^2 on |q| <= 1e300, ended in a LinAlgError).  A
    dropped term moves V''' by less than its rounding on the box, and V''
    by far less than _CHORD_SLACK.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    with np.errstate(divide="ignore"):  # a zero coefficient's term is -inf
        logs = np.log(np.abs(coeffs)) + np.arange(len(coeffs)) * np.log(size)
    top = np.max(logs, initial=-np.inf)
    kept = np.flatnonzero(logs > top + np.log(np.finfo(float).eps))
    if not kept.size:
        return coeffs[:0]
    return (np.sign(coeffs) * np.exp(logs - top))[:kept[-1] + 1]


def _axis_flags(model, box, axis):
    """(convex_ok, concave_ok) of H along one axis of the box.

    Exact for a separable model with potential coefficients: along p,
    H_pp = 1/m > 0; along q, V'' takes its extremes at q_min, q_max or a
    real root of V''' (an eigenvalue of its companion matrix, np.roots;
    clipped to the box, any eigenvalue's real part is a point of it), and
    may pass zero by _CHORD_SLACK of sum |V''_k| max(|q_min|, |q_max|)^k.
    Both are taken in u = q / max(|q_min|, |q_max|) and in units of their
    largest term on the box (_on_unit_box), so no box overflows them.
    Any other model takes the chord probe.
    """
    if axis not in ("p-axis", "q-axis"):
        raise PreconditionError(f"axis must be 'p-axis' or 'q-axis', got {axis!r}")
    if model._vcoeffs is None:
        return _chord_flags(model, box, axis)
    if axis == "p-axis":
        return True, False
    size = max(abs(box.q_min), abs(box.q_max))
    v2, v3 = (_on_unit_box(c, size) for c in model._vcoeffs[2:])
    if not v2.size:  # V'' = 0
        return True, True
    ends = np.array([box.q_min, box.q_max]) / size
    roots = np.clip(np.roots(v3[::-1]).real, *ends)
    curvature = _poly(v2)(np.concatenate([ends, roots]))
    slack = _CHORD_SLACK * np.sum(np.abs(v2))
    return bool(curvature.min() >= -slack), bool(curvature.max() <= slack)


def _chord_flags(model, box, axis):
    """(convex_ok, concave_ok) from exhaustive chord tests on the box.

    Each frozen row evaluates H once on the distinct chord points: the
    probe points, whose values are every chord's two ends, and the
    chords' interior points, of which only about 900 of 2484 differ.
    """
    if axis == "p-axis":
        xs, frozen = np.linspace(box.p_min, box.p_max, PROBE_SAMPLES), box.q_grid()
    else:
        xs, frozen = np.linspace(box.q_min, box.q_max, PROBE_SAMPLES), box.p_grid()

    i, j = np.triu_indices(PROBE_SAMPLES, k=1)
    lam = _LAMBDAS[:, None]                    # (L, 1)
    xmid = lam * xs[i] + (1.0 - lam) * xs[j]   # (L, P)
    points, at = np.unique(np.concatenate([xmid.ravel(), xs]), return_inverse=True)
    mid_at, end_at = at[:xmid.size].reshape(xmid.shape), at[xmid.size:]

    convex_ok = concave_ok = True
    for w in frozen:
        row = np.full_like(points, w)
        p, q = (points, row) if axis == "p-axis" else (row, points)
        # a black-box H may answer a constant with a scalar
        values = np.broadcast_to(eval_partials(model, p, q, (0, 0)), points.shape)
        arc, ends = values[mid_at], values[end_at]
        chord = lam * ends[i] + (1.0 - lam) * ends[j]
        if np.any(arc > chord + _CHORD_SLACK):
            convex_ok = False
        if np.any(arc < chord - _CHORD_SLACK):
            concave_ok = False
        if not (convex_ok or concave_ok):
            break
    return convex_ok, concave_ok


def convexity_probe(model: HamiltonianModel, box: DomainBox, axis: str):
    """Convexity verdict on one axis: 'convex', 'concave' or 'neither'.

    Exact for a separable model with potential coefficients, a chord
    probe otherwise (_axis_flags).  Verdicts are for the probed box
    only.  A function passing both non-strict tests (affine on the axis)
    reports 'convex'.
    """
    convex_ok, concave_ok = _axis_flags(model, box, axis)
    if convex_ok:
        return "convex"
    if concave_ok:
        return "concave"
    return "neither"


def saddle_probe(model: HamiltonianModel, box: DomainBox):
    """'saddle' when H is convex along p and concave along q on the box.

    Exact for a separable model with potential coefficients, a chord
    probe otherwise (_axis_flags).  Both tests are non-strict, so a
    q-independent H (free particle) still qualifies.
    """
    convex_p, _ = _axis_flags(model, box, "p-axis")
    _, concave_q = _axis_flags(model, box, "q-axis")
    return "saddle" if (convex_p and concave_q) else "not-saddle"
