"""Restricted action functionals and global bound certification.

For a saddle Hamiltonian (convex in p, concave in q) the action S on a
critical path is squeezed between a functional of the position path
alone and one of the momentum path alone; R is squeezed the opposite
way.  This module builds the four restricted functionals and certifies
both chains against seeded random perturbations.

The restrictions eliminate one variable per functional:

* J  restricts the momentum to solve  dTheta/dt = H_p  (per-node solve),
* G  restricts the position to solve  dPi/dt = -H_q    (per-node solve),
* J' restricts the momentum to solve  dPi/dt = -H_q    (an initial-value
  integration driven by Theta),
* G' restricts the position to solve  dTheta/dt = H_p  (an initial-value
  integration driven by Pi).

The chains inherit the endpoint conditions of their parent variational
problem, which constrains the admissible perturbations: the pinned
variable gets endpoint-vanishing sine modes, while the free variable
must keep its induced partner pinned (cosine modes, whose slope - and
for the primed chain whose integral - vanishes appropriately).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .action import (
    _ROWS, _cumulative_trapezoid, _energy, _grad, _integrand, _lane_major, _mode_basis,
    _mode_sum, _quadrature, _row_products, _trapezoid, action_r, action_s,
)
from .dynamics import ShootingReport
from .errors import NotSaddleError, PreconditionError, RootFindError, UnsolvableRestrictionError
from .model import DomainBox, HamiltonianModel, saddle_probe
from .series import write_series

DEFAULT_SLACK_FLOOR = 1e-6


@dataclass(frozen=True)
class PerturbationSpec:
    """Random Fourier perturbation family.

    The pinned variable ('q-pinned' for the S-chain, 'p-pinned' for the
    R-chain) receives a sine series vanishing at both endpoints; the
    amplitude scales the sup-norm.
    """

    amplitude: float
    mode_count: int = 8
    seed: int = 0
    pinned: str = "q-pinned"

    def __post_init__(self):
        if self.pinned not in ("q-pinned", "p-pinned"):
            raise PreconditionError("pinned must be 'q-pinned' or 'p-pinned'")
        if not math.isfinite(self.amplitude):
            raise PreconditionError("amplitude must be finite")
        if not isinstance(self.mode_count, numbers.Integral) or self.mode_count < 1:
            raise PreconditionError("mode_count must be an integer >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise PreconditionError("seed must be an integer >= 0")


# Bytes per (nodes, block) array of a separable model's block: 32 samples
# per block at 1000 intervals, 16 at 2000.  Every block computes in one
# workspace per certificate (_Workspace), so a block allocates nothing of
# node length whatever its width, and its values do not depend on the
# width.  On the certify benchmark (seed 5, four alternating pairs of 15 s
# runs on a 2-vCPU VM) 32 samples a block ran 42.7 requests/s against 40.5
# for 16, four pairs of four.
_BLOCK_BYTES = 256 << 10
# Nodes times samples of a general-kind block: 8 MB per (nodes, block) array
_GENERAL_BLOCK_POINTS = 1 << 20


def _block_size(model, nodes):
    """Samples per block.  A general-kind model steps its restricted IVPs
    through the nodes in a Python loop (_heun) once per block, which costs
    far more than the arrays, so its blocks are as wide as memory allows:
    1000 samples of a 1000-interval path are one block."""
    points = _GENERAL_BLOCK_POINTS if model.kind == "general" else _BLOCK_BYTES // 8
    return max(1, points // nodes)


class _Workspace(NamedTuple):
    """The buffers one path, or one block of paths, is evaluated in.

    a to e have the paths' shape, (nodes,) or (nodes, columns), gap has
    nodes - 1 rows and half (nodes - 1) // 2; a block's are
    Fortran-ordered, so each column's nodes are contiguous, as a block
    built from mode-sum rows has them (_mode_sum).  The functionals and
    restrictions below write their temporaries into these alone, so a
    block of a separable model with potential coefficients allocates
    nothing of node length; a model given by callables copies their
    values in.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    gap: np.ndarray
    half: np.ndarray

    @classmethod
    def of(cls, shape):
        nodes, rest = shape[0], tuple(shape[1:])
        return cls(*(np.empty((n,) + rest, order="F")
                     for n in (nodes,) * 5 + (nodes - 1, (nodes - 1) // 2)))

    def columns(self, k):
        """The buffers of a block of its first k columns, each still contiguous per column."""
        return _Workspace(*(x[:, :k] for x in self))


def _in_workspace(x, ws):
    """x as a float array, and ws or, when None, a new workspace of x's shape."""
    x = np.asarray(x, dtype=float)
    return x, ws if ws is not None else _Workspace.of(x.shape)


def _peak(x):
    """max |x| along axis 0, without an array of |x|; nan where a column holds one."""
    return np.maximum(x.max(axis=0), -x.min(axis=0))


def _scale(peak, amplitude):
    """Factor taking a series of sup-norm peak to sup-norm amplitude; 1 for a zero series."""
    zero = peak == 0.0
    return np.where(zero, 1.0, amplitude / np.where(zero, 1.0, peak))


def _series(waves, amplitude, coeffs, rows=None):
    """Columns sum_k coeffs[j, k] waves[k], each scaled to sup-norm amplitude
    (an all-zero column stays); each column is a row of fixed-shape
    products (_mode_sum), so it does not depend on its block.  With rows
    (_row_products' buffer) the columns are a view of it."""
    delta = _mode_sum(waves, coeffs, rows)
    delta *= _scale(_peak(delta), amplitude)
    return delta


_NEWTON_MAX_ITER = 60


def _newton_nodes(f, fprime, x0, tol_scale, out=None, work=None):
    """Solve f(x) = 0 node by node on a (nodes, columns) array.

    f(x, buffer) and fprime(x, buffer) return their values at the iterate
    x, in buffer where they can.  The iteration runs in place on the whole
    block: x is out (a new array when None) started at x0, and the
    residual, the derivative and the step go to the three arrays of work
    (new ones when None).  A column that has stopped takes a zero step,
    so each column's iterates are its own.  Each column iterates until
    all its nodes meet the tolerance, or until a derivative of its own is
    zero or non-finite, exactly as a solve of that column alone would;
    tol_scale holds one scale per column.  A column that stopped short of
    the tolerance raises RootFindError, at its first node past 1e-9 of
    its scale, unless every node is within it.  The values of a stopped
    column may overflow again; that column's tests read them, so the
    iteration is quiet.
    """
    x = np.array(x0, dtype=float) if out is None else out
    if out is not None:
        x[...] = x0
    residual, slope, step = work if work is not None else (np.empty_like(x) for _ in range(3))
    converged = np.zeros(x.shape[1], dtype=bool)
    live = ~converged
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            r = f(x, residual)
            done = live & (_peak(r) <= 1e-11 * tol_scale)
            converged |= done
            live &= ~done
            if not np.any(live):
                break
            d = fprime(x, slope)
            size = np.abs(d, out=step)
            live &= (size.min(axis=0) > 0.0) & np.isfinite(size.max(axis=0))
            if not np.any(live):
                break
            np.divide(r, d, out=step)
            step[:, ~live] = 0.0  # a stopped column stays where it is
            x -= step
        if np.all(converged):
            return x
        rest = np.flatnonzero(~converged)
        bad = np.abs(f(x, residual)[:, rest]) > 1e-9 * tol_scale[rest]
    failed = np.flatnonzero(np.any(bad, axis=0))
    if failed.size:
        column = failed[0]
        raise RootFindError(
            "restriction root-find failed", node_index=int(np.flatnonzero(bad[:, column])[0])
        )
    return x


def _columns(x):
    """x as a (nodes, columns) array: a 1-d x becomes one column."""
    x = np.asarray(x, dtype=float)
    return x.reshape(x.shape[0], -1)


def pi_from_theta(model: HamiltonianModel, theta, dt, *, ws=None):
    """Momentum samples solving dTheta/dt = H_p(Pi, Theta) node by node.

    theta is one path or a (nodes, k) array of k paths.  Exact for
    separable models (Pi = m dTheta/dt); otherwise a vectorized Newton
    iteration (requires H_pp > 0 on the range).  Computed in ws.b of the
    workspace ws (a new one when None): the slope of theta goes to ws.a
    and stays there, and the Newton works in c to e.
    """
    theta, ws = _in_workspace(theta, ws)
    theta_dot = _grad(theta, dt, out=ws.a)
    if model.kind != "general":
        return np.multiply(theta_dot, model.mass, out=ws.b)
    hp, hpp = model._derivative(1, 0), model._derivative(2, 0)
    th, th_dot = _columns(theta), _columns(theta_dot)
    _newton_nodes(lambda x, out: np.subtract(hp(x, th), th_dot, out=out),
                  lambda x, out: hpp(x, th), th_dot, 1.0 + _peak(th_dot),
                  out=_columns(ws.b), work=(_columns(ws.c), _columns(ws.d), _columns(ws.e)))
    return ws.b


def theta_from_pi(model: HamiltonianModel, pi, dt, *, ws=None):
    """Position samples solving dPi/dt = -H_q(Pi, Theta) node by node.

    pi is one path or a (nodes, k) array of k paths.  Requires the force
    to respond to position (H_qq != 0); a model cyclic in q (free
    particle) is unsolvable.  A quadratic potential solves in closed
    form; any other model runs the node Newton (_newton_nodes) from
    Theta = 0, H_q and H_qq in its buffers where the model computes in
    place.  Computed in ws.b of the workspace ws (a new one when None),
    the slope of pi in ws.a; the Newton works in c to e.
    """
    pi, ws = _in_workspace(pi, ws)
    pi_dot = _grad(pi, dt, out=ws.a)
    if model.is_cyclic_in_q():
        raise UnsolvableRestrictionError(
            "H_q vanishes identically; position cannot be recovered from the momentum slope"
        )
    c = model._quadratic_potential()
    if c is not None:
        if c[2] == 0.0:
            raise UnsolvableRestrictionError("linear potential has H_qq = 0")
        theta = np.negative(pi_dot, out=ws.b)
        theta -= c[1]
        theta /= 2.0 * c[2]
        return theta
    p, p_dot = _columns(pi), _columns(pi_dot)
    hq, hqq = model._derivative(0, 1), model._derivative(0, 2)
    _newton_nodes(lambda x, out: np.add(hq(p, x, out), p_dot, out=out),
                  lambda x, out: hqq(p, x, out), 0.0, 1.0 + _peak(p_dot), out=_columns(ws.b),
                  work=(_columns(ws.c), _columns(ws.d), _columns(ws.e)))
    return ws.b


def _heun(rate, drive, dt, start):
    """x(t) solving dx/dt = rate(x, drive(t)) from start, by Heun steps along axis 0."""
    x = np.empty_like(drive)
    x[0] = start
    for j in range(len(drive) - 1):
        f0 = rate(x[j], drive[j])
        f1 = rate(x[j] + dt * f0, drive[j + 1])
        x[j + 1] = x[j] + 0.5 * dt * (f0 + f1)
    return x


def _restricted_momentum_ivp(model, theta, dt, pi_start, ws=None):
    """Pi(t) solving dPi/dt = -H_q(Pi, Theta(t)) from pi_start.

    A separable model integrates the force -H_q, in ws.a, by the
    cumulative trapezoid into ws.b (a new workspace when None); a general
    model steps Heun.
    """
    theta, ws = _in_workspace(theta, ws)
    hq = model._derivative(0, 1)
    if model.kind == "general":
        return _heun(lambda pi, th: -hq(pi, th), theta, dt, pi_start)
    force = np.negative(hq(0.0, theta, ws.a), out=ws.a)
    pi = _cumulative_trapezoid(force, dt, out=ws.b, gap=ws.gap)
    pi += pi_start
    return pi


def _value(quadrature):
    """A (value, rule) quadrature as a float for one path, one value per column of (nodes, k)."""
    value, _ = quadrature
    return float(value) if np.ndim(value) == 0 else value


def _action(model, P, Q, dt, which, ws, slope=None):
    """S (which = 's') or R ('r') of the paths, in ws: the integrand in a
    (which slope, when given, must be), H in c and d."""
    integrand = _integrand(model, P, Q, dt, which, slope, work=(ws.a, ws.c, ws.d))
    return _value(_quadrature(integrand, dt, ws.half, ws.gap))


# The four functionals take one path or a (nodes, k) array of k paths
# and return a float or k values.  J and G are S, G' is R, each on its
# restricted pair; J' integrates K with the restriction's own slope.
# Each computes in the workspace ws (a new one when None), as the
# restrictions do, and a certificate passes its own to every block.

def functional_J(model: HamiltonianModel, theta, dt, *, ws=None):
    """S evaluated on (Pi(Theta), Theta) with Pi from dTheta/dt = H_p, computed in ws."""
    theta, ws = _in_workspace(theta, ws)
    pi = pi_from_theta(model, theta, dt, ws=ws)
    return _action(model, pi, theta, dt, "s", ws, slope=ws.a)


def functional_G(model: HamiltonianModel, pi, dt, *, ws=None):
    """S evaluated on (Pi, Theta(Pi)) with Theta from dPi/dt = -H_q, computed in ws."""
    pi, ws = _in_workspace(pi, ws)
    return _action(model, pi, theta_from_pi(model, pi, dt, ws=ws), dt, "s", ws)


def functional_Jp(model: HamiltonianModel, theta, dt, pi_start, *, ws=None):
    """K-quadrature on (Pi(Theta), Theta) with Pi from dPi/dt = -H_q.

    The restriction is an initial-value problem anchored at the critical
    initial momentum, honouring the momentum-pinned endpoint condition.
    K is evaluated with the restriction value of dPi/dt, i.e.
    K = Theta H_q(Pi, Theta) - H(Pi, Theta), computed in ws.
    """
    theta, ws = _in_workspace(theta, ws)
    pi = _restricted_momentum_ivp(model, theta, dt, pi_start, ws)
    k = np.multiply(theta, model._derivative(0, 1)(pi, theta, ws.a), out=ws.a)
    k -= _energy(model, pi, theta, ws.c, ws.d)
    return _value(_quadrature(k, dt, ws.half, ws.gap))


def functional_Gp(model: HamiltonianModel, pi, dt, theta_start, *, ws=None):
    """R evaluated on (Pi, Theta(Pi)) with Theta from dTheta/dt = H_p.

    Theta starts at theta_start: a separable model integrates the velocity,
    in ws.a, by the cumulative trapezoid into ws.b; a general model steps Heun.
    """
    pi, ws = _in_workspace(pi, ws)
    if model.kind == "general":
        hp = model._derivative(1, 0)
        theta = _heun(lambda th, p: hp(p, th), pi, dt, theta_start)
    else:
        velocity = np.divide(pi, model.mass, out=ws.a)
        theta = _cumulative_trapezoid(velocity, dt, out=ws.b, gap=ws.gap)
        theta += theta_start
    return _action(model, pi, theta, dt, "r", ws)


_SHIFT_TOL = 1e-10  # |restricted Pi(end) - pi_end| a shift must reach
_SHIFT_MAX_ITER = 20
_SHIFT_FAIL = 1e-9  # share of the momentum's scale a miss may reach by rounding


def _compatibility_shift(model, theta, dt, pi_start, pi_end, ws=None, out=None):
    """Constant shift of Theta (of each column) making the restricted Pi hit pi_end.

    A separable model with potential coefficients, of any degree, solves
    the end's polynomial in the shift (_power_sum_shift); a model without
    them (general kind, callable V) runs the secant on the restricted IVP
    (_secant_shift).  Each column stops where a solve of that column alone
    would.  Returns the shifted Theta, in out (which may be theta) when
    given; raises RootFindError when a column misses pi_end (_check_shift),
    before out is written.  ws is the workspace of the solves (a new one
    when None).
    """
    theta, ws = _in_workspace(theta, ws)
    solve = _power_sum_shift if model._vcoeffs is not None else _secant_shift
    c, miss = solve(model, theta, dt, pi_start, pi_end, ws)
    _check_shift(model, theta, c, dt, pi_start, pi_end, miss)
    return np.add(theta, c, out=out)


def _secant_shift(model, theta, dt, pi_start, pi_end, ws):
    """(shift, mismatch) of each column by the secant on the restricted IVP's end.

    The route of a model without potential coefficients: each step runs
    the restricted momentum IVP over the block, on the shifted block in
    ws.c, and a column stops once its miss is within _SHIFT_TOL or stops
    changing.
    """
    def mismatch(c):
        shifted = np.add(theta, c, out=ws.c)
        return _restricted_momentum_ivp(model, shifted, dt, pi_start, ws)[-1] - pi_end

    c0 = np.zeros(theta.shape[1:])
    m0 = mismatch(c0)
    live = np.abs(m0) > _SHIFT_TOL
    if not np.any(live):
        return c0, m0
    c1 = np.where(live, 1e-3, 0.0)
    m1 = mismatch(c1)
    for _ in range(_SHIFT_MAX_ITER):
        live &= m1 != m0
        if not np.any(live):
            break
        c2 = c1 - m1 * (c1 - c0) / np.where(live, m1 - m0, 1.0)
        c0, m0 = np.where(live, c1, c0), np.where(live, m1, m0)
        c1 = np.where(live, c2, c1)
        m1 = np.where(live, mismatch(c1), m1)
        live &= np.abs(m1) > _SHIFT_TOL
    return c1, m1


def _power_sum_shift(model, theta, dt, pi_start, pi_end, ws):
    """(shift, mismatch) of each column by Newton on the end's polynomial in the shift.

    With V' = sum_i a_i q^i, the restricted momentum ends at
    pi_start - dt sum_k b_k c^k for the shift c, b_k = sum_i binom(i, k)
    a_i M_(i-k), from the power sums M_i = sum_j w_j Theta_j^i, w the
    trapezoid weights (1/2, 1, ..., 1, 1/2): M_0 is the interval count,
    and each other M_i the unit-spacing trapezoid of a column's i-th
    power, summed as a 1-d path is (_lane_major).  So each column's shift
    is that of the column alone, bit for bit.  The powers are built in
    ws.a and summed in ws.gap.  A potential of degree <= 2 makes the end
    affine in c, so one Newton step lands at rounding; a constant V'
    leaves the end independent of c, so no step is taken.
    """
    a = model._vcoeffs[1]
    lanes = _lane_major(theta)
    power = lanes
    sums = [theta.shape[0] - 1.0, _trapezoid(power, ws.gap)]
    for _ in range(2, len(a)):
        power = np.multiply(power, lanes, out=ws.a)
        sums.append(_trapezoid(power, ws.gap))
    b = [sum(math.comb(i, k) * a[i] * sums[i - k] for i in range(k, len(a)))
         for k in range(len(a))]
    slope = [k * b[k] for k in range(1, len(b))]

    def horner(coeffs, c):
        value = coeffs[-1]
        for coeff in coeffs[-2::-1]:
            value = value * c + coeff
        return value

    def mismatch(c):
        return (pi_start - dt * horner(b, c)) - pi_end

    c = np.zeros(theta.shape[1:])
    m = mismatch(c)
    live = (np.abs(m) > _SHIFT_TOL) & (len(a) > 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_SHIFT_MAX_ITER):
            if not np.any(live):
                break
            c = np.where(live, c + m / (dt * horner(slope, c)), c)
            m = np.where(live, mismatch(c), m)
            live &= np.abs(m) > _SHIFT_TOL
    return c, m


def _check_shift(model, theta, c, dt, pi_start, pi_end, miss):
    """Raise RootFindError when a column of theta shifted by c missed pi_end.

    A miss above _SHIFT_TOL, or not finite, raises unless it is within
    _SHIFT_FAIL (1 + max(|Pi|, |pi_end|)), Pi the shifted column's
    restricted momentum: a miss that small is rounding of the momentum's
    sum, which at a large momentum scale stays above the absolute
    _SHIFT_TOL.
    """
    missed = ~(np.abs(miss) <= _SHIFT_TOL)
    if not np.any(missed):
        return
    with np.errstate(all="ignore"):
        pi = _restricted_momentum_ivp(model, theta + c, dt, pi_start)
        scale = 1.0 + np.maximum(np.max(np.abs(pi), axis=0), abs(pi_end))
        if np.any(missed & ~(np.abs(miss) <= _SHIFT_FAIL * scale)):
            raise RootFindError("compatibility shift missed the momentum end")


@dataclass(frozen=True)
class BoundCertificate:
    chain: str
    samples: int
    violations: int
    worst_margin: float
    n_quad: int
    slack: float
    amplitude: float
    seed: int
    critical_value: float
    lower_values: np.ndarray  # G(Pi) samples for the S-chain, J'(Theta) for R
    upper_values: np.ndarray  # J(Theta) samples for the S-chain, G'(Pi) for R
    # how the values were computed, kept out of summary(): "quadratic-form"
    # or "blocked", and the columns passed through the two functionals
    method: str
    evaluations: int

    @property
    def margins_low(self):
        return self.critical_value - self.lower_values

    @property
    def margins_high(self):
        return self.upper_values - self.critical_value

    def summary(self):
        return {
            "chain": self.chain,
            "samples": self.samples,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "n_quad": self.n_quad,
            "slack": self.slack,
            "amplitude": self.amplitude,
            "seed": self.seed,
            "critical_value": self.critical_value,
        }

    def to_csv(self, path):
        lower_name, upper_name = (
            ("G_pi", "J_theta") if self.chain == "S-chain" else ("Jp_theta", "Gp_pi")
        )
        write_series(
            path,
            ["sample", lower_name, "critical", upper_name, "margin_lower_side",
             "margin_upper_side"],
            zip(range(self.samples), self.lower_values, repeat(self.critical_value),
                self.upper_values, self.margins_low, self.margins_high),
        )


def _draws(rng, mode_count, rows, constant):
    """(pinned, free) mode coefficients of the next rows samples, one row per sample.

    A row is the next 2 mode_count normals of rng (one more with
    constant): its sine coefficients, then its cosine coefficients and
    the constant-mode coefficient.  Generator.normal carries no spare
    value from one call to the next, so rows drawn block by block equal
    one draw of them all: sample idx takes normals idx k .. idx k + k - 1
    of the stream.
    """
    draws = rng.normal(size=(rows, 2 * mode_count + int(constant)))
    return draws[:, :mode_count], draws[:, mode_count:]


def _takes_quadratic_form(model):
    """True for a separable model whose potential has degree <= 2.

    Then J, G, J' and G' are exact quadratic functions of a sample's
    perturbation: Pi = m dTheta/dt, the closed-form Theta(Pi), the
    cumulative trapezoids and the compatibility shift are linear in it,
    the quadrature is a fixed weight vector, and H is quadratic.
    """
    return model._quadratic_potential() is not None


def _form_values(side, path_values, waves, coeffs, amplitude, rows):
    """Values of side(path_values + the series of each row of coeffs) from one quadratic form.

    waves is (d, nodes).  side is taken to be exactly quadratic in the
    perturbation waves.T @ x: with y = x / h, side = v0 + a.y + y.U.y, U
    upper triangular.  Polarization reads v0, a and U off the
    1 + 2d + d(d - 1)/2 columns x = 0, +-h e_i and h (e_i + e_j), i < j,
    evaluated _ROWS at a time at the samples' own scale h (the amplitude,
    or 1 when it is 0), each batch built in the transposed first rows of
    rows, a (_ROWS, nodes) buffer.  A sample with coefficients c and
    sup-norm scale s has y = (s / h) c, so it costs its peak,
    max |waves.T @ c|, and the form.  The peak is one row of the
    fixed-shape products that also build a block's series (_row_products,
    here in rows), and the form is summed term by term over the samples
    without BLAS: every product has one shape, so a sample's value does
    not depend on the sample count.  Returns the values and the number of
    columns evaluated.
    """
    d = len(waves)
    basis = np.ascontiguousarray(waves.T)
    h = amplitude if amplitude != 0.0 else 1.0
    eye = np.eye(d)
    i, j = np.triu_indices(d, k=1)
    steps = h * np.concatenate([np.zeros((1, d)), eye, -eye, eye[i] + eye[j]])
    f = np.empty(len(steps))
    for start in range(0, len(steps), _ROWS):
        batch = steps[start:start + _ROWS]
        columns = rows[:len(batch)].T
        f[start:start + _ROWS] = side(np.add(path_values[:, None], basis @ batch.T, out=columns))
    v0, plus, minus = f[0], f[1:d + 1], f[d + 1:2 * d + 1]
    linear = 0.5 * (plus - minus)
    form = np.diag(0.5 * (plus + minus) - v0)
    form[i, j] = f[2 * d + 1:] - plus[i] - plus[j] + v0

    n = len(coeffs)
    peak = np.concatenate([_peak(_row_products(coeffs[lo:lo + _ROWS], waves, rows)[:_ROWS].T)
                           for lo in range(0, n, _ROWS)])
    r = _scale(peak[:n], amplitude) / h
    c = coeffs.T  # one row per mode
    linear_part = sum(a * ck for a, ck in zip(linear, c))
    form_part = sum(ck * sum(u * cl for u, cl in zip(form[k, k:], c[k:]))
                    for k, ck in enumerate(c))
    return v0 + r * linear_part + r * r * form_part, len(steps)


def _quadrature_slack(model, path, s, r):
    """Tolerance of a bound: the four functionals' distance from S and R on the path itself."""
    dt = path.dt
    checks = [
        abs(functional_J(model, path.q, dt) - s),
        abs(functional_G(model, path.p, dt) - s),
        abs(functional_Jp(model, path.q, dt, path.p[0]) - r),
        abs(functional_Gp(model, path.p, dt, path.q[0]) - r),
    ]
    return DEFAULT_SLACK_FLOOR + 3.0 * max(checks)


def certify_bounds(model: HamiltonianModel, chain: str, bvp: ShootingReport,
                   spec: PerturbationSpec, samples: int) -> BoundCertificate:
    """Check one bound chain on seeded random perturbations of a critical path.

    S-chain: G(Pi) <= S <= J(Theta) with Theta pinned at the position
    endpoints and Pi free of endpoint constraints (but slope-pinned so
    the induced position restriction stays endpoint-matched).
    R-chain: J'(Theta) <= R <= G'(Pi) with Pi pinned at the momentum
    endpoints and Theta free (zero-mean so the induced momentum
    restriction stays endpoint-matched).

    One default_rng(spec.seed) per call draws every sample's mode
    coefficients: sample idx takes normals idx k .. idx k + k - 1 of its
    stream, k = 2d for d modes (2d + 1 with the S-chain's constant mode).
    So a sample's perturbation does not depend on the sample count: the
    first n samples of a longer certificate are those of an n-sample
    one, bit for bit.  A separable model whose potential has degree <= 2
    reads each side's values off one quadratic form in the mode
    coefficients (_form_values), built from 1 + 2d + d(d - 1)/2 columns
    whatever the sample count; any other model evaluates the samples in
    blocks, as the columns of (nodes, block) arrays.  Both evaluate their
    columns in one workspace per certificate (_Workspace).  The
    certificate records which (method) and the columns passed through
    the functionals (evaluations).  The samples compute with numpy's
    floating-point warnings off, and a sample whose margin is not finite
    counts as a violation.  The saddle probe box reaches one unit beyond
    the path and [-1, 1] on both axes.
    """
    if chain not in ("S-chain", "R-chain"):
        raise PreconditionError("chain must be 'S-chain' or 'R-chain'")
    if samples < 1:
        raise PreconditionError("certification needs samples >= 1")
    expected_pin = "q-pinned" if chain == "S-chain" else "p-pinned"
    if spec.pinned != expected_pin:
        raise PreconditionError(f"{chain} needs {expected_pin} perturbations")
    path = bvp.path
    box = DomainBox(
        min(path.p.min(), -1.0) - 1.0, max(path.p.max(), 1.0) + 1.0,
        min(path.q.min(), -1.0) - 1.0, max(path.q.max(), 1.0) + 1.0,
    )
    if saddle_probe(model, box) != "saddle":
        raise NotSaddleError("bound chains hold only for saddle Hamiltonians")

    dt = path.dt
    s_crit = action_s(model, path).value
    r_crit = action_r(model, path).value
    slack = _quadrature_slack(model, path, s_crit, r_crit)
    s_chain = chain == "S-chain"
    crit = s_crit if s_chain else r_crit
    # the pinned variable (Theta for S, Pi for R) gets the sine modes
    pinned_path, free_path = (path.q, path.p) if s_chain else (path.p, path.q)

    if s_chain:
        def upper(theta, ws):
            return functional_J(model, theta, dt, ws=ws)

        def lower(pi, ws):
            return functional_G(model, pi, dt, ws=ws)
    else:
        def upper(pi, ws):
            return functional_Gp(model, pi, dt, path.q[0], ws=ws)

        def lower(theta, ws):  # theta is the certificate's own block, shifted in place
            theta = _compatibility_shift(model, theta, dt, path.p[0], path.p[-1], ws, out=theta)
            return functional_Jp(model, theta, dt, path.p[0], ws=ws)

    sines = np.array(_mode_basis(path.times, spec.mode_count, np.sin))
    # the S-chain's free variable also gets a constant mode, a row of ones
    cosines = _mode_basis(path.times, spec.mode_count, np.cos)
    cosines = np.array(cosines + ([np.ones(path.times.size)] if s_chain else []))
    rng = np.random.default_rng(spec.seed)
    # one workspace for every block: the series go to the (rows, nodes) mode-sum
    # products, whose transposes are the blocks, and everything else to ws
    form = _takes_quadratic_form(model)
    nodes = path.p.size
    width = _ROWS if form else min(_block_size(model, nodes), samples)
    ws = _Workspace.of((nodes, width))
    pinned_rows, free_rows = (np.empty((-(-width // _ROWS) * _ROWS, nodes)) for _ in range(2))
    with np.errstate(all="ignore"):  # a sample past the float range is a violation
        if form:
            pinned, free = _draws(rng, spec.mode_count, samples, s_chain)

            def on_columns(side):
                return lambda columns: side(columns, ws.columns(columns.shape[1]))

            upper_values, upper_columns = _form_values(
                on_columns(upper), pinned_path, sines, pinned, spec.amplitude, pinned_rows)
            lower_values, lower_columns = _form_values(
                on_columns(lower), free_path, cosines, free, spec.amplitude, free_rows)
            method, evaluations = "quadratic-form", upper_columns + lower_columns
        else:
            lower_values, upper_values = (np.empty(samples) for _ in range(2))
            for start in range(0, samples, width):
                block = slice(start, min(start + width, samples))
                count = block.stop - block.start
                pinned, free = _draws(rng, spec.mode_count, count, s_chain)
                pinned = _series(sines, spec.amplitude, pinned, pinned_rows)
                pinned += pinned_path[:, None]
                free = _series(cosines, spec.amplitude, free, free_rows)
                free += free_path[:, None]
                try:
                    upper_values[block] = upper(pinned, ws.columns(count))
                    lower_values[block] = lower(free, ws.columns(count))
                except RootFindError:
                    # raise the error of the first failing sample, as a sample loop meets it;
                    # a failing block has written neither its pinned nor its free columns
                    for j in range(count):
                        upper(pinned[:, j:j + 1], ws.columns(1))
                        lower(free[:, j:j + 1], ws.columns(1))
                    raise
            method, evaluations = "blocked", 2 * samples

        margins = np.concatenate([crit - lower_values, upper_values - crit])
        violations = int(np.sum(~(margins >= -slack)))
    return BoundCertificate(
        chain=chain, samples=samples, violations=violations,
        worst_margin=float(np.min(margins)), n_quad=path.n_intervals,
        slack=float(slack), amplitude=spec.amplitude, seed=spec.seed,
        critical_value=crit, lower_values=lower_values, upper_values=upper_values,
        method=method, evaluations=evaluations,
    )
