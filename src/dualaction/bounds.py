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
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .action import (
    _action_values, _cumulative_trapezoid, _grad, _lane_major, _mode_basis, _mode_sum,
    _quadrature, _trapezoid, action_r, action_s,
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
        if self.mode_count < 1:
            raise PreconditionError("mode_count must be >= 1")


# Samples per batched block of a separable model, and rows of a
# quadratic-form peak product.  A (nodes, block) array of a 1000-interval
# path is 128 kB, so the few arrays alive at once stay in a 2 MB L2 cache;
# 16 was the fastest of 8, 16, 24, 32 and 64 samples on a 2-vCPU Xeon VM,
# at 1000 and 2000 intervals.  For the peaks of 1000 samples of 9 modes at
# 1000 intervals, one product over all samples took 1.56 ms against 1.19 ms
# in rows of 16 (1.08-1.52 ms for 8 to 64), and needs an 8 MB array.
_BLOCK = 16
# Nodes times samples of a general-kind block: 8 MB per (nodes, block) array
_GENERAL_BLOCK_POINTS = 1 << 20


def _block_size(model, nodes):
    """Samples per block.  A general-kind model steps its restricted IVPs
    through the nodes in a Python loop (_heun) once per block, which costs
    far more than cache misses, so its blocks are as wide as memory allows:
    1000 samples of a 1000-interval path are one block."""
    if model.kind != "general":
        return _BLOCK
    return max(_BLOCK, _GENERAL_BLOCK_POINTS // nodes)


def _scale(peak, amplitude):
    """Factor taking a series of sup-norm peak to sup-norm amplitude; 1 for a zero series."""
    zero = peak == 0.0
    return np.where(zero, 1.0, amplitude / np.where(zero, 1.0, peak))


def _series(basis, amplitude, coeffs):
    """Columns sum_k coeffs[j, k] basis[k], each scaled to sup-norm amplitude
    (an all-zero column stays); a constant mode, added last, adds its
    coefficient exactly."""
    delta = _mode_sum(basis, coeffs)
    return delta * _scale(np.max(np.abs(delta), axis=0), amplitude)


_NEWTON_MAX_ITER = 60


def _newton_nodes(f, fprime, x0, tol_scale):
    """Solve f(x, cols) = 0 node by node on a (nodes, columns) array.

    f and fprime take the iterate of the columns cols (an index array)
    and evaluate those columns alone, so a column costs nothing once it
    stops.  Each column iterates until all its nodes meet the tolerance,
    or until a derivative of its own is zero or non-finite, exactly as a
    solve of that column alone would; tol_scale holds one scale per
    column.
    """
    x = np.array(x0, dtype=float)
    converged = np.zeros(x.shape[1], dtype=bool)
    live = np.arange(x.shape[1])
    for _ in range(_NEWTON_MAX_ITER):
        xl = x[:, live]
        r = f(xl, live)
        done = np.all(np.abs(r) <= 1e-11 * tol_scale[live], axis=0)
        converged[live[done]] = True
        if np.all(done):
            break
        if np.any(done):
            live, xl, r = live[~done], xl[:, ~done], r[:, ~done]
        d = fprime(xl, live)
        ok = np.all((d != 0) & np.isfinite(d), axis=0)
        if not np.all(ok):
            live, xl, r, d = live[ok], xl[:, ok], r[:, ok], d[:, ok]
            if not live.size:
                break
        x[:, live] = xl - r / d
    if np.all(converged):
        return x
    rest = np.flatnonzero(~converged)
    bad = np.abs(f(x[:, rest], rest)) > 1e-9 * tol_scale[rest]
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


def pi_from_theta(model: HamiltonianModel, theta, dt):
    """Momentum samples solving dTheta/dt = H_p(Pi, Theta) node by node.

    theta is one path or a (nodes, k) array of k paths.  Exact for
    separable models (Pi = m dTheta/dt); otherwise a vectorized Newton
    iteration (requires H_pp > 0 on the range).
    """
    theta = np.asarray(theta, dtype=float)
    theta_dot = _grad(theta, dt)
    if model.kind != "general":
        return model.mass * theta_dot
    hp = model._derivative(1, 0)
    hpp = model._derivative(2, 0)
    th, th_dot = _columns(theta), _columns(theta_dot)
    scale = 1.0 + np.max(np.abs(th_dot), axis=0)
    pi = _newton_nodes(
        lambda x, k: hp(x, th[:, k]) - th_dot[:, k], lambda x, k: hpp(x, th[:, k]), th_dot, scale
    )
    return pi.reshape(theta.shape)


def theta_from_pi(model: HamiltonianModel, pi, dt):
    """Position samples solving dPi/dt = -H_q(Pi, Theta) node by node.

    pi is one path or a (nodes, k) array of k paths.  Requires the force
    to respond to position (H_qq != 0); a model cyclic in q (free
    particle) is unsolvable.  A separable model's H_q = V'(Theta) and
    H_qq = V''(Theta) do not depend on Pi.
    """
    pi = np.asarray(pi, dtype=float)
    pi_dot = _grad(pi, dt)
    if model.is_cyclic_in_q():
        raise UnsolvableRestrictionError(
            "H_q vanishes identically; position cannot be recovered from the momentum slope"
        )
    c = model._quadratic_potential()
    if c is not None:
        if c[2] == 0.0:
            raise UnsolvableRestrictionError("linear potential has H_qq = 0")
        return (-pi_dot - c[1]) / (2.0 * c[2])
    p, p_dot = _columns(pi), _columns(pi_dot)
    scale = 1.0 + np.max(np.abs(p_dot), axis=0)
    if model.kind != "general":
        v1, v2 = model._v_derivative(1), model._v_derivative(2)
        f, fprime = (lambda x, k: v1(x) + p_dot[:, k]), (lambda x, k: v2(x))
    else:
        hq, hqq = model._derivative(0, 1), model._derivative(0, 2)
        f, fprime = (lambda x, k: hq(p[:, k], x) + p_dot[:, k]), (lambda x, k: hqq(p[:, k], x))
    theta = _newton_nodes(f, fprime, np.zeros_like(p), scale)
    return theta.reshape(pi.shape)


def _h_q(model):
    """Callable (p, q) -> H_q, by Horner's rule for polynomial separable models.

    The value may be a scalar (constant H_q); it broadcasts against p and q.
    """
    if model.kind != "general":
        field = model.vector_field()
        return lambda p, q: field(0.0, q)[1]  # a separable H_q does not depend on p
    return model._derivative(0, 1)


def _heun(rate, drive, dt, start):
    """x(t) solving dx/dt = rate(x, drive(t)) from start, by Heun steps along axis 0."""
    x = np.empty_like(drive)
    x[0] = start
    for j in range(len(drive) - 1):
        f0 = rate(x[j], drive[j])
        f1 = rate(x[j] + dt * f0, drive[j + 1])
        x[j + 1] = x[j] + 0.5 * dt * (f0 + f1)
    return x


def _restricted_momentum_ivp(model, theta, dt, pi_start):
    """Pi(t) solving dPi/dt = -H_q(Pi, Theta(t)) from pi_start."""
    theta = np.asarray(theta, dtype=float)
    hq = _h_q(model)
    if model.kind != "general":
        force = np.broadcast_to(-hq(0.0, theta), theta.shape)
        return pi_start + _cumulative_trapezoid(force, dt)
    return _heun(lambda pi, th: -hq(pi, th), theta, dt, pi_start)


def _restricted_position_ivp(model, pi, dt, theta_start):
    """Theta(t) solving dTheta/dt = H_p(Pi(t), Theta) from theta_start."""
    pi = np.asarray(pi, dtype=float)
    if model.kind != "general":
        vel = pi / model.mass
        return theta_start + _cumulative_trapezoid(vel, dt)
    hp = model._derivative(1, 0)
    return _heun(lambda th, p: hp(p, th), pi, dt, theta_start)


def _value(quadrature):
    """A (value, rule) quadrature as a float for one path, one value per column of (nodes, k)."""
    value, _ = quadrature
    return float(value) if np.ndim(value) == 0 else value


# The four functionals take one path or a (nodes, k) array of k paths
# and return a float or k values.  J and G are S, G' is R, each on its
# restricted pair; J' integrates K with the restriction's own slope.

def functional_J(model: HamiltonianModel, theta, dt):
    """S evaluated on (Pi(Theta), Theta) with Pi from dTheta/dt = H_p."""
    theta = np.asarray(theta, dtype=float)
    return _value(_action_values(model, pi_from_theta(model, theta, dt), theta, dt, "s"))


def functional_G(model: HamiltonianModel, pi, dt):
    """S evaluated on (Pi, Theta(Pi)) with Theta from dPi/dt = -H_q."""
    pi = np.asarray(pi, dtype=float)
    return _value(_action_values(model, pi, theta_from_pi(model, pi, dt), dt, "s"))


def functional_Jp(model: HamiltonianModel, theta, dt, pi_start):
    """K-quadrature on (Pi(Theta), Theta) with Pi from dPi/dt = -H_q.

    The restriction is an initial-value problem anchored at the critical
    initial momentum, honouring the momentum-pinned endpoint condition.
    K is evaluated with the restriction value of dPi/dt, i.e.
    K = Theta H_q(Pi, Theta) - H(Pi, Theta).
    """
    theta = np.asarray(theta, dtype=float)
    pi = _restricted_momentum_ivp(model, theta, dt, pi_start)
    k = theta * _h_q(model)(pi, theta) - model.eval(pi, theta)
    return _value(_quadrature(k, dt))


def functional_Gp(model: HamiltonianModel, pi, dt, theta_start):
    """R evaluated on (Pi, Theta(Pi)) with Theta from dTheta/dt = H_p."""
    pi = np.asarray(pi, dtype=float)
    theta = _restricted_position_ivp(model, pi, dt, theta_start)
    return _value(_action_values(model, pi, theta, dt, "r"))


_SHIFT_TOL = 1e-10  # |restricted Pi(end) - pi_end| a shift must reach
_SHIFT_MAX_ITER = 20
_SHIFT_FAIL = 1e-9  # share of the momentum's scale a miss may reach by rounding


def _compatibility_shift(model, theta, dt, pi_start, pi_end):
    """Constant shift of Theta (of each column) making the restricted Pi hit pi_end.

    A separable model with potential coefficients, of any degree, solves
    the end's polynomial in the shift (_power_sum_shift); a model without
    them (general kind, callable V) runs the secant on the restricted IVP
    (_secant_shift).  Each column stops where a solve of that column alone
    would.  Returns the shifted Theta; raises RootFindError when a column
    misses pi_end (_check_shift).
    """
    theta = np.asarray(theta, dtype=float)
    polynomial = model.kind != "general" and model._vcoeffs is not None
    solve = _power_sum_shift if polynomial else _secant_shift
    c, miss = solve(model, theta, dt, pi_start, pi_end)
    shifted = theta + c
    _check_shift(model, shifted, dt, pi_start, pi_end, miss)
    return shifted


def _secant_shift(model, theta, dt, pi_start, pi_end):
    """(shift, mismatch) of each column by the secant on the restricted IVP's end.

    The route of a model without potential coefficients: each step runs
    the restricted momentum IVP over the block, and a column stops once
    its miss is within _SHIFT_TOL or stops changing.
    """
    def mismatch(c):
        return _restricted_momentum_ivp(model, theta + c, dt, pi_start)[-1] - pi_end

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


def _power_sum_shift(model, theta, dt, pi_start, pi_end):
    """(shift, mismatch) of each column by Newton on the end's polynomial in the shift.

    With V' = sum_i a_i q^i, the restricted momentum ends at
    pi_start - dt sum_k b_k c^k for the shift c, b_k = sum_i binom(i, k)
    a_i M_(i-k), from the power sums M_i = sum_j w_j Theta_j^i, w the
    trapezoid weights (1/2, 1, ..., 1, 1/2): M_0 is the interval count,
    and each other M_i the unit-spacing trapezoid of a column's i-th
    power, summed as a 1-d path is (_lane_major).  So each column's shift
    is that of the column alone, bit for bit.  A potential of degree <= 2
    makes the end affine in c, so one Newton step lands at rounding; a
    constant V' leaves the end independent of c, so no step is taken.
    """
    a = model._vcoeffs[1]
    lanes = _lane_major(theta)
    power = lanes
    sums = [theta.shape[0] - 1.0, _trapezoid(power)]
    for _ in range(2, len(a)):
        power = power * lanes
        sums.append(_trapezoid(power))
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


def _check_shift(model, theta, dt, pi_start, pi_end, miss):
    """Raise RootFindError when a shifted column missed pi_end.

    A miss above _SHIFT_TOL, or not finite, raises unless it is within
    _SHIFT_FAIL (1 + max(|Pi|, |pi_end|)), Pi the column's restricted
    momentum: a miss that small is rounding of the momentum's sum, which
    at a large momentum scale stays above the absolute _SHIFT_TOL.
    """
    missed = ~(np.abs(miss) <= _SHIFT_TOL)
    if not np.any(missed):
        return
    with np.errstate(all="ignore"):
        pi = _restricted_momentum_ivp(model, theta, dt, pi_start)
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


def _form_values(side, path_values, basis, coeffs, amplitude):
    """Values of side(path_values + the series of each row of coeffs) from one quadratic form.

    basis is (nodes, d).  side is taken to be exactly quadratic in the
    perturbation basis @ x: with y = x / h, side = v0 + a.y + y.U.y, U
    upper triangular.  Polarization reads v0, a and U off the
    1 + 2d + d(d - 1)/2 columns x = 0, +-h e_i and h (e_i + e_j), i < j,
    evaluated _BLOCK at a time at the samples' own scale h (the amplitude,
    or 1 when it is 0).  A sample with coefficients c and sup-norm scale s
    has y = (s / h) c, so it costs its peak, max |basis @ c|, and the form.
    The peak is one row of a (_BLOCK, d) @ (d, nodes) product, the last
    block padded with zero rows, and the form is summed term by term over
    the samples without BLAS: every product has one shape, so a sample's
    value does not depend on the sample count.  Returns the values and the
    number of columns evaluated.
    """
    d = basis.shape[1]
    h = amplitude if amplitude != 0.0 else 1.0
    eye = np.eye(d)
    i, j = np.triu_indices(d, k=1)
    steps = h * np.concatenate([np.zeros((1, d)), eye, -eye, eye[i] + eye[j]])
    f = np.empty(len(steps))
    for start in range(0, len(steps), _BLOCK):
        rows = slice(start, start + _BLOCK)
        f[rows] = side(path_values[:, None] + basis @ steps[rows].T)
    v0, plus, minus = f[0], f[1:d + 1], f[d + 1:2 * d + 1]
    linear = 0.5 * (plus - minus)
    form = np.diag(0.5 * (plus + minus) - v0)
    form[i, j] = f[2 * d + 1:] - plus[i] - plus[j] + v0

    n = len(coeffs)
    padded = np.zeros((-(-n // _BLOCK) * _BLOCK, d))
    padded[:n] = coeffs
    waves = np.ascontiguousarray(basis.T)
    peak = np.empty(len(padded))
    for start in range(0, len(padded), _BLOCK):
        v = padded[start:start + _BLOCK] @ waves
        peak[start:start + _BLOCK] = np.maximum(v.max(axis=1), -v.min(axis=1))
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
    blocks, as the columns of (nodes, block) arrays.  The certificate
    records which (method) and the columns passed through the
    functionals (evaluations).  The saddle probe box reaches one unit
    beyond the path and [-1, 1] on both axes.
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
        def upper(theta):
            return functional_J(model, theta, dt)

        def lower(pi):
            return functional_G(model, pi, dt)
    else:
        def upper(pi):
            return functional_Gp(model, pi, dt, path.q[0])

        def lower(theta):
            theta = _compatibility_shift(model, theta, dt, path.p[0], path.p[-1])
            return functional_Jp(model, theta, dt, path.p[0])

    sines = _mode_basis(path.times, spec.mode_count, np.sin)
    # the S-chain's free variable also gets a constant mode, a row of ones
    cosines = _mode_basis(path.times, spec.mode_count, np.cos)
    cosines += [np.ones(path.times.size)] if s_chain else []
    rng = np.random.default_rng(spec.seed)
    if _takes_quadratic_form(model):
        pinned, free = _draws(rng, spec.mode_count, samples, s_chain)
        upper_values, upper_columns = _form_values(
            upper, pinned_path, np.stack(sines, axis=1), pinned, spec.amplitude)
        lower_values, lower_columns = _form_values(
            lower, free_path, np.stack(cosines, axis=1), free, spec.amplitude)
        method, evaluations = "quadratic-form", upper_columns + lower_columns
    else:
        lower_values = np.empty(samples)
        upper_values = np.empty(samples)
        size = _block_size(model, path.p.size)
        for start in range(0, samples, size):
            block = slice(start, min(start + size, samples))
            pinned, free = _draws(rng, spec.mode_count, block.stop - block.start, s_chain)
            pinned = pinned_path[:, None] + _series(sines, spec.amplitude, pinned)
            free = free_path[:, None] + _series(cosines, spec.amplitude, free)
            try:
                upper_values[block] = upper(pinned)
                lower_values[block] = lower(free)
            except RootFindError:
                # raise the error of the first failing sample, as a sample loop meets it
                for j in range(pinned.shape[1]):
                    upper(pinned[:, j:j + 1])
                    lower(free[:, j:j + 1])
                raise
        method, evaluations = "blocked", 2 * samples

    margins = np.concatenate([crit - lower_values, upper_values - crit])
    violations = int(np.sum(margins < -slack))
    return BoundCertificate(
        chain=chain, samples=samples, violations=violations,
        worst_margin=float(np.min(margins)), n_quad=path.n_intervals,
        slack=float(slack), amplitude=spec.amplitude, seed=spec.seed,
        critical_value=crit, lower_values=lower_values, upper_values=upper_values,
        method=method, evaluations=evaluations,
    )
