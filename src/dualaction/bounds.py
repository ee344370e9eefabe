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

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .action import _action_values, _cumulative_trapezoid, _grad, _quadrature, action_r, action_s
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


# Samples per batched block of a separable model.  A (nodes, block)
# array of a 1000-interval path is 128 kB, so the few arrays alive at
# once stay in a 2 MB L2 cache; 16 was the fastest of 8, 16, 24, 32 and
# 64 samples on a 2-vCPU Xeon VM, at 1000 and 2000 intervals.
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


def _normalize(delta, amplitude):
    """Scale each column of delta to sup-norm amplitude (all-zero columns stay)."""
    return delta * _scale(np.max(np.abs(delta), axis=0), amplitude)


def _mode_basis(times, mode_count, wave):
    """Rows wave(pi (k + 1) u), k < mode_count, with u running from 0 to 1 over times."""
    t0, t1 = times[0], times[-1]
    u = (times - t0) / (t1 - t0)
    return [wave(np.pi * (k + 1) * u) for k in range(mode_count)]


def _free_basis(times, mode_count, constant):
    """Cosine modes, then (with constant) the constant mode, a row of ones."""
    basis = _mode_basis(times, mode_count, np.cos)
    return basis + [np.ones(times.size)] if constant else basis


def _series(basis, amplitude, coeffs):
    """Columns sum_k coeffs[j, k] basis[k], each of sup-norm amplitude.

    The modes are added in k order, as a sum over the modes of one
    sample would add them; a constant mode, added last, adds its
    coefficient exactly.
    """
    delta = np.zeros((basis[0].size, coeffs.shape[0]))
    term = np.empty_like(delta)
    for k, mode in enumerate(basis):
        delta += np.multiply(mode[:, None], coeffs[:, k], out=term)
    return _normalize(delta, amplitude)


def sine_series(times, amplitude, mode_count, rng):
    """Endpoint-vanishing random sine series with the given sup-norm."""
    basis = _mode_basis(times, mode_count, np.sin)
    return _series(basis, amplitude, rng.normal(size=(1, mode_count)))[:, 0]


def cosine_series(times, amplitude, mode_count, rng, include_constant=True):
    """Random cosine series; its derivative vanishes at both endpoints.

    Without the constant mode every term integrates to zero over the
    window, which keeps an integrated partner variable endpoint-matched.
    """
    basis = _free_basis(times, mode_count, include_constant)
    return _series(basis, amplitude, rng.normal(size=(1, len(basis))))[:, 0]


_NEWTON_MAX_ITER = 60


def _newton_nodes(f, fprime, x0, tol_scale):
    """Solve f(x) = 0 node by node on a (nodes, columns) array.

    Each column iterates until all its nodes meet the tolerance, or
    until a derivative of its own is zero or non-finite, exactly as a
    solve of that column alone would; tol_scale holds one scale per
    column.
    """
    x = np.array(x0, dtype=float)
    converged = np.zeros(x.shape[1], dtype=bool)
    live = ~converged
    for _ in range(_NEWTON_MAX_ITER):
        r = f(x)
        converged |= live & np.all(np.abs(r) <= 1e-11 * tol_scale, axis=0)
        live &= ~converged
        if not np.any(live):
            break
        d = fprime(x)
        live &= np.all((d != 0) & np.isfinite(d), axis=0)
        if np.all(live):
            x -= r / d
        else:
            x[:, live] -= r[:, live] / d[:, live]
    if np.all(converged):
        return x
    bad = np.abs(f(x)) > 1e-9 * tol_scale
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
        lambda x: hp(x, th) - th_dot, lambda x: hpp(x, th), th_dot, scale
    )
    return pi.reshape(theta.shape)


def theta_from_pi(model: HamiltonianModel, pi, dt):
    """Position samples solving dPi/dt = -H_q(Pi, Theta) node by node.

    pi is one path or a (nodes, k) array of k paths.  Requires the force
    to respond to position (H_qq != 0); a model cyclic in q (free
    particle) is unsolvable.
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
    hq = _h_q(model)
    hqq = model._derivative(0, 2)
    p, p_dot = _columns(pi), _columns(pi_dot)
    scale = 1.0 + np.max(np.abs(p_dot), axis=0)
    theta = _newton_nodes(
        lambda x: hq(p, x) + p_dot, lambda x: hqq(p, x), np.zeros_like(p), scale
    )
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


def _compatibility_shift(model, theta, dt, pi_start, pi_end):
    """Constant shift of Theta (of each column) making the restricted Pi hit pi_end.

    Exact in one step for potentials with constant curvature; secant
    otherwise, each column stopping where a solve of that column alone
    would.  Returns the shifted Theta.
    """
    theta = np.asarray(theta, dtype=float)

    def mismatch(c):
        return _restricted_momentum_ivp(model, theta + c, dt, pi_start)[-1] - pi_end

    c0 = np.zeros(theta.shape[1:])
    m0 = mismatch(c0)
    live = np.abs(m0) > _SHIFT_TOL
    if not np.any(live):
        return theta
    c1 = np.where(live, 1e-3, 0.0)
    m1 = mismatch(c1)
    for _ in range(20):
        live &= m1 != m0
        if not np.any(live):
            break
        c2 = c1 - m1 * (c1 - c0) / np.where(live, m1 - m0, 1.0)
        c0, m0 = np.where(live, c1, c0), np.where(live, m1, m0)
        c1 = np.where(live, c2, c1)
        m1 = np.where(live, mismatch(c1), m1)
        live &= np.abs(m1) > _SHIFT_TOL
    return theta + c1


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


def _draws(spec, start, stop, constant):
    """(pinned, free) mode coefficients of samples start..stop-1, one row per sample.

    Sample idx draws from its own default_rng((spec.seed, idx)): its sine
    coefficients, then its cosine coefficients and (with constant) its
    constant-mode coefficient.  The generators are made one at a time.
    """
    d = spec.mode_count
    draws = np.empty((stop - start, 2 * d + int(constant)))
    for row, idx in enumerate(range(start, stop)):
        draws[row] = np.random.default_rng((spec.seed, idx)).normal(size=draws.shape[1])
    return draws[:, :d], draws[:, d:]


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
    has y = (s / h) c, so it costs its peak, max |basis @ c| (_BLOCK
    samples per product), and the form.  Returns the values and the
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

    values = np.empty(len(coeffs))
    for start in range(0, len(coeffs), _BLOCK):
        rows = slice(start, start + _BLOCK)
        c = coeffs[rows]
        r = _scale(np.max(np.abs(basis @ c.T), axis=0), amplitude) / h
        values[rows] = v0 + r * (c @ linear) + r * r * np.sum((c @ form) * c, axis=1)
    return values, len(steps)


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

    Sample idx draws from default_rng((spec.seed, idx)).  A separable
    model whose potential has degree <= 2 reads each side's values off
    one quadratic form in the mode coefficients (_form_values), built
    from 1 + 2d + d(d - 1)/2 columns for d modes whatever the sample
    count; any other model evaluates the samples in blocks, as the
    columns of (nodes, block) arrays.  The certificate records which
    (method) and the columns passed through the functionals
    (evaluations).  The saddle probe box reaches one unit beyond the path
    and [-1, 1] on both axes.
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
    # the S-chain's free variable also gets a constant mode
    cosines = _free_basis(path.times, spec.mode_count, s_chain)
    if _takes_quadratic_form(model):
        pinned, free = _draws(spec, 0, samples, s_chain)
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
            pinned, free = _draws(spec, block.start, block.stop, s_chain)
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
