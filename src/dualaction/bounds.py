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

import json
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .action import _cumulative_trapezoid, _grad, _quadrature, action_r, action_s
from .dynamics import PhasePath, ShootingReport
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


def _normalize(delta, amplitude):
    peak = np.max(np.abs(delta))
    if peak == 0.0:
        return delta
    return delta * (amplitude / peak)


def sine_series(times, amplitude, mode_count, rng):
    """Endpoint-vanishing random sine series with the given sup-norm."""
    t0, t1 = times[0], times[-1]
    u = (times - t0) / (t1 - t0)
    coeffs = rng.normal(size=mode_count)
    delta = sum(c * np.sin(np.pi * (k + 1) * u) for k, c in enumerate(coeffs))
    return _normalize(delta, amplitude)


def cosine_series(times, amplitude, mode_count, rng, include_constant=True):
    """Random cosine series; its derivative vanishes at both endpoints.

    Without the constant mode every term integrates to zero over the
    window, which keeps an integrated partner variable endpoint-matched.
    """
    t0, t1 = times[0], times[-1]
    u = (times - t0) / (t1 - t0)
    coeffs = rng.normal(size=mode_count)
    delta = sum(c * np.cos(np.pi * (k + 1) * u) for k, c in enumerate(coeffs))
    if include_constant:
        delta = delta + rng.normal()
    return _normalize(delta, amplitude)


def _newton_nodes(f, fprime, x0, tol_scale, max_iter=60):
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        r = f(x)
        if np.all(np.abs(r) <= 1e-11 * tol_scale):
            return x
        d = fprime(x)
        if np.any(d == 0) or not np.all(np.isfinite(d)):
            break
        x = x - r / d
    r = f(x)
    bad = np.abs(r) > 1e-9 * tol_scale
    if np.any(bad):
        raise RootFindError(
            "restriction root-find failed", node_index=int(np.flatnonzero(bad)[0])
        )
    return x


def pi_from_theta(model: HamiltonianModel, theta, dt):
    """Momentum samples solving dTheta/dt = H_p(Pi, Theta) node by node.

    Exact for separable models (Pi = m dTheta/dt); otherwise a
    vectorized Newton iteration (requires H_pp > 0 on the range).
    """
    theta = np.asarray(theta, dtype=float)
    theta_dot = _grad(theta, dt)
    if model.kind != "general":
        return model.mass * theta_dot
    hp = model._derivative(1, 0)
    hpp = model._derivative(2, 0)
    scale = 1.0 + np.max(np.abs(theta_dot))
    return _newton_nodes(
        lambda x: hp(x, theta) - theta_dot, lambda x: hpp(x, theta), theta_dot, scale
    )


def theta_from_pi(model: HamiltonianModel, pi, dt):
    """Position samples solving dPi/dt = -H_q(Pi, Theta) node by node.

    Requires the force to respond to position (H_qq != 0); a model
    cyclic in q (free particle) is unsolvable.
    """
    pi = np.asarray(pi, dtype=float)
    pi_dot = _grad(pi, dt)
    if model.is_cyclic_in_q():
        raise UnsolvableRestrictionError(
            "H_q vanishes identically; position cannot be recovered from the momentum slope"
        )
    if model.kind != "general" and model.potential_coeffs is not None \
            and len(model.potential_coeffs) <= 3:
        c = list(model.potential_coeffs) + [0.0, 0.0]
        if c[2] == 0.0:
            raise UnsolvableRestrictionError("linear potential has H_qq = 0")
        return (-pi_dot - c[1]) / (2.0 * c[2])
    hq = model._derivative(0, 1)
    hqq = model._derivative(0, 2)
    scale = 1.0 + np.max(np.abs(pi_dot))
    return _newton_nodes(
        lambda x: hq(pi, x) + pi_dot, lambda x: hqq(pi, x), np.zeros_like(pi), scale
    )


def _heun(rate, drive, dt, start):
    """x(t) solving dx/dt = rate(x, drive(t)) from start, by Heun steps."""
    x = np.empty_like(drive)
    x[0] = start
    for j in range(drive.size - 1):
        f0 = rate(x[j], drive[j])
        f1 = rate(x[j] + dt * f0, drive[j + 1])
        x[j + 1] = x[j] + 0.5 * dt * (f0 + f1)
    return x


def _restricted_momentum_ivp(model, theta, dt, pi_start):
    """Pi(t) solving dPi/dt = -H_q(Pi, Theta(t)) from pi_start."""
    theta = np.asarray(theta, dtype=float)
    if model.kind != "general":
        force = -model._v_derivative(1)(theta)
        return pi_start + _cumulative_trapezoid(force, dt)
    hq = model._derivative(0, 1)
    return _heun(lambda pi, th: -hq(pi, th), theta, dt, pi_start)


def _restricted_position_ivp(model, pi, dt, theta_start):
    """Theta(t) solving dTheta/dt = H_p(Pi(t), Theta) from theta_start."""
    pi = np.asarray(pi, dtype=float)
    if model.kind != "general":
        vel = pi / model.mass
        return theta_start + _cumulative_trapezoid(vel, dt)
    hp = model._derivative(1, 0)
    return _heun(lambda th, p: hp(p, th), pi, dt, theta_start)


def functional_J(model: HamiltonianModel, theta, dt, rule="auto"):
    """S evaluated on (Pi(Theta), Theta) with Pi from dTheta/dt = H_p."""
    theta = np.asarray(theta, dtype=float)
    pi = pi_from_theta(model, theta, dt)
    qdot = _grad(theta, dt)
    value, _ = _quadrature(pi * qdot - model.eval(pi, theta), dt, rule)
    return float(value)


def functional_G(model: HamiltonianModel, pi, dt, rule="auto"):
    """S evaluated on (Pi, Theta(Pi)) with Theta from dPi/dt = -H_q."""
    pi = np.asarray(pi, dtype=float)
    theta = theta_from_pi(model, pi, dt)
    qdot = _grad(theta, dt)
    value, _ = _quadrature(pi * qdot - model.eval(pi, theta), dt, rule)
    return float(value)


def functional_Jp(model: HamiltonianModel, theta, dt, pi_start, rule="auto"):
    """K-quadrature on (Pi(Theta), Theta) with Pi from dPi/dt = -H_q.

    The restriction is an initial-value problem anchored at the critical
    initial momentum, honouring the momentum-pinned endpoint condition.
    K is evaluated with the restriction value of dPi/dt, i.e.
    K = Theta H_q(Pi, Theta) - H(Pi, Theta).
    """
    theta = np.asarray(theta, dtype=float)
    pi = _restricted_momentum_ivp(model, theta, dt, pi_start)
    hq = model._derivative(0, 1)
    k = theta * hq(pi, theta) - model.eval(pi, theta)
    value, _ = _quadrature(k, dt, rule)
    return float(value)


def functional_Gp(model: HamiltonianModel, pi, dt, theta_start, rule="auto"):
    """K-quadrature on (Pi, Theta(Pi)) with Theta from dTheta/dt = H_p."""
    pi = np.asarray(pi, dtype=float)
    theta = _restricted_position_ivp(model, pi, dt, theta_start)
    pdot = _grad(pi, dt)
    k = -theta * pdot - model.eval(pi, theta)
    value, _ = _quadrature(k, dt, rule)
    return float(value)


def _compatibility_shift(model, theta, dt, pi_start, pi_end, tol=1e-10):
    """Constant shift of Theta making the restricted Pi hit pi_end.

    Exact in one step for potentials with constant curvature; secant
    otherwise.  Returns the shifted Theta.
    """
    def mismatch(c):
        return _restricted_momentum_ivp(model, theta + c, dt, pi_start)[-1] - pi_end

    c0, m0 = 0.0, mismatch(0.0)
    if abs(m0) <= tol:
        return theta
    c1 = 1e-3
    m1 = mismatch(c1)
    for _ in range(20):
        if m1 == m0:
            break
        c2 = c1 - m1 * (c1 - c0) / (m1 - m0)
        c0, m0, c1, m1 = c1, m1, c2, mismatch(c2)
        if abs(m1) <= tol:
            break
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

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)

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


def _quadrature_slack(model, path):
    s = action_s(model, path).value
    r = action_r(model, path).value
    dt = path.dt
    checks = [
        abs(functional_J(model, path.q, dt) - s),
        abs(functional_G(model, path.p, dt) - s),
        abs(functional_Jp(model, path.q, dt, path.p[0]) - r),
        abs(functional_Gp(model, path.p, dt, path.q[0]) - r),
    ]
    return DEFAULT_SLACK_FLOOR + 3.0 * max(checks)


def certify_bounds(model: HamiltonianModel, chain: str, bvp: ShootingReport,
                   spec: PerturbationSpec, samples: int,
                   probe_box: DomainBox | None = None) -> BoundCertificate:
    """Check one bound chain on seeded random perturbations of a critical path.

    S-chain: G(Pi) <= S <= J(Theta) with Theta pinned at the position
    endpoints and Pi free of endpoint constraints (but slope-pinned so
    the induced position restriction stays endpoint-matched).
    R-chain: J'(Theta) <= R <= G'(Pi) with Pi pinned at the momentum
    endpoints and Theta free (zero-mean so the induced momentum
    restriction stays endpoint-matched).
    """
    if chain not in ("S-chain", "R-chain"):
        raise PreconditionError("chain must be 'S-chain' or 'R-chain'")
    if samples < 1:
        raise PreconditionError("certification needs samples >= 1")
    expected_pin = "q-pinned" if chain == "S-chain" else "p-pinned"
    if spec.pinned != expected_pin:
        raise PreconditionError(f"{chain} needs {expected_pin} perturbations")
    path = bvp.path
    box = probe_box or DomainBox(
        min(path.p.min(), -1.0) - 1.0, max(path.p.max(), 1.0) + 1.0,
        min(path.q.min(), -1.0) - 1.0, max(path.q.max(), 1.0) + 1.0,
    )
    if saddle_probe(model, box) != "saddle":
        raise NotSaddleError("bound chains hold only for saddle Hamiltonians")

    dt = path.dt
    times = path.times
    slack = _quadrature_slack(model, path)
    s_crit = action_s(model, path).value
    r_crit = action_r(model, path).value

    lower_values = np.empty(samples)
    upper_values = np.empty(samples)
    for idx in range(samples):
        rng = np.random.default_rng((spec.seed, idx))
        if chain == "S-chain":
            theta = path.q + sine_series(times, spec.amplitude, spec.mode_count, rng)
            pi = path.p + cosine_series(times, spec.amplitude, spec.mode_count, rng)
            upper_values[idx] = functional_J(model, theta, dt)
            lower_values[idx] = functional_G(model, pi, dt)
        else:
            pi = path.p + sine_series(times, spec.amplitude, spec.mode_count, rng)
            theta_raw = path.q + cosine_series(
                times, spec.amplitude, spec.mode_count, rng, include_constant=False
            )
            theta = _compatibility_shift(model, theta_raw, dt, path.p[0], path.p[-1])
            upper_values[idx] = functional_Gp(model, pi, dt, path.q[0])
            lower_values[idx] = functional_Jp(model, theta, dt, path.p[0])

    crit = s_crit if chain == "S-chain" else r_crit
    margins = np.concatenate([crit - lower_values, upper_values - crit])
    violations = int(np.sum(margins < -slack))
    return BoundCertificate(
        chain=chain, samples=samples, violations=violations,
        worst_margin=float(np.min(margins)), n_quad=path.n_intervals,
        slack=float(slack), amplitude=spec.amplitude, seed=spec.seed,
        critical_value=crit, lower_values=lower_values, upper_values=upper_values,
    )
