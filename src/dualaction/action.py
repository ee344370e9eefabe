"""Action functionals on discrete phase paths and their consistency checks.

S integrates p q' - H with position endpoints in mind; R integrates
-(q p' + H) with momentum endpoints.  The two are linked by the boundary
term [pq], checked here as a residual, and each generates a
Hamilton-Jacobi equation that is verified on numerically built action
surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PhasePath, _blow_up, _shoot_batch
from .errors import PreconditionError
from .model import HamiltonianModel
from .series import write_series


@dataclass(frozen=True)
class ActionValue:
    value: float
    rule: str
    n_intervals: int

    def __float__(self):
        return self.value


def _trapezoid(y):
    """Unit-spacing trapezoid rule along axis 0."""
    return np.sum((y[1:] + y[:-1]) / 2.0, axis=0)


def _cumulative_trapezoid(y, dt, axis=0):
    """Running trapezoid integral of y along axis from its first node, starting at 0."""
    y = np.moveaxis(np.asarray(y, dtype=float), axis, 0)
    out = np.zeros(y.shape)
    np.cumsum(dt * (y[1:] + y[:-1]) / 2.0, axis=0, out=out[1:])
    return np.moveaxis(out, 0, axis)


def _simpson(y):
    """Unit-spacing composite Simpson rule along axis 0 (at least 3 nodes).

    An odd number of intervals closes with Cartwright's correction for
    the last one.  The operations follow scipy.integrate.simpson in
    order, so the values agree bit for bit.
    """
    m = y.shape[0] if y.shape[0] % 2 else y.shape[0] - 1
    total = np.sum(y[0:m - 2:2] + 4.0 * y[1:m - 1:2] + y[2:m:2], axis=0) * (1.0 / 3.0)
    if m == y.shape[0]:
        return total
    return total + (5 / 12 * y[-1] + 4 / 6 * y[-2] - 1 / 12 * y[-3])


def _quadrature(y, dt):
    """Composite quadrature along axis 0 and the rule used: Simpson on an
    even interval count, trapezoid otherwise.  dt may be per-lane (array)
    spacing."""
    if (y.shape[0] - 1) % 2 == 0:
        return _simpson(y) * dt, "simpson"
    return _trapezoid(y) * dt, "trapezoid"


def _grad(y, dt, axis=0):
    edge = 2 if y.shape[axis] >= 3 else 1
    return np.gradient(y, 1.0, axis=axis, edge_order=edge) / dt


def _action_s_values(model, P, Q, dt):
    qdot = _grad(Q, dt)
    integrand = P * qdot - model.eval(P, Q)
    return _quadrature(integrand, dt)


def _action_r_values(model, P, Q, dt):
    pdot = _grad(P, dt)
    integrand = -(Q * pdot + model.eval(P, Q))
    return _quadrature(integrand, dt)


def action_s(model: HamiltonianModel, path: PhasePath) -> ActionValue:
    """Quadrature of p q' - H(p, q) along the path (q' by centered differences)."""
    value, used = _action_s_values(model, path.p, path.q, path.dt)
    return ActionValue(float(value), used, path.n_intervals)


def action_r(model: HamiltonianModel, path: PhasePath) -> ActionValue:
    """Quadrature of -(q p' + H(p, q)) along the path."""
    value, used = _action_r_values(model, path.p, path.q, path.dt)
    return ActionValue(float(value), used, path.n_intervals)


def legendre_residual(model: HamiltonianModel, path: PhasePath) -> float:
    """S - R - ([pq] at t_end - [pq] at t_start); -> 0 as the grid refines.

    Integration by parts fixes the boundary-term sign as written here:
    the free-particle numbers (S = 1/2, R = -1/2, boundary term 1)
    confirm it.
    """
    s = action_s(model, path).value
    r = action_r(model, path).value
    boundary = path.p[-1] * path.q[-1] - path.p[0] * path.q[0]
    return float(s - r - boundary)


def k_total_derivative_residual(model: HamiltonianModel, path: PhasePath) -> float:
    """Max interior-node defect of dK/dt + q p'' + q' p' for K = -q p' - H.

    Meaningful (O(dt^2) small) only on critical paths of an autonomous
    model; arbitrary paths are accepted but carry no contract.
    """
    dt = path.dt
    pdot = _grad(path.p, dt)
    qdot = _grad(path.q, dt)
    pddot = _grad(pdot, dt)
    K = -path.q * pdot - model.eval(path.p, path.q)
    dKdt = _grad(K, dt)
    defect = dKdt + path.q * pddot + qdot * pdot
    interior = defect[2:-2] if defect.size > 4 else defect
    return float(np.max(np.abs(interior)))


@dataclass(frozen=True)
class SurfaceResidualField:
    """Hamilton-Jacobi residuals on an action surface over (endpoint, t).

    values are indexed [t_index, endpoint_index]; nodes where any of the
    required boundary-value solves was degenerate or infeasible are
    masked out (valid == False) and excluded from the max views.
    """

    endpoint_name: str
    endpoints: np.ndarray
    times: np.ndarray
    surface: np.ndarray
    hj: np.ndarray
    companion: np.ndarray
    valid: np.ndarray

    def max_abs_hj(self):
        if not np.any(self.valid):
            return float("nan")
        return float(np.max(np.abs(self.hj[self.valid])))

    def max_abs_companion(self):
        ok = self.valid & np.isfinite(self.companion)
        if not np.any(ok):
            return float("nan")
        return float(np.max(np.abs(self.companion[ok])))

    def to_csv(self, path):
        write_series(path, [self.endpoint_name, "t", "residual"], (
            (x, t, self.hj[i, j])
            for i, t in enumerate(self.times) for j, x in enumerate(self.endpoints)
            if self.valid[i, j]
        ))


def _solved_actions(model, start_value, targets, horizons, n_steps, shoot_on, evaluate):
    """Batch-shoot (target, horizon) pairs; return per-pair action values,
    endpoint data of the conjugate variable, and a validity mask."""
    targets = np.asarray(targets, dtype=float)
    horizons = np.asarray(horizons, dtype=float)
    # the plain scan: a surface's many lanes make a sweep cost arithmetic, not overhead
    shots = _shoot_batch(model, start_value, targets, (0.0, horizons), n_steps, shoot_on,
                         density=1)
    ok = shots.flags == "unique"
    P, Q = shots.P, shots.Q
    with np.errstate(all="ignore"):  # infeasible or overflowed lanes are masked by ok
        values, _ = evaluate(model, P, Q, horizons / n_steps)
    conjugate_end = P[-1] if shoot_on == "p0" else Q[-1]
    return np.asarray(values), conjugate_end, ok


def _hj_surface(model, start_value, endpoint_values, t_values, n_steps, fd_step, shoot_on, evaluate):
    """Five-point surface sampling: center, endpoint +/- delta, t +/- delta."""
    x = np.asarray(endpoint_values, dtype=float)
    tv = np.asarray(t_values, dtype=float)
    nx, nt = x.size, tv.size
    d = fd_step

    # per t-row: [x, x+d, x-d] at t, then x at t+d and t-d
    targets = np.concatenate([np.concatenate([x, x + d, x - d, x, x]) for _ in range(nt)])
    horizons = np.concatenate([np.repeat([t, t, t, t + d, t - d], nx) for t in tv])
    vals, conj_end, ok = _solved_actions(model, start_value, targets, horizons, n_steps, shoot_on, evaluate)

    vals = vals.reshape(nt, 5, nx)
    conj_end = conj_end.reshape(nt, 5, nx)
    ok = ok.reshape(nt, 5, nx)
    center, xp, xm, tp, tm = (vals[:, k, :] for k in range(5))
    valid = np.all(ok, axis=1)

    with np.errstate(all="ignore"):  # differences of masked, overflowed lanes
        dA_dx = (xp - xm) / (2.0 * d)
        dA_dt = (tp - tm) / (2.0 * d)
    return center, dA_dx, dA_dt, conj_end[:, 0, :], valid


def _check_horizons(t_values, fd_step):
    """Every re-solve of a surface, t - fd_step included, must run forward in time."""
    if not (fd_step > 0.0 and np.all(t_values - fd_step > 0.0)):
        raise PreconditionError("action surfaces need fd_step > 0 and t - fd_step > 0")


def hj_residual_s(model: HamiltonianModel, q_i: float, q_f_values, t_values,
                  n_steps: int = 800, fd_step: float = 1e-3) -> SurfaceResidualField:
    """Residual of H(dS/dq_f, q_f) + dS/dt on the S(q_f, t) surface.

    S is built pointwise from position-type shooting plus quadrature;
    both surface derivatives come from centered re-solves offset by
    fd_step.  The companion field is dS/dq_f - p(t_f), which should also
    vanish on the surface.
    """
    q_f_values = np.asarray(q_f_values, dtype=float)
    t_values = np.asarray(t_values, dtype=float)
    _check_horizons(t_values, fd_step)
    S, dS_dq, dS_dt, p_tf, valid = _hj_surface(
        model, q_i, q_f_values, t_values, n_steps, fd_step, "p0", _action_s_values
    )
    QF = np.broadcast_to(q_f_values[None, :], S.shape)
    with np.errstate(all="ignore"):  # masked nodes may hold overflowed values
        hj = model.eval(dS_dq, QF) + dS_dt
        companion = dS_dq - p_tf
    return SurfaceResidualField("q_f", q_f_values, t_values, S, hj, companion, valid)


def hj_residual_r(model: HamiltonianModel, p_i: float, p_f_values, t_values,
                  n_steps: int = 800, fd_step: float = 1e-3) -> SurfaceResidualField:
    """Residual of H(p_f, -dR/dp_f) + dR/dt on the R(p_f, t) surface.

    The companion field is dR/dp_f + q(t_f).  For models cyclic in q the
    momentum never moves, so the surface collapses to the feasible line
    p_f = p_i: only its horizons t and t +/- fd_step are shot (every q0
    reaches p_i, and the shots take q0 = 0), off-line nodes are masked
    infeasible, the q-argument of H is immaterial, and the companion (a
    p_f-derivative across an empty surface) is undefined and masked.  A
    line path that leaves the float range raises BlowUpError.
    """
    p_f_values = np.asarray(p_f_values, dtype=float)
    t_values = np.asarray(t_values, dtype=float)
    _check_horizons(t_values, fd_step)
    npf, nt = p_f_values.size, t_values.size
    dtt = fd_step

    if model.is_cyclic_in_q():
        R = np.full((nt, npf), np.nan)
        hj = np.full_like(R, np.nan)
        companion = np.full_like(R, np.nan)
        valid = np.zeros((nt, npf), dtype=bool)
        online = np.isclose(p_f_values, p_i, rtol=0.0, atol=1e-12)
        # one batch for the horizons t, t + dt and t - dt of every row
        horizons = np.concatenate([t_values, t_values + dtt, t_values - dtt])
        shots = _shoot_batch(model, p_i, np.full(horizons.shape, float(p_i)), (0.0, horizons),
                             n_steps, "q0", density=1)
        P, Q = shots.P, shots.Q
        if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
            raise _blow_up(P, Q)
        with np.errstate(all="ignore"):  # an overflowing H leaves the line non-finite
            values, _ = _action_r_values(model, P, Q, horizons / n_steps)
            rc, rp, rm = np.asarray(values).reshape(3, nt)
            dR_dt = (rp - rm) / (2.0 * dtt)
            hj[:, online] = (model.eval(p_i, 0.0) + dR_dt)[:, None]
        R[:, online] = rc[:, None]
        valid[:, online] = True
        return SurfaceResidualField("p_f", p_f_values, t_values, R, hj, companion, valid)

    R, dR_dp, dR_dt, q_tf, valid = _hj_surface(
        model, p_i, p_f_values, t_values, n_steps, fd_step, "q0", _action_r_values
    )
    PF = np.broadcast_to(p_f_values[None, :], R.shape)
    with np.errstate(all="ignore"):  # masked nodes may hold overflowed values
        hj = model.eval(PF, -dR_dp) + dR_dt
        companion = dR_dp + q_tf
    return SurfaceResidualField("p_f", p_f_values, t_values, R, hj, companion, valid)
