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

from .dynamics import PhasePath, _affine_paths, _blow_up, _shoot_batch
from .errors import PreconditionError
from .model import HamiltonianModel, _horner
from .series import write_series


@dataclass(frozen=True)
class ActionValue:
    value: float
    rule: str
    n_intervals: int

    def __float__(self):
        return self.value


def _pair_sums(y, gap=None):
    """y[1:] + y[:-1], in gap (a new array in y's layout when None)."""
    if gap is None:
        gap = np.empty_like(y[1:])
    return np.add(y[1:], y[:-1], out=gap)


def _trapezoid(y, gap=None):
    """Unit-spacing trapezoid rule along axis 0; gap, when given, holds the
    interval terms (an array shaped as y[1:], in y's layout)."""
    terms = _pair_sums(y, gap)
    terms /= 2.0
    return np.sum(terms, axis=0)


def _cumulative_trapezoid(y, dt, out=None, gap=None):
    """Running trapezoid integral of y along axis 0 from its first node, starting at 0.

    out (a new array in y's layout when None: a column-major block stays
    one) gets the integral, and gap, shaped as y[1:], the interval terms
    dt (y[j+1] + y[j]) / 2.0, rounded in that order.
    """
    y = np.asarray(y, dtype=float)
    if out is None:
        out = np.empty_like(y)
    terms = _pair_sums(y, gap)
    terms *= dt
    terms /= 2.0
    out[0] = 0.0
    np.cumsum(terms, axis=0, out=out[1:])
    return out


def _simpson(y, half=None):
    """Unit-spacing composite Simpson rule along axis 0 on an odd node count (at least 3).

    _quadrature sends it nothing else, so an odd interval count needs no
    closing correction here.  The operations follow scipy.integrate.simpson
    in order, so the values agree bit for bit.  half, when given, holds the
    (n - 1) / 2 panel sums (in y's layout, a new array when None).
    """
    n = y.shape[0]
    if half is None:
        half = np.empty_like(y[1:n - 1:2])
    np.multiply(y[1:n - 1:2], 4.0, out=half)
    np.add(y[0:n - 2:2], half, out=half)
    half += y[2:n:2]
    return np.sum(half, axis=0) * (1.0 / 3.0)


def _lane_major(y):
    """y with each lane's nodes contiguous, a Fortran-ordered copy if they are not.

    numpy sums a contiguous axis pairwise and a strided one node by node,
    so a sum along axis 0 of the result gives each lane of a (nodes, ...)
    block the sum of that lane as a 1-d path, bit for bit, whatever the
    block's layout.  Elementwise operations keep the layout.
    """
    if y.ndim > 1 and y.strides[0] != y.itemsize:
        return np.asfortranarray(y)
    return y


def _quadrature(y, dt, half=None, gap=None):
    """Composite quadrature along axis 0 and the rule used: Simpson on an
    even interval count, trapezoid otherwise.  dt may be per-lane (array)
    spacing; half and gap are the buffers of _simpson and _trapezoid.

    Each lane of a (nodes, ...) block equals the quadrature of that lane
    as a 1-d path, bit for bit, whatever the block's layout (_lane_major).
    """
    y = _lane_major(y)
    if (y.shape[0] - 1) % 2 == 0:
        return _simpson(y, half) * dt, "simpson"
    return _trapezoid(y, gap) * dt, "trapezoid"


def _grad(y, dt, axis=0, out=None):
    """Slope of y along axis by differences at unit spacing, then / dt.

    Bit for bit np.gradient(y, 1.0, axis=axis, edge_order=2) / dt (edge
    order 1 on two nodes), from slices: (y[j+1] - y[j-1]) / 2.0 inside,
    -1.5 y0 + 2 y1 - 0.5 y2 and 0.5 y[-3] - 2 y[-2] + 1.5 y[-1] at the
    ends.  out (a new array in y's layout when None) gets the slope; dt
    broadcasts against y without widening it.  Only the end rows are
    temporaries.
    """
    n = y.shape[axis]
    if n < 2:
        raise ValueError("a slope needs at least 2 nodes")
    if out is None:
        out = np.empty_like(y, dtype=float)
    lead = (slice(None),) * (axis % y.ndim)

    def at(index):
        return lead + (index,)

    inner = out[at(slice(1, -1))]
    np.subtract(y[at(slice(2, None))], y[at(slice(None, -2))], out=inner)
    inner /= 2.0
    if n >= 3:
        out[at(0)] = -1.5 * y[at(0)] + 2.0 * y[at(1)] + -0.5 * y[at(2)]
        out[at(-1)] = 0.5 * y[at(-3)] + -2.0 * y[at(-2)] + 1.5 * y[at(-1)]
    else:
        out[at(0)] = y[at(1)] - y[at(0)]
        out[at(-1)] = y[at(-1)] - y[at(-2)]
    out /= dt
    return out


def _energy(model, P, Q, out, tmp):
    """H(P, Q) in out, bit for bit model.eval: a separable model with
    potential coefficients computes P^2 / 2m + V(Q) in out and tmp alone,
    any other model's value is copied in."""
    if model._vcoeffs is not None:
        np.square(P, out=out)
        out /= 2.0 * model.mass
        out += _horner(model._vcoeffs[0])(Q, tmp)
        return out
    out[...] = model.eval(P, Q)
    return out


def _integrand(model, P, Q, dt, which, slope=None, work=None):
    """p q' - H for S (which = 's'), -(q p' + H) for R ('r'), node by node.

    slope is q' for S, p' for R, when the caller has already taken it.
    The integrand is computed in work[0] (which slope may be), H in
    work[1] and work[2]: three arrays of the path's shape, new ones in
    P's layout when work is None.
    """
    if work is None:
        work = [np.empty_like(P, dtype=float) for _ in range(3)]
    out, h, tmp = work
    if slope is None:
        slope = _grad(Q if which == "s" else P, dt, out=out)
    _energy(model, P, Q, h, tmp)
    if which == "s":
        np.multiply(P, slope, out=out)
        out -= h
    else:
        np.multiply(Q, slope, out=out)
        out += h
        np.negative(out, out=out)
    return out


def _action_values(model, P, Q, dt, which, slope=None):
    """S or R of one path, or one value per lane of a (nodes, lanes) block, and the rule used."""
    return _quadrature(_integrand(model, P, Q, dt, which, slope), dt)


# integrand entries per block of horizons: arrays of at most 256 KiB, 4 horizons at N = 800.
# That is above glibc's initial 128 KiB mmap threshold, so the first such arrays of a process
# are fresh pages; glibc raises the threshold when it frees them, and later blocks reuse the
# heap.  Measured at N = 800: 3 to 18 horizons per block compute alike on a heap that keeps
# its pages, but from 6 horizons up the freed arrays went back to the system and were faulted
# in again on every call, and 1 or 2 horizons pay for more turns of the block loop; 4 was
# fastest.
_FORM_BLOCK = 1 << 15


def _action_forms(model, powers, steps, which):
    """S (which = 's') or R ('r') of affine critical paths as forms in their ends: (horizons, 3, 3).

    Node j of an affine path from x0 = (p0, q0, 1) is G^j x0, G^j being
    powers[h, j] at step size steps[h] (dynamics._step_powers).  Pinning
    the path to y = (start, end, 1) (q_i, q_f for S; p_i, p_f for R) fixes
    the shooting parameter by the last node's pinned row, so x0 = T y
    with T read off G^N, and the quadrature of the path is y^T M[h] y: the
    action is a quadratic form in the endpoint data.  M takes the steps of
    the path quadrature on the rows of G^j T in place of the path's
    values: _grad along the nodes, the integrand node by node with
    H = z^T E z for z = (p, q, 1), and _quadrature along the nodes.
    G^j T is as large as the path, where a form in x0 grows as (G^j)^2
    on an unstable flow.  Horizons go in blocks of at most _FORM_BLOCK
    integrand entries, so that a block's arrays are reused from the
    heap rather than faulted in afresh on every call.
    """
    c0, c1, c2 = model._quadratic_potential()
    energy = np.array([[0.5 / model.mass, 0.0, 0.0], [0.0, c2, 0.5 * c1], [0.0, 0.5 * c1, c0]])
    terms = list(zip(*np.nonzero(energy)))
    # S shoots on p0 to pin q_f and integrates p dq/dt - H; R shoots on q0 to pin p_f and
    # integrates -(q dp/dt + H).  p and q are rows 0 and 1.
    par, pinned, sign = (0, 1, 1.0) if which == "s" else (1, 0, -1.0)
    last = powers[:, -1, pinned]
    with np.errstate(all="ignore"):  # a conjugate point leaves a zero slope
        # x0[par] = tau . y: (end - G^N[pinned, pinned] start - G^N[pinned, 2]) / slope
        tau = np.stack([-last[:, pinned], np.ones(last.shape[0]), -last[:, 2]], axis=1)
        tau /= last[:, par, None]
    n_h, n_nodes = powers.shape[:2]
    block = max(1, _FORM_BLOCK // (9 * n_nodes))
    forms = np.empty((n_h, 3, 3))
    for i in range(0, n_h, block):
        dt = steps[i:i + block, None, None]
        g = np.moveaxis(powers[i:i + block], 1, -1)  # g[h, k, c, j] = G^j[k, c]
        # rows[h, k, :, j] is row k of G^j T: column par of G^j spread by tau, plus
        # the columns of the pinned start and the constant
        rows = g[:, :, par, None, :] * tau[i:i + block, None, :, None]
        rows[:, :, 0] += g[:, :, pinned]
        rows[:, :, 2] += g[:, :, 2]
        integrand = rows[:, par, :, None] * _grad(rows[:, pinned], sign * dt, axis=-1)[:, None]
        for k, l in terms:
            integrand -= (energy[k, l] * rows[:, k, :, None]) * rows[:, l, None]
        value, _ = _quadrature(np.moveaxis(integrand, -1, 0), 1.0)
        forms[i:i + block] = dt * value
    return forms


def _legendre_values(model, P, Q, dt):
    """S - R - ([pq] at the last node - [pq] at the first) of one path, or of
    a (nodes, lanes) block of paths, one value per lane."""
    s, _ = _quadrature(_integrand(model, P, Q, dt, "s"), dt)
    r, _ = _quadrature(_integrand(model, P, Q, dt, "r"), dt)
    return s - r - (P[-1] * Q[-1] - P[0] * Q[0])


def _mode_basis(times, mode_count, wave):
    """Rows wave(pi (k + 1) u), k < mode_count, with u running from 0 to 1 over times."""
    t0, t1 = times[0], times[-1]
    u = (times - t0) / (t1 - t0)
    return [wave(np.pi * (k + 1) * u) for k in range(mode_count)]


_ROWS = 16  # rows of every mode-sum product


def _row_products(coeffs, waves, rows=None):
    """The products coeffs[lo:lo + _ROWS] @ waves, lo = 0, _ROWS, ..., as rows lo.. of rows.

    waves is (modes, nodes), C-contiguous, and the last block of rows is
    padded with zero rows.  rows, C-ordered with at least len(coeffs)
    rounded up to _ROWS rows of nodes (a new array of that many when
    None), is returned.  Every product has one shape, so a row's values
    depend on its own coefficients alone, not on the row count or its
    block: a (1, k) product would round differently from a row of a
    (_ROWS, k) one.
    """
    count = len(coeffs)
    padded = np.zeros((-(-count // _ROWS) * _ROWS, coeffs.shape[1]))
    padded[:count] = coeffs
    if rows is None:
        rows = np.empty((len(padded), waves.shape[1]))
    for lo in range(0, count, _ROWS):
        np.matmul(padded[lo:lo + _ROWS], waves, out=rows[lo:lo + _ROWS])
    return rows


def _mode_sum(waves, coeffs, rows=None):
    """(nodes, rows) columns sum_k coeffs[j, k] waves[k], from fixed-shape products (_row_products).

    waves is a (modes, nodes) array or a list of modes.  The columns are a
    transposed view of the (rows, nodes) products, in rows when given, so
    each column's nodes are contiguous.
    """
    products = _row_products(coeffs, np.asarray(waves, dtype=float), rows)
    return products[:len(coeffs)].T


_LEGENDRE_BLOCK = 8  # paths per block: 256 KB per array at N = 4000


def _legendre_residuals(model, amp_p, amp_q, n):
    """|S - R - [pq]| of each sample's smooth path on n intervals of [0, 1].

    Sample i has p = 0.3 + sum_k amp_p[i, k] / (k+1)^3 sin(pi (k+1) t) and
    q = sum_k amp_q[i, k] / (k+1)^3 cos(pi (k+1) t), each series a row of
    fixed-shape products (_mode_sum); a value equals that single path's bit
    for bit, whatever the sample count.
    """
    tt = np.linspace(0.0, 1.0, n + 1)
    sines = np.array(_mode_basis(tt, amp_p.shape[1], np.sin))
    cosines = np.array(_mode_basis(tt, amp_q.shape[1], np.cos))
    c_p = amp_p / np.arange(1, amp_p.shape[1] + 1) ** 3
    c_q = amp_q / np.arange(1, amp_q.shape[1] + 1) ** 3
    out = []
    for lo in range(0, len(amp_p), _LEGENDRE_BLOCK):
        P = 0.3 + _mode_sum(sines, c_p[lo:lo + _LEGENDRE_BLOCK])
        Q = _mode_sum(cosines, c_q[lo:lo + _LEGENDRE_BLOCK])
        out.extend(np.abs(_legendre_values(model, P, Q, 1.0 / n)).tolist())
    return out


def action_s(model: HamiltonianModel, path: PhasePath) -> ActionValue:
    """Quadrature of p q' - H(p, q) along the path (q' by centered differences)."""
    value, used = _action_values(model, path.p, path.q, path.dt, "s")
    return ActionValue(float(value), used, path.n_intervals)


def action_r(model: HamiltonianModel, path: PhasePath) -> ActionValue:
    """Quadrature of -(q p' + H(p, q)) along the path."""
    value, used = _action_values(model, path.p, path.q, path.dt, "r")
    return ActionValue(float(value), used, path.n_intervals)


def legendre_residual(model: HamiltonianModel, path: PhasePath) -> float:
    """S - R - ([pq] at t_end - [pq] at t_start); -> 0 as the grid refines.

    Integration by parts fixes the boundary-term sign as written here:
    the free-particle numbers (S = 1/2, R = -1/2, boundary term 1)
    confirm it.
    """
    return float(_legendre_values(model, path.p, path.q, path.dt))


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
    required boundary-value solves was degenerate or infeasible, or where
    the surface or HJ value is not finite, are masked out (valid == False)
    and excluded from the max views.  method records how the actions were
    evaluated ('affine-form': read off one quadratic form per horizon;
    'quadrature': integrated along each path) and lanes the number of
    boundary-value targets shot.
    """

    endpoint_name: str
    endpoints: np.ndarray
    times: np.ndarray
    surface: np.ndarray
    hj: np.ndarray
    companion: np.ndarray
    valid: np.ndarray
    method: str
    lanes: int

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


def _surface_actions(model, start_value, targets, horizons, n_steps, which):
    """Batch-shoot (target, horizon) pairs; return per-pair action values (S
    for which = 's', shot on p0; R for 'r', shot on q0), endpoint data of
    the conjugate variable, a validity mask and the evaluation method.

    An affine batch builds no path: each lane's value is y^T M y with
    y = (start, target, 1) and M its horizon's form (_action_forms),
    equal to the path quadrature up to rounding.  Only a solved lane
    whose form overflows (an unstable flow whose G^N nears the float
    range) has its path built and integrated, as a swept batch does for
    every lane.
    """
    shots = _shoot_batch(model, start_value, targets, (0.0, horizons), n_steps,
                         "p0" if which == "s" else "q0")
    ok = shots.flags == "unique"
    dt = horizons / n_steps
    with np.errstate(all="ignore"):  # infeasible or overflowed lanes are masked by ok
        if shots.powers is None:
            values, _ = _action_values(model, shots.P, shots.Q, dt, which)
            method = "quadrature"
        else:
            forms = _action_forms(model, shots.powers, shots.steps, which)[shots.horizon]
            y = np.stack([np.full_like(targets, start_value), targets, np.ones_like(targets)],
                         axis=1)
            values = np.einsum("ki,kij,kj->k", y, forms, y)
            method = "affine-form"
            lanes = np.flatnonzero(ok & ~np.isfinite(values))
            if lanes.size:
                P, Q = _affine_paths(shots.powers, shots.horizon[lanes], shots.x0[lanes])
                values[lanes], _ = _action_values(model, P, Q, dt[lanes], which)
    # the conjugate end: p(t_f) for S, q(t_f) for R
    return values, shots.end[0 if which == "s" else 1], ok, method


def _cyclic_r_line(model, p_i, p_f_values, t_values, n_steps, fd_step):
    """R, its HJ value, companion, solved mask and lanes shot on the line
    p_f = p_i of a model cyclic in q (see hj_residual_r)."""
    nt = t_values.size
    R = np.full((nt, p_f_values.size), np.nan)
    hj = np.full_like(R, np.nan)
    online = np.isclose(p_f_values, p_i, rtol=0.0, atol=1e-12)
    horizons = np.concatenate([t_values, t_values + fd_step, t_values - fd_step])
    shots = _shoot_batch(model, p_i, np.full(horizons.shape, float(p_i)), (0.0, horizons),
                         n_steps, "q0")
    P, Q = shots.P, shots.Q
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
        raise _blow_up(P, Q)
    with np.errstate(all="ignore"):  # an overflowing H leaves the line non-finite
        values, _ = _action_values(model, P, Q, horizons / n_steps, "r")
        rc, rp, rm = np.asarray(values).reshape(3, nt)
        dR_dt = (rp - rm) / (2.0 * fd_step)
        hj[:, online] = (model.eval(p_i, 0.0) + dR_dt)[:, None]
    R[:, online] = rc[:, None]
    # the companion, a p_f-derivative across an empty surface, is undefined
    return R, hj, np.full_like(R, np.nan), online, horizons.size


def _hj_field(model, start, ends, t_values, n_steps, fd_step, which):
    """The HJ residual field of S(q_f, t) (which = 's') or R(p_f, t) ('r').

    Five-point sampling: each node is shot at its end, at end +/- fd_step
    and at t +/- fd_step, and the two surface derivatives are centred
    differences of those actions.  A node is valid where all five solves
    are 'unique' and the action and HJ value are finite.
    """
    x = np.asarray(ends, dtype=float)
    tv = np.asarray(t_values, dtype=float)
    d = fd_step
    # every re-solve, t - fd_step included, must run forward in time; t > d is
    # t - d > 0 without the subtraction, which overflows past the float range
    if not (d > 0.0 and np.all(tv > d)):
        raise PreconditionError("action surfaces need fd_step > 0 and t - fd_step > 0")
    if which == "r" and model.is_cyclic_in_q():
        surface, hj, companion, solved, lanes = _cyclic_r_line(model, start, x, tv, n_steps, d)
        method = "quadrature"
    else:
        nx, nt = x.size, tv.size
        # per t-row: [x, x+d, x-d] at t, then x at t+d and t-d
        targets = np.concatenate([np.concatenate([x, x + d, x - d, x, x]) for _ in range(nt)])
        horizons = np.concatenate([np.repeat([t, t, t, t + d, t - d], nx) for t in tv])
        values, conj_end, ok, method = _surface_actions(model, start, targets, horizons,
                                                        n_steps, which)
        surface, xp, xm, tp, tm = np.moveaxis(values.reshape(nt, 5, nx), 1, 0)
        conj_end = conj_end.reshape(nt, 5, nx)[:, 0, :]
        solved = np.all(ok.reshape(nt, 5, nx), axis=1)
        lanes = targets.size
        X = np.broadcast_to(x[None, :], surface.shape)
        with np.errstate(all="ignore"):  # masked nodes may hold overflowed values
            dA_dx = (xp - xm) / (2.0 * d)
            dA_dt = (tp - tm) / (2.0 * d)
            if which == "s":  # H(dS/dq_f, q_f) + dS/dt and dS/dq_f - p(t_f)
                hj, companion = model.eval(dA_dx, X) + dA_dt, dA_dx - conj_end
            else:  # H(p_f, -dR/dp_f) + dR/dt and dR/dp_f + q(t_f)
                hj, companion = model.eval(X, -dA_dx) + dA_dt, dA_dx + conj_end
    valid = solved & np.isfinite(surface) & np.isfinite(hj)
    return SurfaceResidualField("q_f" if which == "s" else "p_f", x, tv, surface, hj, companion,
                                valid, method, lanes)


def hj_residual_s(model: HamiltonianModel, q_i: float, q_f_values, t_values,
                  n_steps: int = 800, fd_step: float = 1e-3) -> SurfaceResidualField:
    """Residual of H(dS/dq_f, q_f) + dS/dt on the S(q_f, t) surface.

    S is built pointwise from position-type shooting: for an affine
    model (separable, potential of degree <= 2) each node's S is read
    off one 3x3 quadratic form per horizon, with no path built
    (method 'affine-form'); otherwise the quadrature runs on each solved
    path (method 'quadrature').  Both surface derivatives come from
    centered re-solves offset by fd_step.  The companion field is
    dS/dq_f - p(t_f), which should also vanish on the surface.
    """
    return _hj_field(model, q_i, q_f_values, t_values, n_steps, fd_step, "s")


def hj_residual_r(model: HamiltonianModel, p_i: float, p_f_values, t_values,
                  n_steps: int = 800, fd_step: float = 1e-3) -> SurfaceResidualField:
    """Residual of H(p_f, -dR/dp_f) + dR/dt on the R(p_f, t) surface.

    R is built by the routine that builds S in hj_residual_s, from
    momentum-type shooting.  The companion field is dR/dp_f + q(t_f).
    Its one special case is a model cyclic in q: the momentum never
    moves, so the surface collapses to the feasible line p_f = p_i.  Only
    its horizons t and t +/- fd_step are shot (every q0 reaches p_i, and
    the shots take q0 = 0) and integrated along their paths (method
    'quadrature'), which the blow-up check reads anyway; off-line nodes
    are masked infeasible, the q-argument of H is immaterial, and the
    companion (a p_f-derivative across an empty surface) is undefined and
    masked.  A line path that leaves the float range raises BlowUpError;
    a line node whose action or H overflows is masked.
    """
    return _hj_field(model, p_i, p_f_values, t_values, n_steps, fd_step, "r")
