"""Hamiltonian trajectories and the two endpoint problems.

Position-type boundary conditions pin q at both ends and shoot over the
initial momentum; momentum-type conditions pin p and shoot over the
initial position.  The integrator is classical fixed-step RK4: the paths
here are short and shooting needs smooth dependence on initial data more
than long-time structure preservation.  Its nodes come from one of two
evaluators:

* An affine field (a separable model whose potential has degree <= 2:
  the free particle, the oscillator, the quadratic saddle, the constant
  force) has an RK4 step that is exactly one 3x3 matrix acting on
  (p, q, 1).  Its paths are powers of that matrix, and its shooting needs
  no integration sweep: the endpoint is affine in the shooting parameter.
* Any other field runs ``_rk4``, the one RK4 loop, as a sweep over many
  lanes (one initial condition per array element), so a shooting solve
  costs a few sweeps rather than a few per lane: a scan with
  Chebyshev-Lobatto refinement for single solves, then Newton.  A sweep
  is bound by per-step overhead, so the single solve's scan carries 481
  lanes at little more cost than 33.  The same scan on N/8 and N/4 steps
  predicts the root by Richardson extrapolation, and the N-step scan
  carries the predicted lanes too: when the prediction meets a tolerance
  a thousand times tighter, the solve is done in 1 3/8 sweeps' worth of
  steps and Newton does not run.

``integrate_ivp`` always runs the loop; it is the reference the affine
evaluator is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BlowUpError, PreconditionError, UnsupportedOrderError
from .model import HamiltonianModel

SHOOTING_TOL = 1e-9
SENSITIVITY_TOL = 1e-6
BRACKET_RANGE = 1e3
MAX_NEWTON_ITER = 100
FD_REL_STEP = 1e-6
# Chebyshev-Lobatto subintervals per scan interval of a single-target solve:
# one sweep is bound by per-step overhead, so 481 lanes cost little more than 33,
# and the same lanes on ceil(N/8) and ceil(N/4) steps predict the root
REFINED_DENSITY = 15
# a predicted root stands when its residual is within this share of the tolerance
_PREDICTION_GATE = 1e-3


@dataclass(frozen=True)
class PhasePath:
    """Paired (p, q) samples on a uniform time grid."""

    t_start: float
    t_end: float
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p.shape != q.shape or p.ndim != 1 or p.size < 2:
            raise PreconditionError("phase path needs matching 1-d p/q arrays with >= 2 nodes")
        if not (self.t_end > self.t_start):
            raise PreconditionError("phase path needs t_end > t_start")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise PreconditionError("phase path samples must be finite")

    @property
    def n_intervals(self):
        return self.p.size - 1

    @property
    def dt(self):
        return (self.t_end - self.t_start) / self.n_intervals

    @property
    def times(self):
        return np.linspace(self.t_start, self.t_end, self.p.size)


@dataclass(frozen=True)
class BoundarySpec:
    """Endpoint constraint: 'position-type' pins q, 'momentum-type' pins p."""

    kind: str
    start: float
    end: float

    def __post_init__(self):
        if self.kind not in ("position-type", "momentum-type"):
            raise PreconditionError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class ShootingReport:
    path: PhasePath
    parameter: float
    residual: float
    flag: str  # unique | conjugate-degenerate | infeasible
    method: str = "affine"  # affine | predicted | newton: how the root was found
    sweeps: tuple = ()  # (lanes, steps) of each RK4 sweep, in the order run

    @property
    def solved(self):
        return self.flag != "infeasible"


def _rk4(field, p, q, dt, n_steps, keep=None, spread=None):
    """One RK4 sweep of Hamilton's equations over every lane at once.

    field is a model's vector_field(); p and q are equal-shape arrays of
    initial states (one lane per element) and dt is the step per lane,
    broadcastable against them.  keep indexes the lanes whose path is
    stored, e.g. ``...`` for all of them, ``0`` for the first row or a
    slice of a flat lane array; spread = (variable, upper, lower), the
    variable 'p' or 'q' and two lane indexes of equal size, tracks max
    over nodes of |x[upper] - x[lower]| for that variable.  Nothing is
    checked: a blowing-up lane poisons only itself with non-finite
    values.  Returns (p, q, P, Q, spread_max), with None for what was not
    asked for.
    """
    h2, dt6 = 0.5 * dt, dt / 6.0
    P = Q = widest = None
    if keep is not None:
        P = np.empty((n_steps + 1,) + np.shape(p[keep]))
        Q = np.empty_like(P)
        P[0], Q[0] = p[keep], q[keep]
    if spread is not None:
        on, upper, lower = spread
        widest = np.zeros(np.shape(p[upper]))
    with np.errstate(all="ignore"):
        for j in range(n_steps):
            a1, b1 = field(p, q)
            a2, b2 = field(p - h2 * b1, q + h2 * a1)
            a3, b3 = field(p - h2 * b2, q + h2 * a2)
            a4, b4 = field(p - dt * b3, q + dt * a3)
            p = p - dt6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            q = q + dt6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            if keep is not None:
                P[j + 1], Q[j + 1] = p[keep], q[keep]
            if spread is not None:
                x = q if on == "q" else p
                np.maximum(widest, np.abs(x[upper] - x[lower]), out=widest)
    return p, q, P, Q, widest


def _blow_up(P, Q):
    """BlowUpError naming the first node at which the paths are non-finite."""
    bad = ~(np.isfinite(P) & np.isfinite(Q)).reshape(P.shape[0], -1).all(axis=1)
    node = int(np.argmax(bad))
    return BlowUpError(f"non-finite state at node {node}", node_index=node)


def _rk4_batch(model, p0, q0, t_span, n_steps):
    """Vectorized fixed-step RK4 for Hamilton's equations.

    p0, q0 are broadcastable arrays of initial states; t_span endpoints
    may also be arrays (per-element horizons).  Returns the
    (n_steps+1, ...) histories of p and q.  A non-finite final state
    raises BlowUpError naming the first non-finite node.
    """
    if n_steps < 1:
        raise PreconditionError("integration needs n_steps >= 1")
    t0, t1 = t_span
    p, q, dt = np.broadcast_arrays(
        np.asarray(p0, float), np.asarray(q0, float),
        (np.asarray(t1, float) - np.asarray(t0, float)) / n_steps,
    )
    pe, qe, P, Q, _ = _rk4(model.vector_field(), p, q, dt, n_steps, keep=...)
    # a non-finite state stays non-finite, so the final one decides
    if not (np.all(np.isfinite(pe)) and np.all(np.isfinite(qe))):
        raise _blow_up(P, Q)
    return P, Q


def integrate_ivp(model: HamiltonianModel, p0: float, q0: float, t_span, n_steps: int) -> PhasePath:
    """Integrate Hamilton's equations from (p0, q0) with fixed-step RK4."""
    P, Q = _rk4_batch(model, float(p0), float(q0), t_span, n_steps)
    return PhasePath(t_span[0], t_span[1], P.reshape(n_steps + 1), Q.reshape(n_steps + 1))


def _scan_candidates():
    mags = np.geomspace(1e-3, BRACKET_RANGE, 16)
    return np.concatenate([-mags[::-1], [0.0], mags])


def _lobatto_nodes(cand, density):
    """The candidates with each interval between neighbours split into density
    subintervals at Chebyshev-Lobatto points; nodes[::density] is cand exactly."""
    share = np.sin(0.5 * np.pi * np.arange(density) / density) ** 2  # (1 - cos)/2
    nodes = np.empty((cand.size - 1) * density + 1)
    nodes[:-1] = (cand[:-1, None] + np.diff(cand)[:, None] * share).ravel()
    nodes[::density] = cand
    return nodes


def _momentum_unit(model, q_start):
    """Momentum per unit velocity at rest at q_start, 1 / H_pp(0, q_start).

    Position shooting scans velocities; this turns them into momenta.
    1.0 when the model has no H_pp or it is zero or non-finite there.
    """
    try:
        hpp = abs(float(model._derivative(2, 0)(0.0, q_start)))
    except UnsupportedOrderError:
        return 1.0
    return 1.0 / hpp if np.isfinite(hpp) and hpp > 0.0 else 1.0


def _pinned_scale(start, end):
    """Size of the pinned values, max(1, |start|, |end|): shooting residuals
    are held to SHOOTING_TOL in these units, so any mass converges alike."""
    return np.maximum(1.0, np.maximum(abs(start), np.abs(end)))


def _affine_matrix(model):
    """Matrix A of an affine vector field, d(p, q, 1)/dt = A (p, q, 1), or None.

    A separable model whose polynomial potential has degree <= 2,
    V = c0 + c1 q + c2 q^2, moves by dp/dt = -c1 - 2 c2 q and
    dq/dt = p / m: the four builtins and any three-coefficient potential.
    """
    c = model._quadratic_potential()
    if c is None:
        return None
    _, c1, c2 = c
    return np.array([[0.0, -2.0 * c2, -c1], [1.0 / model.mass, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _step_powers(field_matrix, dt, n_steps):
    """G^0 .. G^n_steps of the RK4 step map of an affine field, one stack per step size.

    One RK4 step of d(p, q, 1)/dt = A (p, q, 1) is exactly the matrix
    G = sum_{k<=4} (dt A)^k / k!, the RK4 stability polynomial, so node j
    of a path is G^j (p0, q0, 1).  dt is a 1-d array of step sizes; the
    powers, shape (dt.size, n_steps+1, 3, 3), are built by doubling, in
    log2(n_steps) batched products.
    """
    m, eye = dt[:, None, None] * field_matrix, np.eye(3)
    powers = np.empty((dt.size, n_steps + 1, 3, 3))
    powers[:, 0] = eye
    with np.errstate(all="ignore"):  # a flow that outgrows floats turns non-finite
        powers[:, 1] = eye + m @ (eye + m @ (eye + m @ (eye + m / 4.0) / 3.0) / 2.0)
        n = 1
        while n < n_steps:
            k = min(n, n_steps - n)
            powers[:, n + 1:n + 1 + k] = powers[:, 1:k + 1] @ powers[:, n, None]
            n += k
    return powers


def _affine_paths(powers, horizon, x0):
    """(n_steps+1, lanes) paths of p and q: lane k starts at x0[k] = (p0, q0, 1)
    and its node j is powers[horizon[k], j] x0[k]."""
    nodes = np.empty((horizon.size, 2, powers.shape[1]))
    with np.errstate(all="ignore"):  # an overflowing lane poisons only itself
        for i, G in enumerate(powers):
            lanes = np.flatnonzero(horizon == i)
            rows = G[:, :2].transpose(2, 1, 0).reshape(3, -1)  # (p, q, 1) -> every node's p, q
            nodes[lanes] = (x0[lanes] @ rows).reshape(lanes.size, 2, powers.shape[1])
    return nodes[:, 0].T, nodes[:, 1].T


@dataclass(frozen=True)
class _Shots:
    """Shooting results over a batch of targets.

    end holds each target's (p, q) at t_f, shape (2, targets).  An affine
    batch keeps what its paths are made of: the step powers G^0 .. G^N
    (one stack per distinct step size in steps), each target's index
    into them (horizon) and its start x0 = (p0, q0, 1), shape
    (targets, 3).  A quadratic functional of its paths is then a form
    read off the powers (action._action_forms), and the paths P and Q,
    (n_steps+1, targets), are built only when first read.  A swept batch
    carries the paths of each target's last sweep.  method says how each
    target's root was found ('affine', 'predicted' or 'newton') and
    sweeps lists the (lanes, steps) of every RK4 sweep the batch ran.
    """

    roots: np.ndarray
    residuals: np.ndarray
    flags: np.ndarray
    end: np.ndarray
    steps: np.ndarray | None = None
    powers: np.ndarray | None = None
    horizon: np.ndarray | None = None
    x0: np.ndarray | None = None
    swept: tuple | None = None
    method: np.ndarray | None = None
    sweeps: tuple = ()

    @cached_property
    def _paths(self):
        if self.swept is not None:
            return self.swept
        return _affine_paths(self.powers, self.horizon, self.x0)

    @property
    def P(self):
        return self._paths[0]

    @property
    def Q(self):
        return self._paths[1]


def _brackets(cand, res, tol):
    """Starting points of the targets from the scan residuals res, (candidates, targets).

    Each outcome takes the qualifying candidate nearest x = 0.  The sign
    change nearest 0 gives the bracket [lo, hi] and a regula-falsi first
    guess x.  Without one, a scanned x whose residual is within tol is a
    hit, taken as it is; otherwise the target is infeasible at an x of
    least residual (x = 0 when all are equal or all non-finite).  So a
    flat residual, as on a model cyclic in q, is a hit at x = 0 only when
    within tol; its flat Jacobi field then flags it conjugate-degenerate
    (_shoot_batch).  Returns (x, lo, hi, r_lo, sign_changes,
    have_bracket, flags, i), i being the index of the bracket's lower
    candidate.
    """
    cols = np.arange(res.shape[1])
    size = np.where(np.isfinite(res), np.abs(res), np.inf)
    with np.errstate(all="ignore"):  # a product that overflows keeps its sign
        sign_change = res[:-1] * res[1:] < 0
    changes = sign_change.sum(axis=0)
    bracketed = changes > 0
    near = np.minimum(np.abs(cand[:-1]), np.abs(cand[1:]))
    i = np.argmin(np.where(sign_change, near[:, None], np.inf), axis=0)
    r_lo, r_hi = res[i, cols], res[i + 1, cols]
    lo, hi = cand[i], cand[i + 1]
    with np.errstate(all="ignore"):
        guess = lo - r_lo * (hi - lo) / (r_hi - r_lo)

    def nearest_zero(chosen):
        return cand[np.argmin(np.where(chosen, np.abs(cand)[:, None], np.inf), axis=0)]

    exact_hit = size <= tol
    hit = ~bracketed & exact_hit.any(axis=0)
    nearest_hit = nearest_zero(exact_hit)
    infeasible = ~(bracketed | hit)
    least = nearest_zero(size == size.min(axis=0))

    x = np.where(bracketed, guess, np.where(hit, nearest_hit, least))
    lo = np.where(bracketed, lo, np.where(hit, nearest_hit, 0.0))
    hi = np.where(bracketed, hi, np.where(hit, nearest_hit, 0.0))
    r_lo = np.where(bracketed, r_lo, 0.0)
    flags = np.where(infeasible, "infeasible", "unique").astype(object)
    return x, lo, hi, r_lo, changes, ~infeasible, flags, i


def _refine(nodes, res, bracketed):
    """Root guesses from the dense scan lanes of each target's bracket interval.

    nodes, (n + 1, targets), are the Chebyshev-Lobatto points of each
    target's bracket interval and res their residuals.  Where these are
    finite and change sign once, the root of their barycentric
    interpolant (Berrut & Trefethen, SIAM Rev. 2004) is found by Illinois
    regula-falsi steps inside the node pair that changes sign.  Returns
    (refined, x, lo, hi, r_lo): the targets refined, the roots, and the
    node pair with the residual at lo, each to be used where refined.
    """
    cols = np.arange(res.shape[1])
    with np.errstate(invalid="ignore"):
        change = res[:-1] * res[1:] < 0
    refined = bracketed & np.all(np.isfinite(res), axis=0) & (change.sum(axis=0) == 1)
    k = np.argmax(change, axis=0)
    lo, hi = nodes[k, cols], nodes[k + 1, cols]
    r_lo, r_hi = res[k, cols], res[k + 1, cols]
    weights = np.where(np.arange(res.shape[0]) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    # one row per target, so each target's sums run in the same order in any batch
    nodes_t, res_t = np.ascontiguousarray(nodes.T), np.ascontiguousarray(res.T)

    def interpolant(x):
        with np.errstate(all="ignore"):  # x on a node gives nan, which ends its steps
            w = weights / (x[:, None] - nodes_t)
            return np.sum(w * res_t, axis=1) / np.sum(w, axis=1)

    # Illinois: halve the residual kept at an end that a step did not move twice running
    a, b, fa, fb = lo.copy(), hi.copy(), r_lo.copy(), r_hi.copy()
    side = np.zeros(cols.size)
    x, live = lo.copy(), refined.copy()
    for _ in range(MAX_NEWTON_ITER):  # superlinear: 4 to 13 steps reach rounding level
        with np.errstate(all="ignore"):
            x = np.where(live, np.clip(b - fb * (b - a) / (fb - fa), lo, hi), x)
            fx = interpolant(x)
            to_b = live & (fx * fb > 0)
            to_a = live & (fx * fa > 0)
        fa = np.where(to_b & (side == -1), 0.5 * fa, fa)
        fb = np.where(to_a & (side == 1), 0.5 * fb, fb)
        b, fb = np.where(to_b, x, b), np.where(to_b, fx, fb)
        a, fa = np.where(to_a, x, a), np.where(to_a, fx, fa)
        side = np.where(to_b, -1, np.where(to_a, 1, side))
        live = (to_a | to_b) & (np.abs(b - a) > 4.0 * np.finfo(float).eps * np.abs(x))
        if not live.any():
            break
    return refined, x, lo, hi, r_lo


def _shoot_batch(model, start_value, targets, t_span, n_steps, shoot_on, density):
    """Shoot a family of endpoint targets: one scan, then the roots.

    shoot_on = 'p0' varies initial momentum with q(t_i) = start_value and
    matches final q (position-type); shoot_on = 'q0' varies initial
    position with p(t_i) = start_value and matches final p.  The horizon
    t_span[1] may be an array giving one horizon per target.

    The scan evaluates the endpoint at every candidate once per distinct
    horizon and picks each target's bracket from those (_brackets).
    Then:

    * affine field (separable, potential of degree <= 2): the endpoint
      E = alpha x + beta is read off G^N, the N-th power of the RK4 step
      map, so the root is one division and the Jacobi field
      J(t_j) = dE(t_j)/dx is an entry of G^j, exact; the residual is read
      off G^N x0 with x0 = (p0, q0, 1), and the paths, the powers applied
      to x0, are built only when read (_Shots).  No RK4 sweep runs.
    * any other field: the scan sweep also runs density - 1 lanes at
      Chebyshev-Lobatto points inside every interval between candidates,
      and a bracket whose density + 1 residuals are finite and change
      sign once narrows to the node pair around the root of their
      interpolant, which is the first iterate (_refine); density 1 is the
      plain scan with the regula-falsi guess.  Each Newton sweep then
      integrates the lanes x, x + h and x - h; the outer pair gives
      J(t) = (E+(t) - E-(t)) / 2h, whose final value is the Newton slope,
      and the centre lanes' paths are kept.  A step that leaves the
      bracket bisects it instead, and the sweeps stop once
      |residual| <= tol.  A surface's many targets share the plain scan,
      where dense lanes would cost arithmetic.
    * a dense scan (density > 1) on N > 4 steps first predicts the root.
      The same dense scan on ceil(N/8) and on ceil(N/4) steps gives two
      refined roots x8 and x4, whose RK4 error falls as n^-4, so
      Richardson extrapolation gives x^ = (w x4 - x8) / (w - 1) with
      w = (n4 / n8)^4.  The N-step scan sweep carries the lanes x^ and
      x^ +- h besides its dense ones, so x^ costs no sweep of its own.
      x^ is the root when that scan refined a bracket, x^ lies in the
      node pair _refine picked and |r(x^)| <= _PREDICTION_GATE * tol;
      its lanes then give the path and J(t) as a Newton sweep's would,
      and the solve has run n8 + n4 + N loop steps instead of 2N.
      Otherwise Newton runs from the refined guess, as above.  Brackets,
      refinement and sign changes come from the N-step dense lanes in
      either case.

    The residual is that of the returned endpoint (for an affine field
    G^N x0, which the path's last node equals up to rounding) and must
    reach tol = SHOOTING_TOL * max(1, |start|, |target|).  A target is
    conjugate-degenerate when |J(t_f)| <= SENSITIVITY_TOL * max_t |J(t)|
    or the scan changes sign more than once: on every dense row when
    density > 1, so a root between two candidates counts too.
    """
    if n_steps < 1:
        raise PreconditionError("shooting needs n_steps >= 1")
    targets = np.asarray(targets, dtype=float)
    tol = SHOOTING_TOL * _pinned_scale(start_value, targets)
    t1 = np.broadcast_to(np.asarray(t_span[1], dtype=float), targets.shape)
    span = t1 - float(t_span[0])
    dt = span / n_steps
    steps, first, horizon = np.unique(dt, return_index=True, return_inverse=True)
    unit = _momentum_unit(model, start_value) if shoot_on == "p0" else 1.0
    cand = _scan_candidates() * unit
    # (p, q) index of the matched end, which is also the pinned start's;
    # the shooting parameter is the other one
    end = 1 if shoot_on == "p0" else 0
    field_matrix = _affine_matrix(model)
    sub = 1 if field_matrix is not None else density  # rows per candidate interval
    nodes = _lobatto_nodes(cand, sub)

    def lanes(x):
        s = np.full_like(x, start_value)
        return (x, s) if shoot_on == "p0" else (s, x)

    def bracket(ends):
        """Each target's start from the scan endpoints ends, (nodes, horizons):
        (x, lo, hi, r_lo, sign_changes, have_bracket, flags, refined)."""
        with np.errstate(invalid="ignore"):  # a blown-up lane leaves inf - inf
            res = ends[:, horizon] - targets
        res = np.where(np.isfinite(res), res, np.nan)
        x, lo, hi, r_lo, changes, have_bracket, flags, i = _brackets(cand, res[::sub], tol)
        refined = np.zeros(targets.size, dtype=bool)
        if sub > 1:
            rows = i * sub + np.arange(sub + 1)[:, None]
            refined, *guess = _refine(nodes[rows], res[rows, np.arange(targets.size)], changes > 0)
            x, lo, hi, r_lo = (np.where(refined, g, v) for g, v in zip(guess, (x, lo, hi, r_lo)))
            # a root between two candidates shows only on the dense rows: count them all
            with np.errstate(all="ignore"):  # a product that overflows keeps its sign
                changes = np.sum(res[:-1] * res[1:] < 0, axis=0)
        return x, lo, hi, r_lo, changes, have_bracket, flags, refined

    if field_matrix is not None:
        powers = _step_powers(field_matrix, steps, n_steps)
        # the endpoint E(t_f) = alpha x + beta of the shooting parameter x
        with np.errstate(all="ignore"):
            alpha = powers[:, -1, end, 1 - end]
            beta = powers[:, -1, end, end] * start_value + powers[:, -1, end, 2]
            ends = alpha * cand[:, None] + beta
        x, lo, hi, r_lo, changes, have_bracket, flags, _ = bracket(ends)
        alpha, beta = alpha[horizon], beta[horizon]
        with np.errstate(all="ignore"):
            roots = np.where(changes > 0, (targets - beta) / alpha, x)
        x0 = np.stack([*lanes(roots), np.ones(targets.size)], axis=1)
        with np.errstate(all="ignore"):  # an overflowing lane poisons only itself
            end_state = np.einsum("kij,kj->ik", powers[horizon, -1, :2], x0)  # G^N x0
            residuals = end_state[end] - targets
        j_end = alpha
        j_max = np.max(np.abs(powers[:, :, end, 1 - end]), axis=1)[horizon]
        kept = dict(end=end_state, steps=steps, powers=powers, horizon=horizon, x0=x0,
                    method=np.full(targets.size, "affine"))
    else:
        field = model.vector_field()
        spread_on = "q" if end else "p"
        sweeps = []

        def sweep(x, lane_dt, n=n_steps, **kw):
            sweeps.append((x.size, n))
            pe, qe, P, Q, widest = _rk4(field, *lanes(x), lane_dt, n, **kw)
            return (qe if shoot_on == "p0" else pe), P, Q, widest

        grid = np.repeat(nodes[:, None], steps.size, axis=1)
        n8, n4 = -(-n_steps // 8), -(-n_steps // 4)
        x_hat = np.full(targets.size, np.nan)
        if sub > 1 and n4 > n8:  # n4 == n8 for N <= 4 leaves nothing to extrapolate
            x8, *_, ok8 = bracket(sweep(grid, span[first] / n8, n8)[0])
            x4, *_, ok4 = bracket(sweep(grid, span[first] / n4, n4)[0])
            w = (n4 / n8) ** 4
            x_hat = np.where(ok8 & ok4, (w * x4 - x8) / (w - 1.0), np.nan)
        pred = np.flatnonzero(np.isfinite(x_hat))
        if pred.size:
            # one flat sweep: the dense lanes, then x^, x^ + h and x^ - h of each prediction
            m, k, xh = grid.size, pred.size, x_hat[pred]
            h = FD_REL_STEP * np.maximum(unit, np.abs(xh))
            swept_ends, P_hat, Q_hat, widest = sweep(
                np.concatenate([grid.ravel(), xh, xh + h, xh - h]),
                np.concatenate([np.tile(steps, nodes.size), np.tile(dt[pred], 3)]),
                keep=slice(m, m + k),
                spread=(spread_on, slice(m + k, m + 2 * k), slice(m + 2 * k, None)))
            ends = swept_ends[:m].reshape(grid.shape)
            hat, plus, minus = np.split(swept_ends[m:], 3)
        else:
            ends = sweep(grid, steps)[0]
        x, lo, hi, r_lo, changes, have_bracket, flags, refined = bracket(ends)

        # (targets, (roots, residuals, P, Q, J(t_f), max_t |J(t)|)) of each route taken
        parts = []
        took = np.zeros(targets.size, dtype=bool)
        if pred.size:
            with np.errstate(invalid="ignore"):  # a blown-up lane leaves inf - inf
                r_hat = hat - targets[pred]
                spread = plus - minus
            s = (refined[pred] & (lo[pred] <= xh) & (xh <= hi[pred])
                 & (np.abs(r_hat) <= _PREDICTION_GATE * tol[pred]))
            if s.any():
                took[pred[s]] = True
                parts.append((pred[s], (xh[s], r_hat[s], P_hat[:, s], Q_hat[:, s], spread[s],
                                        widest[s])))
        rest = np.flatnonzero(~took)
        if rest.size:
            parts.append((rest, _newton(sweep, *(a[rest] for a in (x, lo, hi, r_lo, have_bracket,
                                                                   targets, tol, dt)),
                                        unit, spread_on)))
        if len(parts) == 1:  # one route took every target, in order
            roots, residuals, P, Q, j_end, j_max = parts[0][1]
        else:
            roots, residuals, j_end, j_max = (np.empty(targets.size) for _ in range(4))
            P, Q = (np.empty((n_steps + 1, targets.size)) for _ in range(2))
            for cols, values in parts:
                for a, v in zip((roots, residuals, P, Q, j_end, j_max), values):
                    a[..., cols] = v
        kept = dict(end=np.stack([P[-1], Q[-1]]), swept=(P, Q), sweeps=tuple(sweeps),
                    method=np.where(took, "predicted", "newton"))

    with np.errstate(invalid="ignore"):
        unresolved = have_bracket & ~(np.abs(residuals) <= tol) & (flags == "unique")
        flags[unresolved] = "infeasible"
        flat = ~(np.abs(j_end) > SENSITIVITY_TOL * j_max)
        degenerate = have_bracket & (flat | (changes > 1))
    flags[degenerate & (flags != "infeasible")] = "conjugate-degenerate"
    return _Shots(roots, residuals, flags, **kept)


def _newton(sweep, x, lo, hi, r_lo, have_bracket, targets, tol, dt, unit, spread_on):
    """Bracketed Newton sweeps of the non-affine shooting, for the targets
    whose predicted root, if any, did not stand (see _shoot_batch).

    Returns (roots, residuals, P, Q, J(t_f), max_t |J(t)|) of the last
    sweep of each target.
    """
    n_t = targets.size
    roots = x.copy()
    residuals = np.full(n_t, np.nan)
    j_end = np.full(n_t, np.nan)
    j_max = np.full(n_t, np.nan)
    P_all = Q_all = None
    todo = np.arange(n_t)
    for _ in range(MAX_NEWTON_ITER):
        xa = x[todo]
        h = FD_REL_STEP * np.maximum(unit, np.abs(xa))
        ends, P, Q, widest = sweep(np.stack([xa, xa + h, xa - h]), dt[todo], keep=0,
                                   spread=(spread_on, 1, 2))
        with np.errstate(invalid="ignore"):  # a blown-up lane leaves inf - inf
            r = ends[0] - targets[todo]
            spread = ends[1] - ends[2]
        if P_all is None and todo.size == n_t:
            P_all, Q_all = P, Q
        else:
            P_all[:, todo], Q_all[:, todo] = P, Q
        roots[todo], residuals[todo] = xa, r
        j_end[todo], j_max[todo] = spread, widest

        with np.errstate(invalid="ignore", divide="ignore"):
            going = have_bracket[todo] & (np.abs(r) > tol[todo])
            # keep the root bracketed: replace the end whose residual has r's sign
            move_lo = going & (np.sign(r) == np.sign(r_lo[todo]))
            lo[todo] = np.where(move_lo, xa, lo[todo])
            r_lo[todo] = np.where(move_lo, r, r_lo[todo])
            hi[todo] = np.where(going & ~move_lo, xa, hi[todo])
            xn = xa - r * (2.0 * h) / spread
            a, b = np.minimum(lo[todo], hi[todo]), np.maximum(lo[todo], hi[todo])
            inside = (xn > a) & (xn < b)
            xn = np.where(inside, xn, 0.5 * (a + b))
        going &= xn != xa
        x[todo] = np.where(going, xn, xa)
        todo = todo[going]
        if not todo.size:
            break
    return roots, residuals, P_all, Q_all, j_end, j_max


def _bvp(model, bounds, t_span, n_steps, shoot_on):
    shots = _shoot_batch(model, bounds.start, [bounds.end], t_span, n_steps, shoot_on,
                         density=REFINED_DENSITY)
    P, Q = shots.P[:, 0], shots.Q[:, 0]
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
        raise _blow_up(P, Q)
    path = PhasePath(t_span[0], t_span[1], P, Q)
    return ShootingReport(path=path, parameter=float(shots.roots[0]),
                          residual=float(abs(shots.residuals[0])), flag=str(shots.flags[0]),
                          method=str(shots.method[0]), sweeps=shots.sweeps)


def solve_position_bvp(model: HamiltonianModel, bounds: BoundarySpec, t_span,
                       n_steps: int) -> ShootingReport:
    """Shooting over the initial momentum for q(t_i) -> q(t_f).

    BRACKET_RANGE bounds the initial velocity: the scan tries momenta up
    to BRACKET_RANGE / H_pp(0, q(t_i)) in magnitude (BRACKET_RANGE itself
    when the model has no H_pp), so the search does not depend on the mass.
    Flags 'conjugate-degenerate' when t_f is a conjugate point, i.e.
    the Jacobi field J(t) = dq(t)/dp(t_i) has
    |J(t_f)| <= SENSITIVITY_TOL * max_t |J(t)|, or when several distinct
    initial momenta reach the target; 'infeasible' when no scanned
    momentum brackets the target or the returned path misses it by more
    than SHOOTING_TOL * max(1, |q(t_i)|, |q(t_f)|).  Affine fields are
    solved in closed form on the RK4 nodes, others by Newton sweeps
    (_shoot_batch).
    """
    if bounds.kind != "position-type":
        raise PreconditionError("solve_position_bvp needs a position-type boundary spec")
    return _bvp(model, bounds, t_span, n_steps, "p0")


def solve_momentum_bvp(model: HamiltonianModel, bounds: BoundarySpec, t_span,
                       n_steps: int) -> ShootingReport:
    """Shooting over the initial position for p(t_i) -> p(t_f).

    BRACKET_RANGE bounds the initial position.  The flags follow
    solve_position_bvp, with the Jacobi field J(t) = dp(t)/dq(t_i) and
    the residual held to SHOOTING_TOL * max(1, |p(t_i)|, |p(t_f)|).
    A model cyclic in q (the free particle) needs no case of its own: the
    momentum never moves, so every scanned position leaves the same
    residual.  Equal endpoint momenta are then a hit at q0 = 0 whose flat
    Jacobi field flags it 'conjugate-degenerate' (any initial position
    works); unequal ones are 'infeasible', also reported at q0 = 0.
    """
    if bounds.kind != "momentum-type":
        raise PreconditionError("solve_momentum_bvp needs a momentum-type boundary spec")
    return _bvp(model, bounds, t_span, n_steps, "q0")
