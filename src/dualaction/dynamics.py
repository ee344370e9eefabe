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
  costs a few sweeps rather than a few per lane.  A sweep is bound by
  per-step overhead, so a single solve's scan carries 481 lanes at
  little more cost than 33.  It runs on rows of ceil(N/2^k) steps, from
  the coarsest of at least 16 up to the N-step row, so its cost follows
  the dynamics rather than N.  Each row brackets the dense sign change
  nearest 0.  On the first row that agrees with the one before it, or
  else on the N-step row, Newton on the whole N-step trajectory polishes
  that root from regula falsi on the bracket: each iteration is one
  vectorized RK4 step from every node, its exact Jacobian and a doubling
  scan of the linearized steps, so a solve that ends on the second row
  runs, for N > 480, 47 to 90 loop steps in all.
  Newton sweeps of the parameter and the parameter +- h serve the plain
  scan of many targets and every solve the trajectory Newton cannot.

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
# iterations of a trajectory Newton solve before the solve climbs a row (on the N-step row:
# takes Newton sweeps)
MAX_TRAJECTORY_ITER = 8
# a trajectory Newton correction within this many ulps of its path's largest |p| or |q|
# is at rounding level
_SETTLED = 64
FD_REL_STEP = 1e-6
# Chebyshev-Lobatto subintervals per scan interval of a single-target solve:
# one sweep is bound by per-step overhead, so 481 lanes cost little more than 33,
# and the same lanes on coarse rows of ceil(N/8), ceil(N/16), ... steps place the
# bracket and set the flag
REFINED_DENSITY = 15
# fewest steps of a coarse row below the top pair, ceil(N/16) and ceil(N/8)
_LADDER_FLOOR = 16


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
    # how the root was found: affine | trajectory | newton | scan (infeasible: the scanned
    # value of least residual)
    method: str = "affine"
    sweeps: tuple = ()  # (lanes, steps) of each RK4 sweep, in the order run
    iterations: int = 0  # trajectory Newton iterations (method 'trajectory'), else 0
    # sign changes of the residual over the scan row the solve ended on (all 481 dense
    # lanes for a non-affine field): the row the trajectory Newton polished on, else the
    # N-step one
    sign_changes: int = 0

    @property
    def solved(self):
        return self.flag != "infeasible"


def _rk4(field, p, q, dt, n_steps, keep=None, spread=None):
    """One RK4 sweep of Hamilton's equations over every lane at once.

    field is a model's vector_field(); p and q are equal-shape arrays of
    initial states (one lane per element) and dt is the step per lane,
    broadcastable against them.  keep indexes the lanes whose path is
    stored: ``...`` for all of them, ``0`` for the first row or an array
    of rows.
    spread = (variable, upper, lower), the variable 'p' or 'q' and two
    lane indexes of equal size, tracks max over nodes of
    |x[upper] - x[lower]| for that variable.  Nothing is checked: a
    blowing-up lane poisons only itself with non-finite values.  Returns
    (p, q, P, Q, spread_max), with None for what was not asked for.
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


def _rk4_step(field, p, q, dt, h2, dt6):
    """One RK4 step of every lane from (p, q), h2 = dt / 2 and dt6 = dt / 6:
    (p, q) after it and the stage points 2 to 4, each a (p, q) pair.

    The same arithmetic as one step of _rk4, which inlines it because a
    call per step would cost a sweep several percent.
    """
    a1, b1 = field(p, q)
    s2 = p - h2 * b1, q + h2 * a1
    a2, b2 = field(*s2)
    s3 = p - h2 * b2, q + h2 * a2
    a3, b3 = field(*s3)
    s4 = p - dt * b3, q + dt * a3
    a4, b4 = field(*s4)
    return (p - dt6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
            q + dt6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4), (s2, s3, s4))


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
    powers, shape (dt.size, n_steps+1, 3, 3), are built by doubling.  Each
    doubling is one matrix product per step size: the 3k rows of
    G^1 .. G^k, viewed as one (3k, 3) block, times G^n give G^(n+1) ..
    G^(n+k) in place.  Since k <= n the rows read and the rows written
    never overlap.
    """
    eye = np.eye(3)
    powers = np.empty((dt.size, n_steps + 1, 3, 3))
    powers[:, 0] = eye
    rows = powers.reshape(dt.size, 3 * (n_steps + 1), 3)
    with np.errstate(all="ignore"):  # a flow that outgrows floats turns non-finite
        m = dt[:, None, None] * field_matrix
        powers[:, 1] = eye + m @ (eye + m @ (eye + m @ (eye + m / 4.0) / 3.0) / 2.0)
        n = 1
        while n < n_steps:
            k = min(n, n_steps - n)
            np.matmul(rows[:, 3:3 * k + 3], powers[:, n], out=rows[:, 3 * n + 3:3 * (n + k) + 3])
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
    carries the paths of each target's trajectory Newton, last Newton
    sweep or scan lane.  method says how each target's root was found
    ('affine', 'trajectory', 'newton' or 'scan'), iterations counts each
    target's trajectory Newton iterations (0 on the other routes) and
    sweeps lists the (lanes, steps) of every RK4 sweep the batch ran.
    sign_changes counts each target's sign changes on the scan row it
    ended on.
    """

    roots: np.ndarray
    residuals: np.ndarray
    flags: np.ndarray
    end: np.ndarray
    sign_changes: np.ndarray
    steps: np.ndarray | None = None
    powers: np.ndarray | None = None
    horizon: np.ndarray | None = None
    x0: np.ndarray | None = None
    swept: tuple | None = None
    method: np.ndarray | None = None
    iterations: np.ndarray | None = None
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


def _brackets(nodes, res, tol, sub):
    """Starting points of the targets from one scan row's residuals res, (nodes, targets).

    The sign change nearest x = 0 over all the nodes gives the bracket
    [lo, hi], the node pair k, k + 1, and a regula-falsi first guess x.
    Without one, a candidate (every sub-th node) whose residual is within
    tol is a hit, taken as it is; otherwise the target is infeasible at
    the candidate of least residual nearest 0 (x = 0 when all are equal or
    all non-finite).  So a flat residual, as on a model cyclic in q, is a
    hit at x = 0 only when within tol; its flat Jacobi field then flags it
    conjugate-degenerate (_shoot_batch).  Returns (x, lo, hi, r_lo,
    sign_changes, have_bracket, flags, k, at), at being the node of x
    where there is no bracket.
    """
    cols = np.arange(res.shape[1])
    with np.errstate(all="ignore"):  # a product that overflows keeps its sign
        sign_change = res[:-1] * res[1:] < 0
    changes = sign_change.sum(axis=0)
    bracketed = changes > 0
    near = np.minimum(np.abs(nodes[:-1]), np.abs(nodes[1:]))
    k = np.argmin(np.where(sign_change, near[:, None], np.inf), axis=0)
    r_lo, r_hi = res[k, cols], res[k + 1, cols]
    lo, hi = nodes[k], nodes[k + 1]
    with np.errstate(all="ignore"):
        guess = lo - r_lo * (hi - lo) / (r_hi - r_lo)

    distance = np.abs(nodes[::sub])[:, None]  # of each candidate from 0
    size = np.where(np.isfinite(res[::sub]), np.abs(res[::sub]), np.inf)

    def nearest_zero(chosen):
        return sub * np.argmin(np.where(chosen, distance, np.inf), axis=0)

    exact_hit = size <= tol
    hit = ~bracketed & exact_hit.any(axis=0)
    infeasible = ~(bracketed | hit)
    at = np.where(hit, nearest_zero(exact_hit), nearest_zero(size == size.min(axis=0)))
    x = np.where(bracketed, guess, nodes[at])
    lo = np.where(bracketed, lo, np.where(hit, x, 0.0))
    hi = np.where(bracketed, hi, np.where(hit, x, 0.0))
    r_lo = np.where(bracketed, r_lo, 0.0)
    flags = np.where(infeasible, "infeasible", "unique").astype(object)
    return x, lo, hi, r_lo, changes, ~infeasible, flags, k, at


def _coarse_rows(n_steps):
    """Step counts of a dense solve's coarse scan rows, coarsest first: ceil(N/16)
    and ceil(N/8), and ceil(N/32), ceil(N/64), ... below them, down to the last of
    at least _LADDER_FLOOR steps; a count that repeats or is not below N is left
    out."""
    rows, d = [], 8
    while d <= 16 or -(-n_steps // d) >= _LADDER_FLOOR:
        n = -(-n_steps // d)
        if n < n_steps and n not in rows:
            rows.insert(0, n)
        d *= 2
    return rows


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
      Chebyshev-Lobatto points inside every interval between candidates
      (density 1 is the plain scan), and each target brackets the sign
      change nearest 0 over all of them.  When the model has every second
      partial and density > 1, the scan runs on rows: the coarse rows
      (_coarse_rows), from the coarsest up, then the N-step row.  Two
      rows agree when they put the bracket in the same candidate
      interval and agree on whether they change sign more than once,
      which is all the flag reads.  On a row that agrees with the one
      before it, and on the N-step row, _trajectory_newton polishes the
      root from the row's regula-falsi guess, on a path seeded from the
      bracket's two lanes (_seed_path), which the row's sweep kept (the
      lanes of the interval of the row before): a target it solves ends
      there (method 'trajectory'), with its sign changes and flag from
      that row, and no finer row runs for it.  On the N-step row, a
      target the trajectory Newton did not solve, or whose bracket lies
      outside the kept lanes, a hit, and every target of a plain scan or
      of a model that lacks a second partial, is solved by _newton from
      that row's guess in its bracket (method 'newton').  An infeasible
      target reports the kept path of its scan lane (method 'scan').  A
      surface's many targets share the plain scan, where dense lanes
      would cost arithmetic.

    The residual is that of the returned endpoint (for an affine field
    G^N x0, which the path's last node equals up to rounding) and must
    reach tol = SHOOTING_TOL * max(1, |start|, |target|).  A target is
    conjugate-degenerate when |J(t_f)| <= SENSITIVITY_TOL * max_t |J(t)|
    or the scan row it ended on changes sign more than once: on every
    dense lane when density > 1, so a root between two candidates counts
    too.
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
    # (p, q) index of the matched end, which is also the pinned start's;
    # the shooting parameter is the other one
    end = 1 if shoot_on == "p0" else 0
    field_matrix = _affine_matrix(model)
    sub = 1 if field_matrix is not None else density  # rows per candidate interval
    with np.errstate(all="ignore"):  # a unit past the float range leaves non-finite lanes
        cand = _scan_candidates() * unit
        nodes = _lobatto_nodes(cand, sub)
    n_t = targets.size

    def lanes(x):
        s = np.full_like(x, start_value)
        return (x, s) if shoot_on == "p0" else (s, x)

    def bracket(ends):
        """_brackets of the scan endpoints ends, (nodes, horizons)."""
        # a blown-up lane leaves inf - inf, and a huge end minus a huge target overflows
        with np.errstate(invalid="ignore", over="ignore"):
            res = ends[:, horizon] - targets
        return _brackets(nodes, np.where(np.isfinite(res), res, np.nan), tol, sub)

    if field_matrix is not None:
        powers = _step_powers(field_matrix, steps, n_steps)
        # the endpoint E(t_f) = alpha x + beta of the shooting parameter x
        with np.errstate(all="ignore"):
            alpha = powers[:, -1, end, 1 - end]
            beta = powers[:, -1, end, end] * start_value + powers[:, -1, end, 2]
            ends = alpha * cand[:, None] + beta
        x, lo, hi, r_lo, changes, have_bracket, flags, *_ = bracket(ends)
        alpha, beta = alpha[horizon], beta[horizon]
        with np.errstate(all="ignore"):
            roots = np.where(changes > 0, (targets - beta) / alpha, x)
        x0 = np.stack([*lanes(roots), np.ones(n_t)], axis=1)
        with np.errstate(all="ignore"):  # an overflowing lane poisons only itself
            end_state = np.einsum("kij,kj->ik", powers[horizon, -1, :2], x0)  # G^N x0
            residuals = end_state[end] - targets
        j_end = alpha
        j_max = np.max(np.abs(powers[:, :, end, 1 - end]), axis=1)[horizon]
        kept = dict(end=end_state, steps=steps, powers=powers, horizon=horizon, x0=x0,
                    method=np.full(n_t, "affine"), iterations=np.zeros(n_t, dtype=int))
    else:
        field = model.vector_field()
        sweeps = []

        def sweep(x, lane_dt, n=n_steps, keep=None, spread=None):
            # one _rk4 sweep from the parameters x; spread = (upper, lower) lanes of J
            sweeps.append((x.size, n))
            pe, qe, P, Q, widest = _rk4(field, *lanes(x), lane_dt, n, keep,
                                        None if spread is None else ("pq"[end], *spread))
            return (qe if shoot_on == "p0" else pe), P, Q, widest

        grid = np.repeat(nodes[:, None], steps.size, axis=1)
        second = _second_partials(model) if sub > 1 else None
        roots, residuals, j_end, j_max = np.full((4, n_t), np.nan)
        P, Q = np.full((2, n_steps + 1, n_t), np.nan)
        iterations, changes = np.zeros((2, n_t), dtype=int)
        have_bracket = np.zeros(n_t, dtype=bool)
        flags = np.full(n_t, "infeasible", dtype=object)
        method = np.full(n_t, "trajectory")
        done = np.zeros(n_t, dtype=bool)
        before = None  # the row before: (candidate interval, sign changes) of each target
        for n in (_coarse_rows(n_steps) if second is not None else []) + [n_steps]:
            # the sweep keeps the lanes of the row before's bracket intervals, where an
            # agreeing row's bracket lies, and on the N-step row every candidate's
            keep = np.zeros(nodes.size, dtype=bool)
            keep[::sub] = n == n_steps
            if before is not None:
                i_b, changes_b = before
                keep[i_b[~done & (changes_b > 0)] * sub + np.arange(sub + 1)[:, None]] = True
            keep = np.flatnonzero(keep)
            run = None  # a run of lanes is kept by a slice, which a step copies faster
            if keep.size:
                run = slice(keep[0], keep[-1] + 1) if keep[-1] - keep[0] < keep.size else keep
            ends, P_n, Q_n, _ = sweep(grid, span[first] / n, n, keep=run)
            x, lo, hi, r_lo, row_changes, row_have, row_flags, k, at = bracket(ends)
            i = k // sub
            polish = np.zeros(n_t, dtype=bool)
            if before is not None:
                # the bracket lies in the lanes kept for the target
                inside = (changes_b > 0) & (i == i_b)
                agree = inside & ((row_changes > 1) == (changes_b > 1))
                polish = ~done & (row_changes > 0) & (inside if n == n_steps else agree)
            if second is not None and polish.any():
                cols = np.flatnonzero(polish)
                pair = k[cols] + np.arange(2)[:, None]
                on = slice(None), np.searchsorted(keep, pair), horizon[cols]
                seed = _seed_path(nodes[pair], x[cols], P_n[on], Q_n[on], n_steps)
                seed[end, 0], seed[1 - end, 0] = start_value, x[cols]
                solved, *solution = _trajectory_newton(
                    field, second, seed, 1 - end, targets[cols], tol[cols], dt[cols], lo[cols],
                    hi[cols])
                won = cols[solved]
                for mine, theirs in zip((roots, residuals, P, Q, j_end, j_max, iterations),
                                        solution):
                    mine[..., won] = theirs[..., solved]
                changes[won], have_bracket[won], flags[won] = (
                    row_changes[won], row_have[won], row_flags[won])
                done[won] = True
            if done.all():
                break
            before = i, row_changes
        else:  # the N-step row ran and some targets are left
            rest = np.flatnonzero(~done)
            changes[rest], have_bracket[rest], flags[rest] = (
                row_changes[rest], row_have[rest], row_flags[rest])
            # an infeasible target's path is its scan lane's, the candidate of least residual
            lost = rest[~row_have[rest]]
            on = slice(None), np.searchsorted(keep, at[lost]), horizon[lost]
            P[:, lost], Q[:, lost], roots[lost] = P_n[on], Q_n[on], nodes[at[lost]]
            with np.errstate(invalid="ignore"):  # a blown-up lane leaves inf - inf
                residuals[lost] = (Q if shoot_on == "p0" else P)[-1, lost] - targets[lost]
            method[lost] = "scan"
            todo = rest[row_have[rest]]
            if todo.size:
                (roots[todo], residuals[todo], P[:, todo], Q[:, todo], j_end[todo],
                 j_max[todo]) = _newton(sweep, x[todo], lo[todo], hi[todo], r_lo[todo],
                                        targets[todo], tol[todo], dt[todo], unit)
                method[todo] = "newton"
        kept = dict(end=np.stack([P[-1], Q[-1]]), swept=(P, Q), sweeps=tuple(sweeps),
                    method=method, iterations=iterations)

    with np.errstate(invalid="ignore"):
        unresolved = have_bracket & ~(np.abs(residuals) <= tol) & (flags == "unique")
        flags[unresolved] = "infeasible"
        flat = ~(np.abs(j_end) > SENSITIVITY_TOL * j_max)
        degenerate = have_bracket & (flat | (changes > 1))
    flags[degenerate & (flags != "infeasible")] = "conjugate-degenerate"
    return _Shots(roots, residuals, flags, sign_changes=changes, **kept)


def _newton(sweep, x, lo, hi, r_lo, targets, tol, dt, unit):
    """Bracketed Newton iterates of the non-affine shooting (see _shoot_batch).

    Each target starts from x inside its bracket [lo, hi] (lo = hi for a
    hit), r_lo being the residual at lo.  An iterate sweeps the lanes x,
    x + h and x - h of each target still going: the outer pair gives
    J(t) = (E+(t) - E-(t)) / 2h, whose final value is the Newton slope,
    and the centre lanes' paths are kept.  A step that leaves the bracket
    bisects it instead, and the iterates stop once |residual| <= tol or
    after MAX_NEWTON_ITER sweeps.  Returns (roots, residuals, P, Q,
    J(t_f), max_t |J(t)|) of each target's last iterate.
    """
    roots = x.copy()
    residuals, j_end, j_max = np.full((3, targets.size), np.nan)
    P_all = Q_all = None
    todo = np.arange(targets.size)
    for _ in range(MAX_NEWTON_ITER):
        xa = x[todo]
        h = FD_REL_STEP * np.maximum(unit, np.abs(xa))
        ends, P, Q, widest = sweep(np.stack([xa, xa + h, xa - h]), dt[todo], keep=0,
                                   spread=(1, 2))
        with np.errstate(invalid="ignore"):  # a blown-up lane leaves inf - inf
            r = ends[0] - targets[todo]
            spread = ends[1] - ends[2]
        if P_all is None:  # the first sweep runs every target, in order
            P_all, Q_all = P, Q
        else:
            P_all[:, todo], Q_all[:, todo] = P, Q
        roots[todo], residuals[todo] = xa, r
        j_end[todo], j_max[todo] = spread, widest

        with np.errstate(invalid="ignore", divide="ignore"):
            going = np.abs(r) > tol[todo]
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


def _second_partials(model):
    """Callables of H_pp, H_pq and H_qq, or None when a general model's
    partials lack one of them."""
    try:
        return [model._derivative(*order) for order in ((2, 0), (1, 1), (0, 2))]
    except UnsupportedOrderError:
        return None


def _seed_path(lanes, x, P, Q, n_steps):
    """(2, n_steps + 1, targets) seed paths through the parameters x.

    lanes, (2, targets), are the parameters below and above x whose paths
    P and Q, (n + 1, 2, targets), were swept on n steps.  Each target's
    seed is linear in x between those two paths, then linear in time
    between their nodes.
    """
    share = (x - lanes[0]) / (lanes[1] - lanes[0])
    Y = np.stack([(1.0 - share) * Z[:, 0] + share * Z[:, 1] for Z in (P, Q)])
    n = Y.shape[1] - 1
    at = np.arange(n_steps + 1) * (n / n_steps)
    j = np.minimum(at.astype(int), n - 1)
    share = (at - j)[:, None]
    return (1.0 - share) * Y[:, j] + share * Y[:, j + 1]


def _compose(a, b):
    """a b for stacks of 2x2 matrices a, (2, 2, ...), and 2xk blocks b, (2, k, ...)."""
    return a[:, :1] * b[0] + a[:, 1:] * b[1]


def _step_jacobian(second, stages, dt, h2, dt6):
    """Jacobian of the RK4 step, (2, 2, nodes, lanes), from its four stage
    points and the field's Jacobian [[-H_pq, -H_qq], [H_pp, H_pq]] at each,
    second being the callables of H_pp, H_pq and H_qq."""
    eye = np.eye(2)[:, :, None, None]

    def field_jacobian(p, q):
        hpp, hpq, hqq = np.broadcast_arrays(*(d(p, q) for d in second))
        return np.array([[-hpq, -hqq], [hpp, hpq]])

    k = total = field_jacobian(*stages[0])
    for stage, h, weight in zip(stages[1:], (h2, h2, dt), (2.0, 2.0, 1.0)):
        k = _compose(field_jacobian(*stage), eye + h * k)
        total = total + weight * k
    return eye + dt6 * total


def _trajectory_newton(field, second, Y, shot, targets, tol, dt, lo, hi):
    """Newton on whole RK4 trajectories: a target's parameter and nodes 1..N at once.

    Y, (2, N + 1, targets), holds the seed paths, (p, q) at every node,
    each with its shooting parameter x at Y[shot, 0]; the other variable
    is pinned; the first iteration overwrites Y.  An iteration takes one
    RK4 step Phi from every node at once, with its exact Jacobian A_j
    from the stage points, so the correction d_j of node j obeys
    d_{j+1} = A_j d_j + c_j with c_j = Phi(y_j) - y_{j+1}.  Composing these affine maps by doubling,
    log2(N) batched products, gives every d_j as u_j dx + v_j, dx the
    change of x: u_j, the products applied to the shooting direction, is
    the Jacobi field J(t_j) of the discrete flow, exact, and the end
    condition fixes dx.  A target is solved by the iteration whose
    correction is at rounding level (every |d_j| within _SETTLED ulps of
    its path's largest |p| or |q|) and leaves its end residual within tol
    and x in [lo, hi]; the corrected path is then a fixed point of the
    RK4 step to rounding.  One whose values turn non-finite, or that is
    not solved within MAX_TRAJECTORY_ITER iterations, is not.  second
    holds the callables of H_pp, H_pq and H_qq (_second_partials).  Returns
    (solved, x, residual, P, Q, J(t_f), max_t |J(t)|, iterations), each
    target's solution valid where solved.
    """
    end, n_t, n = 1 - shot, targets.size, Y.shape[1] - 1
    solved = np.zeros(n_t, dtype=bool)
    x, residuals, j_end, j_max = np.full((4, n_t), np.nan)
    paths = np.full(Y.shape, np.nan)
    iterations = np.zeros(n_t, dtype=int)
    live = np.arange(n_t)
    with np.errstate(all="ignore"):  # a lane that turns non-finite is dropped
        for it in range(1, MAX_TRAJECTORY_ITER + 1):
            step = dt[live]
            h2, dt6 = 0.5 * step, step / 6.0
            p, q, stages = _rk4_step(field, Y[0, :-1], Y[1, :-1], step, h2, dt6)
            maps = np.empty((2, 3, n, live.size))  # [A_j | c_j]
            maps[:, :2] = _step_jacobian(second, ((Y[0, :-1], Y[1, :-1]),) + stages, step, h2,
                                         dt6)
            maps[:, 2] = np.stack([p, q]) - Y[:, 1:]
            d = 1
            while d < n:  # node j of the prefix maps is M_j ... M_0, by doubling
                composed = _compose(maps[:, :2, d:], maps[:, :, :-d])
                composed[:, 2] += maps[:, 2, d:]
                maps[:, :, d:] = composed
                d *= 2
            J = maps[end, shot]
            dx = -(Y[end, -1] - targets[live] + maps[end, 2, -1]) / J[-1]
            correction = maps[:, shot] * dx + maps[:, 2]
            settled = np.all(np.abs(correction) <= _SETTLED * np.finfo(float).eps
                             * np.max(np.abs(Y), axis=1, keepdims=True), axis=(0, 1))
            Y[:, 1:] += correction
            Y[shot, 0] += dx
            r = Y[end, -1] - targets[live]
            finite = np.all(np.isfinite(Y), axis=(0, 1)) & np.all(np.isfinite(J), axis=0)
            done = finite & settled & (np.abs(r) <= tol[live])
            won = done & (lo[live] <= Y[shot, 0]) & (Y[shot, 0] <= hi[live])
            cols = live[won]
            solved[cols], iterations[cols], paths[..., cols] = True, it, Y[..., won]
            x[cols], residuals[cols] = Y[shot, 0, won], r[won]
            j_end[cols], j_max[cols] = J[-1, won], np.max(np.abs(J[:, won]), axis=0)
            going = finite & ~done
            live, Y = live[going], Y[..., going]
            if not live.size:
                break
    return solved, x, residuals, paths[0], paths[1], j_end, j_max, iterations


def _bvp(model, bounds, t_span, n_steps, shoot_on):
    shots = _shoot_batch(model, bounds.start, [bounds.end], t_span, n_steps, shoot_on,
                         density=REFINED_DENSITY)
    P, Q = shots.P[:, 0], shots.Q[:, 0]
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
        raise _blow_up(P, Q)
    path = PhasePath(t_span[0], t_span[1], P, Q)
    return ShootingReport(path=path, parameter=float(shots.roots[0]),
                          residual=float(abs(shots.residuals[0])), flag=str(shots.flags[0]),
                          method=str(shots.method[0]), sweeps=shots.sweeps,
                          iterations=int(shots.iterations[0]),
                          sign_changes=int(shots.sign_changes[0]))


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
    than SHOOTING_TOL * max(1, |q(t_i)|, |q(t_f)|).  The root is the one
    the scan brackets nearest p(t_i) = 0.  Affine fields are solved in
    closed form on the RK4 nodes, others by Newton on the whole RK4
    trajectory or, where that does not converge on the N-step row, by
    Newton sweeps (_shoot_batch).
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
