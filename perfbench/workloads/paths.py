"""paths: single critical-path requests (the library form of classify + action).

One request solves one endpoint problem and then evaluates S, R, the
Legendre and K residuals and both extremum verdicts, as the CLI's
``action`` and ``classify`` commands do.  This loads one-lane dynamics,
where per-step Python overhead and redundant RK4 sweeps dominate.

The cells cover the four builtins, a quartic oscillator (V = q^2/2 +
lambda q^4 at unit mass) and a general-kind model, masses from 1e-3 to
1e7, both boundary types and N = 500, 1000, 2000.
Position requests draw |p0/m| from [0.25, 0.75], so a request fails the
solver's fixed bracket (|p0| <= 1e3) exactly when m >= 1e4; those
requests stay in the mix and count as failures.
"""

from __future__ import annotations

import math

import numpy as np

from dualaction import (
    BoundarySpec, action_r, action_s, classify_extremum,
    k_total_derivative_residual, legendre_residual, solve_momentum_bvp, solve_position_bvp,
)

from common import Request, Verdict, judge, rel_err, round_rng, uniform
from models import (
    anharmonic, linear_flow, linear_model, linear_p0, linear_q0, soft_oscillator,
)

SALT = 1

# (model, boundary, log10 mass, N): every round runs these cells in order
CELLS = (
    ("free", "position-type", -3, 1000),
    ("free", "position-type", 5, 500),
    ("sho", "position-type", -1, 2000),
    ("sho", "position-type", 4, 1000),
    ("saddle-quadratic", "position-type", 1, 1000),
    ("saddle-quadratic", "position-type", 7, 500),
    ("constant-force", "position-type", 3, 500),
    ("anharmonic", "position-type", 0, 1000),
    ("soft-oscillator", "position-type", 2, 2000),
    ("sho", "momentum-type", 6, 1000),
    ("saddle-quadratic", "momentum-type", -2, 500),
    ("anharmonic", "momentum-type", 3, 500),
    ("soft-oscillator", "momentum-type", 4, 2000),
)

LINEAR = ("free", "sho", "saddle-quadratic", "constant-force")

# second-variation verdicts fixed by the constant Hessians of the linear flows
VERDICTS = {
    "free": ("degenerate", "degenerate"),
    "constant-force": ("degenerate", "degenerate"),
    "sho": ("indefinite", "indefinite"),
    "saddle-quadratic": ("minimum", "maximum"),
}

# The quartic has far critical paths inside the solver's fixed brackets
# (|p0|, |q0| <= 1e3).  Depending on the window the solver returns a far
# root, blows up, or finds the near one, and its time swings from 0.2 s
# to 4.6 s, which would swamp the run-to-run spread.  The two quartic
# cells therefore use one fixed window each (lambda, t, start, end): at
# the parent the position cell returns a far root flagged
# conjugate-degenerate and the momentum cell is flagged infeasible.
FIXED = {
    ("anharmonic", "position-type"): (0.1, 0.45 * math.pi, 0.0, 0.5),
    ("anharmonic", "momentum-type"): (0.1, 0.45 * math.pi, 0.3, -0.3),
}

# Acceptance criterion 1 holds the Legendre residual to 1e-6 at dt = 1/2000
# and checks that it shrinks as dt^2; the same bound is carried to each
# request's grid by that order, in units of the path's action scale.
LEGENDRE_TOL, LEGENDRE_DT = 1e-6, 1.0 / 2000
CLOSED_FORM_TOL = 1e-6
ACTION_TOL = 1e-4       # centred-difference velocities put O(dt^2) into S and R


def _draw(rng, name, boundary):
    """(par, t, start, end) for one cell; par as in models.linear_p0."""
    if (name, boundary) in FIXED:
        return FIXED[name, boundary]
    if name == "free":
        par, t = 0.0, uniform(rng, 0.5, 1.5)
    elif name in ("sho", "soft-oscillator"):
        par = uniform(rng, 0.8, 1.25)
        t = uniform(rng, 0.3, 0.6) * math.pi / par
    elif name == "saddle-quadratic":
        par, t = uniform(rng, 0.8, 1.25), uniform(rng, 0.5, 1.5)
    else:
        par, t = uniform(rng, 0.5, 1.5), uniform(rng, 0.5, 1.5)
    est = "sho" if name == "soft-oscillator" else name    # linear flow to draw windows by
    while True:
        if boundary == "position-type":
            q0 = uniform(rng, -0.3, 0.3)
            q1 = q0 + uniform(rng, -1.0, 1.0)
            v = linear_p0(est, 1.0, par, q0, q1, t)
            if 0.25 <= abs(v) <= 0.75 and abs(q1) <= 1.0:
                return par, t, q0, q1
        else:
            u0, u1 = uniform(rng, -0.8, 0.8), uniform(rng, -0.8, 0.8)
            # |q0| <= 0.5 keeps the soft oscillator's saturating force able to
            # turn p(t) around, so every momentum problem drawn is feasible
            if abs(linear_q0(est, 1.0, par, u0, u1, t)) <= 0.5:
                return par, t, u0, u1


def _model(spec, tracer):
    name, m, par = spec["model"], spec["mass"], spec["par"]
    if name == "anharmonic":
        return anharmonic(m, par)
    if name == "soft-oscillator":
        return soft_oscillator(m, par, tracer)
    return linear_model(name, m, par)


def build_round(seed, round_index, tracer=None):
    rng = round_rng(seed, round_index, SALT)
    out = []
    for i, (name, boundary, log_mass, n) in enumerate(CELLS):
        mass = 10.0 ** log_mass
        par, t, a, b = _draw(rng, name, boundary)
        if boundary == "momentum-type":
            a, b = mass * a, mass * b               # momenta scale with the mass
        spec = {"model": name, "mass": mass, "par": par, "boundary": boundary,
                "start": a, "end": b, "t": t, "N": n}
        kind = f"{'pos' if boundary == 'position-type' else 'mom'}/{name}"
        out.append(Request(f"paths.{round_index}.{i}", kind, spec, _model(spec, tracer)))
    return out


def run(request, tr):
    spec, model = request.spec, request.model
    bounds = BoundarySpec(spec["boundary"], spec["start"], spec["end"])
    solve = solve_position_bvp if spec["boundary"] == "position-type" else solve_momentum_bvp
    with tr.span("dynamics.solve", node_steps=spec["N"]) as sp:
        rep = solve(model, bounds, (0.0, spec["t"]), spec["N"])
        sp["attrs"]["flag"] = rep.flag
    out = {"flag": rep.flag, "parameter": rep.parameter}
    if rep.flag == "infeasible":
        return out
    path = rep.path
    points = path.p.size
    with tr.span("action.quadrature", points=points):
        out["S"] = action_s(model, path).value
    with tr.span("action.quadrature", points=points):
        out["R"] = action_r(model, path).value
    with tr.span("action.quadrature", points=2 * points):
        out["legendre"] = legendre_residual(model, path)
    with tr.span("action.quadrature", points=points):
        out["k_residual"] = k_total_derivative_residual(model, path)
    with tr.span("extrema.classify"):
        out["verdict_S"] = classify_extremum(model, path, "S").classification
    with tr.span("extrema.classify"):
        out["verdict_R"] = classify_extremum(model, path, "R").classification
    out["path"] = path
    return out


def _closed_form(spec, out):
    """Problems with the shooting parameter, S and R of a linear-flow request."""
    name, mass, par, t = spec["model"], spec["mass"], spec["par"], spec["t"]
    a, b = spec["start"], spec["end"]
    problems = []
    if spec["boundary"] == "position-type":
        want = linear_p0(name, mass, par, a, b, t)
        q0, p0, err = a, want, rel_err(out["parameter"], want)
    else:
        want = linear_q0(name, mass, par, a, b, t)
        q0, p0, err = want, a, rel_err(out["parameter"], want, floor=1.0)
    if err > CLOSED_FORM_TOL:
        problems.append(f"shooting parameter {out['parameter']!r} != closed form {want!r}")
    q1, p1, s = linear_flow(name, mass, par, q0, p0, t)
    r = s - (p1 * q1 - p0 * q0)
    scale = max(abs(s), abs(r), abs(p0 * q0), abs(p1 * q1))
    for label, got, exact in (("S", out["S"], s), ("R", out["R"], r)):
        if not abs(got - exact) <= ACTION_TOL * scale:
            problems.append(f"{label} {got!r} != closed form {exact!r}")
    return problems


def check(request, out):
    spec = request.spec
    flag = out["flag"]
    if flag == "infeasible":
        return Verdict("failed", ("solver flagged infeasible",))
    problems, inconclusive = [], []
    name = spec["model"]
    path = out["path"]
    if name in LINEAR:
        if flag != "unique":
            inconclusive.append(f"flag {flag} on a unique linear problem")
        problems += _closed_form(spec, out)
        for which, got, expected in zip("SR", (out["verdict_S"], out["verdict_R"]), VERDICTS[name]):
            if got == expected:
                continue
            # 'degenerate' is the classifier's "cannot tell within tolerance"
            (inconclusive if got == "degenerate" else problems).append(
                f"{which} verdict {got}, expected {expected}")
    pq = float(np.max(np.abs(path.p)) * np.max(np.abs(path.q)))
    scale = max(1.0, abs(out["S"]), abs(out["R"]), pq)
    boundary = path.p[-1] * path.q[-1] - path.p[0] * path.q[0]
    if not abs(out["S"] - out["R"] - boundary - out["legendre"]) <= 1e-9 * scale:
        problems.append("S, R and the Legendre residual disagree")
    tol = LEGENDRE_TOL * max(1.0, (path.dt / LEGENDRE_DT) ** 2) * scale
    if not abs(out["legendre"]) <= tol:
        problems.append(f"Legendre residual {out['legendre']:.3e} > {tol:.3e}")
    if not math.isfinite(out["k_residual"]):
        problems.append("K residual not finite")
    if problems:
        return judge(problems + inconclusive, presented_valid=flag == "unique")
    return judge(inconclusive, presented_valid=False)
