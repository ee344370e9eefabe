"""certify: bound certificates, Legendre batches and the cross-representation check.

Each bounds request solves the position problem and certifies one
chain on 1000 seeded perturbations, as the CLI's ``bounds`` command
does, on saddle-quadratic, a rescaled saddle and a quartic saddle.  Most
of the time goes to the per-sample loops of ``bounds``, to ``action``
quadrature and to the ``propagator`` quadrature kernel; dynamics is
about a third of a bounds request.
"""

from __future__ import annotations

import math

import numpy as np

from dualaction import (
    BoundarySpec, FourierGrid, HamiltonianModel, PerturbationSpec, PhasePath, SliceScheme,
    certify_bounds, fourier_endpoints, legendre_residual, position_kernel_sampler,
    sliced_momentum_propagator, solve_position_bvp,
)

from common import OK, Request, Verdict, judge, rel_err, round_rng, uniform
from models import anharmonic_saddle, linear_model, linear_p0, saddle_actions

SALT = 3
SAMPLES = 1000
N_BOUNDS = 1000
LEGENDRE_PATHS = 30
LEGENDRE_N = 2000
LEGENDRE_TOL, LEGENDRE_SHRINK = 1e-6, 3.5      # acceptance criterion 1
SLICES = 512
FOURIER_TOL = 2e-3                             # acceptance criterion 8
CLOSED_FORM_TOL = 1e-6
ACTION_TOL = 1e-5       # critical S and R carry O(dt^2) from centred differences (2e-7 here)

CELLS = (
    ("bounds", "saddle-quadratic", "S-chain"),
    ("bounds", "saddle-quadratic", "R-chain"),
    ("bounds", "rescaled-saddle", "S-chain"),
    ("bounds", "rescaled-saddle", "R-chain"),
    ("bounds", "anharmonic-saddle", "S-chain"),
    ("bounds", "anharmonic-saddle", "R-chain"),
    ("legendre", None, None),
    ("fourier", "sho", None),
)

LEGENDRE_MODELS = (HamiltonianModel.free(), HamiltonianModel.sho(),
                   HamiltonianModel.saddle_quadratic())


def _bounds_spec(rng, name, chain):
    if name == "saddle-quadratic":
        mass, kappa = 1.0, 1.0
    elif name == "rescaled-saddle":
        mass, kappa = uniform(rng, 2.0, 4.0), uniform(rng, 0.5, 0.8)
    else:
        mass, kappa = 1.0, None
    return {"model": name, "chain": chain, "mass": mass, "kappa": kappa,
            "q_end": uniform(rng, 0.6, 1.2), "t": uniform(rng, 0.8, 1.2),
            "epsilon": uniform(rng, 0.1, 0.25), "perturbation_seed": int(rng.integers(2**31))}


def _bounds_model(spec):
    if spec["model"] == "anharmonic-saddle":
        return anharmonic_saddle()
    return linear_model("saddle-quadratic", spec["mass"], spec["kappa"])


def build_round(seed, round_index, tracer=None):
    rng = round_rng(seed, round_index, SALT)
    out = []
    for i, (kind, name, chain) in enumerate(CELLS):
        rid = f"certify.{round_index}.{i}"
        if kind == "bounds":
            spec = _bounds_spec(rng, name, chain)
            out.append(Request(rid, f"bounds/{name}/{chain}", spec, _bounds_model(spec)))
        elif kind == "legendre":
            spec = {"path_seeds": [int(s) for s in rng.integers(2**31, size=LEGENDRE_PATHS)]}
            out.append(Request(rid, "legendre", spec))
        else:
            spec = {"t": uniform(rng, 0.6, 1.0), "p_i": uniform(rng, -0.5, 0.5),
                    "p_f": uniform(rng, -0.5, 0.5)}
            out.append(Request(rid, "fourier/sho", spec, HamiltonianModel.sho()))
    return out


def smooth_path(seed, n):
    """Seeded smooth (p, q) on [0, 1], as in the acceptance suite."""
    rng = np.random.default_rng(seed)
    amp_p = rng.normal(size=4) * 0.25
    amp_q = rng.normal(size=4) * 0.25
    t = np.linspace(0.0, 1.0, n + 1)
    p = 0.3 + sum(a / (k + 1) ** 3 * np.sin(np.pi * (k + 1) * t) for k, a in enumerate(amp_p))
    q = sum(a / (k + 1) ** 3 * np.cos(np.pi * (k + 1) * t) for k, a in enumerate(amp_q))
    return PhasePath(0.0, 1.0, p, q)


def _run_bounds(spec, model, tr):
    bounds = BoundarySpec("position-type", 0.0, spec["q_end"])
    with tr.span("dynamics.solve", node_steps=N_BOUNDS) as sp:
        bvp = solve_position_bvp(model, bounds, (0.0, spec["t"]), N_BOUNDS)
        sp["attrs"]["flag"] = bvp.flag
    pin = "q-pinned" if spec["chain"] == "S-chain" else "p-pinned"
    pert = PerturbationSpec(amplitude=spec["epsilon"], mode_count=8,
                            seed=spec["perturbation_seed"], pinned=pin)
    with tr.span("bounds.certify", samples=SAMPLES) as sp:
        cert = certify_bounds(model, spec["chain"], bvp, pert, SAMPLES)
        sp["attrs"]["violations"] = cert.violations
    return {"flag": bvp.flag, "p0": float(bvp.path.p[0]), "cert": cert}


def _run_legendre(spec, tr):
    worst = {LEGENDRE_N: 0.0, 2 * LEGENDRE_N: 0.0}
    for k, s in enumerate(spec["path_seeds"]):
        model = LEGENDRE_MODELS[k % len(LEGENDRE_MODELS)]
        for n in worst:
            path = smooth_path(s, n)
            with tr.span("action.quadrature", points=2 * (n + 1)):
                res = abs(legendre_residual(model, path))
            worst[n] = max(worst[n], res)
    return {"worst": worst[LEGENDRE_N], "worst_refined": worst[2 * LEGENDRE_N]}


def _run_fourier(spec, model, tr):
    scheme = SliceScheme(SLICES)
    with tr.span("propagator.chain"):
        sampler = position_kernel_sampler(model, spec["t"], scheme)
    grid = FourierGrid(out_final=np.array([spec["p_f"]]), out_initial=np.array([spec["p_i"]]),
                       band=24.0, n_quad=4096)
    with tr.span("propagator.fourier", points=grid.n_quad * grid.n_quad):
        oracle = complex(fourier_endpoints(sampler, grid, to="momentum").values[0, 0])
    with tr.span("propagator.chain"):
        direct = sliced_momentum_propagator(model, spec["p_i"], spec["p_f"], spec["t"], scheme)
    return {"oracle": oracle, "direct": direct.amplitude}


def run(request, tr):
    if request.kind == "legendre":
        return _run_legendre(request.spec, tr)
    if request.kind.startswith("fourier"):
        return _run_fourier(request.spec, request.model, tr)
    return _run_bounds(request.spec, request.model, tr)


def _check_bounds(spec, out):
    cert = out["cert"]
    problems = []
    crit = cert.critical_value
    margins = np.concatenate([crit - cert.lower_values, cert.upper_values - crit])
    if cert.samples != SAMPLES or cert.lower_values.size != SAMPLES:
        problems.append(f"{cert.samples} samples, expected {SAMPLES}")
    recount = int(np.sum(margins < -cert.slack))
    if recount != cert.violations:
        problems.append(f"certificate reports {cert.violations} violations, margins show {recount}")
    if not float(np.min(margins)) == cert.worst_margin:
        problems.append("worst_margin disagrees with the sample margins")
    if spec["model"] != "anharmonic-saddle":
        mass, kap, q1, t = spec["mass"], spec["kappa"], spec["q_end"], spec["t"]
        s_exact, r_exact = saddle_actions(mass, kap, 0.0, q1, t)
        want = s_exact if spec["chain"] == "S-chain" else r_exact
        if abs(crit - want) > ACTION_TOL * max(1.0, abs(want)):
            problems.append(f"critical value {crit!r} != closed form {want!r}")
        p0 = linear_p0("saddle-quadratic", mass, kap, 0.0, q1, t)
        if rel_err(out["p0"], p0) > CLOSED_FORM_TOL:
            problems.append(f"p0 {out['p0']!r} != closed form {p0!r}")
    if problems:
        return judge(problems, presented_valid=True)
    if out["flag"] != "unique":
        return Verdict("failed", (f"solver flagged {out['flag']}",))
    if cert.violations:
        return Verdict("failed", (f"{cert.violations} bound violations",))
    return OK


def check(request, out):
    if request.kind == "legendre":
        problems = []
        if not out["worst"] <= LEGENDRE_TOL:
            problems.append(f"Legendre residual {out['worst']:.3e} > {LEGENDRE_TOL:g}")
        if not out["worst"] >= LEGENDRE_SHRINK * out["worst_refined"]:
            problems.append("Legendre refinement shrink below 3.5")
        return judge(problems, presented_valid=True)
    if request.kind.startswith("fourier"):
        err = abs(out["oracle"] - out["direct"])
        problems = [] if err <= FOURIER_TOL else [f"oracle vs chain {err:.3e} > {FOURIER_TOL:g}"]
        if not math.isfinite(err):
            problems = ["non-finite propagator"]
        return judge(problems, presented_valid=True)
    return _check_bounds(request.spec, out)
