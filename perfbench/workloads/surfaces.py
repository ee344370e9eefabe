"""surfaces: Hamilton-Jacobi residual surfaces on 11 x 11 grids.

Each request builds one S or R action surface by batched shooting: 605
lanes per RK4 sweep (centre plus four offsets per node), so the time
goes to array arithmetic rather than per-step overhead.  The free R
surface puts p_i on the grid, which runs the serial cyclic branch.  The
constant-force R surface is left out: every node of it is degenerate.
Windows stay below the first caustic.
"""

from __future__ import annotations

import math

import numpy as np

from dualaction import hj_residual_r, hj_residual_s

from common import Request, Verdict, judge, round_rng, uniform
from models import linear_model

SALT = 2
GRID = 11

CELLS = (
    ("s", "sho"),
    ("s", "saddle-quadratic"),
    ("s", "free"),
    ("s", "constant-force"),
    ("r", "sho"),
    ("r", "saddle-quadratic"),
    ("r", "free"),
)

# acceptance criteria 2 and 3: 1e-4 where RK4 integrates the flow exactly
HJ_TOL = {"free": 1e-4, "constant-force": 1e-4, "sho": 1e-3, "saddle-quadratic": 1e-3}


def build_round(seed, round_index, tracer=None):
    rng = round_rng(seed, round_index, SALT)
    out = []
    for i, (which, name) in enumerate(CELLS):
        mass = uniform(rng, 0.5, 2.0)
        par = uniform(rng, 0.8, 1.25)
        # time scale 1/par for the oscillator; t_max stays below pi/(2 w)
        scale = 1.0 / par if name == "sho" else 1.0
        t_lo = uniform(rng, 0.3, 0.4) * scale if name == "sho" else uniform(rng, 0.5, 0.7)
        t_hi = t_lo + (uniform(rng, 0.6, 0.7) * scale if name == "sho" else uniform(rng, 0.7, 0.9))
        if which == "s":
            start = uniform(rng, -0.2, 0.2)
            lo = uniform(rng, 0.3, 0.7)
            hi = lo + uniform(rng, 0.8, 1.0)
        else:
            start = mass * uniform(rng, 0.8, 1.2)
            lo = mass * uniform(rng, 0.1, 0.3)
            hi = lo + mass * uniform(rng, 0.6, 0.8)
        grid = np.linspace(lo, hi, GRID)
        if which == "r" and name == "free":
            start = float(grid[int(rng.integers(GRID))])  # p_i on the grid
        spec = {"which": which, "model": name, "mass": mass, "par": par, "start": start,
                "grid": [lo, hi], "times": [t_lo, t_hi]}
        model = linear_model(name, mass, par)
        out.append(Request(f"surfaces.{round_index}.{i}", f"{which}/{name}", spec, model))
    return out


def _cyclic(spec):
    """The free R surface: only the line p_f = p_i is feasible, solved serially."""
    return spec["which"] == "r" and spec["model"] == "free"


def run(request, tr):
    spec, model = request.spec, request.model
    grid = np.linspace(*spec["grid"], GRID)
    times = np.linspace(*spec["times"], GRID)
    fn = hj_residual_s if spec["which"] == "s" else hj_residual_r
    lanes = 3 * GRID if _cyclic(spec) else 5 * GRID * GRID   # serial 1-lane solves vs one batch
    with tr.span("action.hj", lanes=lanes, nodes=GRID * GRID) as sp:
        fld = fn(model, spec["start"], grid, times)
        sp["attrs"]["valid_nodes"] = int(np.sum(fld.valid))
    return {
        "valid_nodes": int(np.sum(fld.valid)),
        "max_hj": fld.max_abs_hj(),
        "max_companion": fld.max_abs_companion(),
    }


def check(request, out):
    spec = request.spec
    want = GRID if _cyclic(spec) else GRID * GRID
    if out["valid_nodes"] != want:
        return Verdict("failed", (f"{out['valid_nodes']} valid nodes, expected {want}",))
    tol = HJ_TOL[spec["model"]]
    problems = []
    if not out["max_hj"] <= tol:
        problems.append(f"HJ residual {out['max_hj']:.3e} > {tol:g}")
    comp = out["max_companion"]
    if not (_cyclic(spec) and math.isnan(comp)) and not comp <= tol:
        problems.append(f"companion residual {comp:.3e} > {tol:g}")
    return judge(problems, presented_valid=True)
