"""Command-line front end: every computation behind one deterministic CLI.

Each run emits a single JSON report (schema_version 1) with the resolved
parameters, results, and tolerances; --format csv additionally writes
the command's data series to --out as CSV while the JSON report goes to
stdout.  Exit status: 0 success, 2 precondition/usage error, 1 numeric
failure.  Set DUALACTION_LOG=DEBUG|INFO|WARNING for logging.

A command imports only the modules it uses: each handler imports its
own solvers, so a cold ``spin`` or ``propagate`` call loads no shooting
or bounds code.  numpy, the model and configparser load only where a run
uses them: a ``spin`` run on the default free model builds no model, and
no ``spin`` run loads numpy, since the spin module is pure Python.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field

from . import BUILTIN_NAMES
from . import spin as spin_mod
from .errors import DualActionError, NumericError, PreconditionError

log = logging.getLogger("dualaction")
# silent unless DUALACTION_LOG configures logging: stderr carries only the JSON error
log.addHandler(logging.NullHandler())

SCHEMA_VERSION = 1
COMMANDS = ("classify", "action", "bounds", "propagate", "spin", "hj-check", "legendre-check")

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "command", "parameters", "results", "tolerances", "status"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": list(COMMANDS)},
        "parameters": {"type": "object"},
        "results": {"type": "object"},
        "tolerances": {"type": "object"},
        "status": {"enum": ["ok"]},
    },
    "additionalProperties": False,
}

ERROR_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "status", "error_code", "message"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "status": {"enum": ["error"]},
        "error_code": {"type": "string"},
        "message": {"type": "string"},
    },
}


@dataclass
class RunConfig:
    command: str
    hamiltonian: dict
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_format: str = "json"
    out_path: str | None = None

    def parameters_block(self):
        block = {"hamiltonian": self.hamiltonian, "seed": self.seed}
        block.update(self.params)
        return block


_DEFAULT_SPEC = {"builtin": "free"}


def _resolve_model(spec: dict):
    from .model import HamiltonianModel

    kind = spec.get("kind", "builtin")
    if kind == "builtin" or spec.get("builtin"):
        name = spec.get("builtin", "free")
        return HamiltonianModel.builtin(
            name, mass=spec.get("mass", 1.0), omega=spec.get("omega", 1.0),
            k=spec.get("k", 1.0), force=spec.get("force", 1.0),
        )
    if kind == "separable":
        coeffs = spec.get("potential_coeffs")
        if not coeffs:
            raise PreconditionError("separable hamiltonian needs potential_coeffs")
        return HamiltonianModel.separable(spec.get("mass", 1.0), potential_coeffs=coeffs)
    raise PreconditionError(f"cannot build hamiltonian of kind {kind!r} from config")


def _unparsable(exc):
    return PreconditionError(f"cannot parse the hamiltonian spec: {exc}")


def _hamiltonian_spec(args) -> dict:
    try:
        return _parse_hamiltonian_spec(args)
    except ValueError as exc:
        raise _unparsable(exc) from exc


def _config_spec(path) -> dict:
    """The [hamiltonian] section of an INI file as a spec."""
    import configparser

    spec = {}
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        if not read:
            raise PreconditionError(f"config file not found: {path}")
        if parser.has_section("hamiltonian"):
            section = parser["hamiltonian"]
            for key in ("kind", "builtin"):
                if key in section:
                    spec[key] = section[key]
            for key in ("mass", "omega", "k", "force"):
                if key in section:
                    spec[key] = section.getfloat(key)
            if "potential_coeffs" in section:
                spec["potential_coeffs"] = [
                    float(x) for x in section["potential_coeffs"].replace(",", " ").split()
                ]
    except configparser.Error as exc:
        raise _unparsable(exc) from exc
    return spec


def _parse_hamiltonian_spec(args) -> dict:
    spec = _config_spec(args.config) if args.config else {}
    if args.hamiltonian:
        spec["builtin"] = args.hamiltonian
        spec.pop("kind", None)
    if getattr(args, "mass", None) is not None:
        spec["mass"] = args.mass
    if getattr(args, "potential_coeffs", None) is not None:
        spec["potential_coeffs"] = [float(x) for x in args.potential_coeffs.split(",")]
        spec["kind"] = "separable"
        spec.pop("builtin", None)
    return spec or dict(_DEFAULT_SPEC)


def _cmd_classify(config: RunConfig, model):
    from .dynamics import SHOOTING_TOL
    from .extrema import classify_extremum

    args = config.params
    report = _position_bvp_from_dict(args, model)
    if report.flag == "infeasible":
        raise NumericError("boundary value problem infeasible; cannot classify")
    extremum = classify_extremum(model, report.path, args["which"])
    results = extremum.summary()
    results["bvp_flag"] = report.flag
    results["eigenvalues_head"] = [
        [float(a), float(b)] for a, b in extremum.eigenvalues[:3]
    ]
    return results, {"zero_tol": extremum.zero_tol, "shooting_tol": SHOOTING_TOL}, extremum.to_csv


def _position_bvp_from_dict(params, model):
    from .dynamics import BoundarySpec, solve_position_bvp

    bounds = BoundarySpec("position-type", params["q_start"], params["q_end"])
    return solve_position_bvp(model, bounds, (params["t0"], params["t1"]), params["N"])


def _cmd_action(config: RunConfig, model):
    from .action import action_r, action_s, k_total_derivative_residual, legendre_residual
    from .dynamics import SHOOTING_TOL
    from .series import write_series

    params = config.params
    report = _position_bvp_from_dict(params, model)
    path = report.path
    s = action_s(model, path)
    r = action_r(model, path)
    results = {
        "S": s.value,
        "R": r.value,
        "quadrature_rule": s.rule,
        "legendre_residual": legendre_residual(model, path),
        "k_total_derivative_residual": k_total_derivative_residual(model, path),
        "bvp_flag": report.flag,
        "initial_momentum": report.parameter,
    }
    return results, {"shooting_tol": SHOOTING_TOL}, lambda out: write_series(
        out, ["t", "p", "q"], zip(path.times, path.p, path.q))


def _cmd_bounds(config: RunConfig, model):
    from .bounds import PerturbationSpec, certify_bounds
    from .dynamics import SHOOTING_TOL

    params = config.params
    report = _position_bvp_from_dict(params, model)
    chain = params["chain"]
    pin = "q-pinned" if chain == "S-chain" else "p-pinned"
    spec = PerturbationSpec(
        amplitude=params["epsilon"], mode_count=params["modes"],
        seed=config.seed, pinned=pin,
    )
    cert = certify_bounds(model, chain, report, spec, params["samples"])
    results = cert.summary()
    return results, {"slack": cert.slack, "shooting_tol": SHOOTING_TOL}, cert.to_csv


def _cmd_propagate(config: RunConfig, model):
    import numpy as np

    from .propagator import (
        CAUSTIC_DET_TOL, SliceScheme, _gaussian_kernel, free_momentum_propagator,
    )
    from .series import write_series

    params = config.params
    rep = params["rep"]
    scheme = SliceScheme(params["slices"])
    t = params["t1"] - params["t0"]
    x = "q" if rep == "position" else "p"
    x_start, x_end = params[f"{x}_start"], params[f"{x}_end"]
    results = {"representation": rep, "slices": params["slices"], "t": t}
    tolerances = {"caustic_det_tol": CAUSTIC_DET_TOL}
    # a value past the float range turns non-finite, which the report rejects
    with np.errstate(all="ignore"):
        if rep == "momentum" and model.is_cyclic_in_q():
            value = free_momentum_propagator(model.mass, x_start, x_end, t)
            results.update({
                "variant": "delta",
                "support_matched": value.support_matched,
                "causal": value.causal,
                "phase_re": value.phase.real,
                "phase_im": value.phase.imag,
            })
            return results, tolerances, None
        kernel = _gaussian_kernel(model, rep, t, scheme)
        amplitude = complex(kernel(x_end, x_start))
    results.update({"variant": "regular", "re": amplitude.real,
                    "im": amplitude.imag, "abs": abs(amplitude)})

    def write(out):
        grid = _grid(params, "grid")
        with np.errstate(all="ignore"):  # the series may hold non-finite samples
            vals = kernel(grid, np.full_like(grid, x_start))
        write_series(out, [f"{x}_f", "re", "im"], zip(grid, vals.real, vals.imag))

    return results, tolerances, write


def _grid(params, name):
    """np.linspace over --{name}-min, --{name}-max and --{name}-count; a
    precondition error where a node is not finite, as when the span
    overflows the float range."""
    import numpy as np

    low, high = params[f"{name}_min"], params[f"{name}_max"]
    # the step times the last index may overflow before linspace sets the last node to high
    with np.errstate(all="ignore"):
        nodes = np.linspace(low, high, params[f"{name}_count"])
    if not np.all(np.isfinite(nodes)):
        raise PreconditionError(f"--{name}-min {low!r} to --{name}-max {high!r} "
                                f"spans more than the float range")
    return nodes


def _cmd_spin(config: RunConfig, model):
    params = config.params
    t = params["t1"] - params["t0"]
    if params["spin_kind"] == "half":
        g = spin_mod.spin_half_propagator(
            params["inertia"], params["l"], params["sign_i"], params["sign_f"],
            t, params["N"], policy=params["policy"],
            use_closed_form=params["use_closed_form"],
        )
        values = spin_mod.spin_half_values(params["l"])
    else:
        g = spin_mod.composite_spin_propagator(
            params["inertia"], params["l0"], params["l_i"], params["l_f"],
            t, params["N"], policy=params["policy"],
            use_closed_form=params["use_closed_form"],
        )
        values = spin_mod.composite_values(params["l0"])
    count = spin_mod.SpinPathEnsemble(params["N"], values).path_count
    results = {
        "N": params["N"], "policy": params["policy"], "re": g.real, "im": g.imag,
        "abs": abs(g), "path_count": count,
    }

    def write(out):
        from .series import write_series

        write_series(out, ["N", "policy", "re", "im", "path_count"],
                     [(params["N"], params["policy"], g.real, g.imag, count)])

    return results, {"closed_form_match_tol": 1e-12}, write


def _cmd_hj_check(config: RunConfig, model):
    import numpy as np

    from .action import hj_residual_r, hj_residual_s
    from .dynamics import SHOOTING_TOL

    params = config.params
    grid, times = _grid(params, "grid"), _grid(params, "t")
    residual = hj_residual_s if params["which"] == "s" else hj_residual_r
    fld = residual(model, params["start"], grid, times, n_steps=params["N"],
                   fd_step=params["fd_step"])
    results = {
        "which": params["which"],
        # null where no node defines the value (e.g. the cyclic R companion)
        "max_abs_residual": _finite_or_none(fld.max_abs_hj()),
        "max_abs_companion": _finite_or_none(fld.max_abs_companion()),
        "valid_nodes": int(np.sum(fld.valid)),
        "total_nodes": int(fld.valid.size),
    }
    return results, {"fd_step": params["fd_step"], "shooting_tol": SHOOTING_TOL}, fld.to_csv


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def _cmd_legendre_check(config: RunConfig, model):
    import numpy as np

    from .action import _legendre_residuals
    from .series import write_series

    params = config.params
    n = params["N"]
    rng_root = np.random.default_rng(config.seed)
    seeds = rng_root.integers(0, 2**31, size=params["samples"])
    amp_p, amp_q = np.empty((seeds.size, 4)), np.empty((seeds.size, 4))
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        amp_p[i] = rng.normal(size=4) * 0.25
        amp_q[i] = rng.normal(size=4) * 0.25
    with np.errstate(all="ignore"):  # a residual past the float range is non-finite
        residuals = {nn: _legendre_residuals(model, amp_p, amp_q, nn) for nn in (n, 2 * n)}
    worst = {nn: max([0.0, *values]) for nn, values in residuals.items()}
    results = {
        "samples": params["samples"],
        "N": n,
        "max_residual": worst[n],
        "max_residual_refined": worst[2 * n],
        "shrink_factor": worst[n] / worst[2 * n] if worst[2 * n] else math.inf,
    }
    names = ["seed", f"residual_N{n}", f"residual_N{2 * n}"]
    return results, {"residual_bound": 1e-6, "min_shrink": 3.5}, lambda out: write_series(
        out, names, zip(seeds.tolist(), residuals[n], residuals[2 * n]))


_HANDLERS = {
    "classify": _cmd_classify,
    "action": _cmd_action,
    "bounds": _cmd_bounds,
    "propagate": _cmd_propagate,
    "spin": _cmd_spin,
    "hj-check": _cmd_hj_check,
    "legendre-check": _cmd_legendre_check,
}


def _finite(text):
    """argparse type: a float other than nan, inf or -inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


_finite.__name__ = "float"  # argparse names it in "invalid float value" messages


def _bounded(kind, low, inclusive=True):
    """argparse type: a value of kind that is >= low (or > low)."""
    def convert(text):
        value = kind(text)
        if not (value >= low if inclusive else value > low):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if inclusive else '>'} {low}, got {text!r}")
        return value

    convert.__name__ = kind.__name__
    return convert


_count = _bounded(int, 1)
_positive = _bounded(_finite, 0.0, inclusive=False)


def _common(p):
    """Add the model and output options every command takes; returns p.

    Their values go to RunConfig's own fields, every other option of a
    command to its params.
    """
    p.add_argument("--hamiltonian", choices=BUILTIN_NAMES, default=None,
                   help="builtin Hamiltonian name")
    p.add_argument("--config", default=None, help="INI config with a [hamiltonian] section")
    p.add_argument("--mass", type=_finite, default=None)
    p.add_argument("--potential-coeffs", default=None,
                   help="comma-separated ascending polynomial coefficients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (JSON report or CSV series)")
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dualaction",
        description="Dual-action classical mechanics and time-sliced propagators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def window(p, n_default=1000):
        p.add_argument("--t0", type=_finite, default=0.0)
        p.add_argument("--t1", type=_finite, default=1.0)
        if n_default is not None:
            p.add_argument("--N", type=_count, default=n_default)

    p = sub.add_parser("classify", help="classify the extremum type of a critical path")
    _common(p); window(p)
    p.add_argument("--q-start", type=_finite, default=0.0)
    p.add_argument("--q-end", type=_finite, default=1.0)
    p.add_argument("--which", choices=("S", "R"), default="S")

    p = sub.add_parser("action", help="evaluate S, R and consistency residuals on a critical path")
    _common(p); window(p, n_default=2000)
    p.add_argument("--q-start", type=_finite, default=0.0)
    p.add_argument("--q-end", type=_finite, default=1.0)

    p = sub.add_parser("bounds", help="certify the saddle bound chains on random perturbations")
    _common(p); window(p, n_default=2000)
    p.add_argument("--q-start", type=_finite, default=0.0)
    p.add_argument("--q-end", type=_finite, default=1.0)
    p.add_argument("--chain", choices=("S-chain", "R-chain"), default="S-chain")
    p.add_argument("--samples", type=_count, default=1000)
    p.add_argument("--epsilon", type=_finite, default=0.2)
    p.add_argument("--modes", type=int, default=8)

    p = sub.add_parser("propagate", help="time-sliced propagator in either representation")
    _common(p); window(p, n_default=None)
    p.add_argument("--rep", choices=("position", "momentum"), default="position")
    p.add_argument("--slices", type=int, default=512)
    p.add_argument("--q-start", type=_finite, default=0.0)
    p.add_argument("--q-end", type=_finite, default=1.0)
    p.add_argument("--p-start", type=_finite, default=1.0)
    p.add_argument("--p-end", type=_finite, default=1.0)
    p.add_argument("--grid-min", type=_finite, default=-3.0)
    p.add_argument("--grid-max", type=_finite, default=3.0)
    p.add_argument("--grid-count", type=_count, default=201)

    p = sub.add_parser("spin", help="spin propagator by momentum-path enumeration")
    _common(p); window(p, n_default=4)
    p.add_argument("--policy", choices=spin_mod.POLICIES, default="paper-unconstrained")
    p.add_argument("--spin", dest="spin_kind", choices=("half", "composite"), default="half")
    p.add_argument("--inertia", type=_finite, default=1.0)
    p.add_argument("--l", type=_finite, default=1.0)
    p.add_argument("--sign-i", choices=("+", "-"), default="+")
    p.add_argument("--sign-f", choices=("+", "-"), default="+")
    p.add_argument("--l0", type=_finite, default=0.5)
    p.add_argument("--l-i", type=_finite, default=1.0)
    p.add_argument("--l-f", type=_finite, default=1.0)
    p.add_argument("--use-closed-form", action="store_true")

    p = sub.add_parser("hj-check", help="Hamilton-Jacobi residual on an action surface")
    _common(p)
    p.add_argument("--which", choices=("s", "r"), default="s")
    p.add_argument("--start", type=_finite, default=0.0,
                   help="fixed initial endpoint (q_i for S, p_i for R)")
    p.add_argument("--grid-min", type=_finite, default=0.5)
    p.add_argument("--grid-max", type=_finite, default=1.5)
    p.add_argument("--grid-count", type=_count, default=11)
    p.add_argument("--t-min", type=_finite, default=0.5)
    p.add_argument("--t-max", type=_finite, default=1.5)
    p.add_argument("--t-count", type=_count, default=11)
    p.add_argument("--N", type=_count, default=800)
    p.add_argument("--fd-step", type=_positive, default=1e-3)

    p = sub.add_parser("legendre-check", help="Legendre identity residual on seeded smooth paths")
    _common(p)
    p.add_argument("--samples", type=_count, default=100)
    # the O(dt^2) difference stencils need at least 3 nodes
    p.add_argument("--N", type=_bounded(int, 2), default=2000)

    return parser


def run(config: RunConfig):
    """Dispatch a validated RunConfig; returns the report dict.

    A handler returns (results, tolerances, write), where write(path)
    writes the command's data series, or is None for a run without one.
    Spin ignores the model, so a spin run on the default one builds none;
    any other spec is built, so its errors stand.
    """
    default_spin = config.command == "spin" and config.hamiltonian == _DEFAULT_SPEC
    model = None if default_spin else _resolve_model(config.hamiltonian)
    results, tolerances, write = _HANDLERS[config.command](config, model)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "parameters": config.parameters_block(),
        "results": results,
        "tolerances": tolerances,
        "status": "ok",
    }
    if write and config.out_format == "csv":
        if not config.out_path:
            raise PreconditionError("--format csv requires --out PATH for the series file")
        write(config.out_path)
        report["parameters"]["series_path"] = config.out_path
    return report


def _render(report):
    """The report as strict JSON; a NaN or infinity in it is an error."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise PreconditionError(f"report holds a non-finite value ({exc})",
                                code="non-finite") from exc


def _emit(text, config: RunConfig):
    if config.out_format == "json" and config.out_path:
        with open(config.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    level = os.environ.get("DUALACTION_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)

    shared = vars(_common(argparse.ArgumentParser()).parse_args([]))
    params = {k: v for k, v in vars(args).items() if k not in shared and k != "command"}
    try:
        spec = _hamiltonian_spec(args)
        config = RunConfig(
            command=args.command, hamiltonian=spec, params=params,
            seed=args.seed, out_format=args.format, out_path=args.out,
        )
        log.info("running %s with hamiltonian %s", args.command, spec)
        text = _render(run(config))
    except DualActionError as exc:
        precondition = isinstance(exc, PreconditionError)
        log.error("%s error: %s", "precondition" if precondition else "numeric", exc)
        sys.stderr.write(json.dumps({
            "schema_version": SCHEMA_VERSION, "command": args.command,
            "status": "error", "error_code": exc.code, "message": str(exc),
        }, sort_keys=True) + "\n")
        return 2 if precondition else 1
    _emit(text, config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
