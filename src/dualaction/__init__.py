"""Dual classical actions: solvers, functionals, bounds and propagators.

The public names load on first use (PEP 562): importing the package
imports none of its submodules, and ``dualaction.X`` or
``from dualaction import X`` imports only the submodule that defines X
(or the submodule X itself, such as ``dualaction.dynamics``).
"""

from importlib import import_module

_EXPORTS = {
    "action": (
        "ActionValue", "SurfaceResidualField", "action_r", "action_s", "hj_residual_r",
        "hj_residual_s", "k_total_derivative_residual", "legendre_residual",
    ),
    "bounds": (
        "BoundCertificate", "PerturbationSpec", "certify_bounds", "functional_G",
        "functional_Gp", "functional_J", "functional_Jp", "pi_from_theta", "theta_from_pi",
    ),
    "dynamics": (
        "BoundarySpec", "PhasePath", "ShootingReport", "integrate_ivp", "solve_momentum_bvp",
        "solve_position_bvp",
    ),
    "errors": (
        "BandwidthError", "BlowUpError", "CausticError", "DomainError", "DualActionError",
        "NotSaddleError", "NumericError", "PreconditionError", "RootFindError",
        "UnsolvableRestrictionError", "UnsupportedOrderError",
    ),
    "extrema": (
        "ExtremumReport", "SecondVariationMatrix", "classify_extremum", "hessian_r", "hessian_s",
    ),
    "model": ("DomainBox", "HamiltonianModel", "convexity_probe", "eval_partials", "saddle_probe"),
    "propagator": (
        "DeltaKernel", "FourierGrid", "KernelSamples", "PropagatorValue", "SliceScheme",
        "compose_kernels", "fourier_endpoints", "free_momentum_delta_kernel",
        "free_momentum_propagator", "momentum_kernel_sampler", "normalization_extraction",
        "position_kernel_sampler", "sliced_momentum_propagator", "sliced_position_propagator",
    ),
    "spin": ("SpinPathEnsemble", "composite_spin_propagator", "spin_half_propagator"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "series")

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"

# the builtin Hamiltonians of HamiltonianModel.builtin, defined here so the CLI
# lists them as --hamiltonian choices without importing the model (and numpy)
BUILTIN_NAMES = ("free", "sho", "saddle-quadratic", "constant-force")


def __getattr__(name):
    """Import the submodule that defines a public name, and cache the name
    here; a submodule's own name imports it."""
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
