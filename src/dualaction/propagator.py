"""Time-sliced quantum propagators for quadratic systems, in both
representations, plus the endpoint Fourier transform linking them.

The N-slice Gaussian chain is evaluated exactly: the quadratic-form
determinant obeys the forward recurrence f_{j+1} = (2 - w^2 dt^2) f_j -
f_{j-1} (w -> iw flips the sign for the saddle family), and the
exponent is the discrete action of the discrete classical path, a
quadratic form in the endpoints.  One GaussianKernel holds the prefactor
and the form's coefficients; point values and samplers both evaluate
it.  The momentum representation of the oscillator reuses the same
chain with the dual parameters (mass 1/(m w^2), same frequency).

Delta-supported kernels (free particle in momentum representation) are
carried symbolically: a support predicate, a unimodular phase and a
causality flag.  Transforms against oscillatory kernels integrate over
a Planck-tapered window so the truncation error decays faster than any
power of the bandwidth.  The endpoint transform picks its sum by the
source's type: a delta kernel collapses to one integral, a
GaussianKernel's double sum is one chirp-z FFT convolution per initial
output point, and any other callable is sampled on the full n_quad^2
grid.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BandwidthError, CausticError, PreconditionError
from .model import HamiltonianModel
from .series import write_series

UNIMODULAR_TOL = 1e-12
CAUSTIC_DET_TOL = 1e-9  # of the free chain's determinant t
MIN_TAPER_SWING = 8.0 * math.pi  # phase turns across the taper zone for <1% leakage
MAX_PHASE_STEP = 0.9 * math.pi   # aliasing guard on the quadrature grid
CORE_FRACTION = 0.6              # untapered part of a quadrature window
COMPOSE_BAND = 24.0              # compose_kernels window half-width ...
COMPOSE_N_QUAD = 4096            # ... and its node count


def _require_count(name, value, least):
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise PreconditionError(f"{name} must be an integer >= {least}")


def _require_positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise PreconditionError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class SliceScheme:
    n_slices: int

    def __post_init__(self):
        _require_count("n_slices", self.n_slices, 1)


@dataclass(frozen=True)
class PropagatorValue:
    """Either a regular complex amplitude or a delta-supported value."""

    variant: str
    amplitude: complex
    support_matched: bool | None = None
    causal: bool | None = None

    @classmethod
    def regular(cls, amplitude):
        return cls(variant="regular", amplitude=complex(amplitude))

    @classmethod
    def delta(cls, phase, support_matched, causal):
        phase = complex(phase)
        if abs(abs(phase) - 1.0) > UNIMODULAR_TOL:
            raise PreconditionError("delta-variant phase must be unimodular")
        return cls(variant="delta", amplitude=phase, support_matched=bool(support_matched),
                   causal=bool(causal))

    @property
    def phase(self):
        if self.variant != "delta":
            raise PreconditionError("phase is defined for delta-variant values only")
        return self.amplitude


@dataclass(frozen=True)
class GaussianKernel:
    """The N-slice chain as data: amplitude = prefactor * exp(i action),
    the discrete action a quadratic form in the endpoints."""

    prefactor: complex
    a_f: float
    a_i: float
    cross: float
    s00: float

    def action(self, x_f, x_i):
        """Vectorized (x_f, x_i) -> discrete action of the classical path."""
        x_f = np.asarray(x_f, dtype=float)
        x_i = np.asarray(x_i, dtype=float)
        return 0.5 * self.a_i * x_i**2 + 0.5 * self.a_f * x_f**2 + self.cross * x_i * x_f + self.s00

    def __call__(self, x_f, x_i):
        """Vectorized (x_f, x_i) -> amplitude."""
        return self.prefactor * np.exp(1j * self.action(x_f, x_i))


def _quadratic_coefficients(model):
    """(mass, c0, c2) for H = p^2/2m + c0 + c2 q^2; rejects anything else."""
    c = model._quadratic_potential()
    if c is None or c[1] != 0.0:
        raise PreconditionError(
            "sliced propagators cover the quadratic family only (V = c0 + c2 q^2)"
        )
    return model.mass, c[0], c[2]


def _dual_chain_parameters(model):
    """Momentum-representation chain parameters for the oscillator.

    Substituting the force equation into H leaves kinetic-like momentum
    slopes over 2 m w^2 and a momentum-squared 'potential' p^2/2m, i.e.
    the same chain with mass 1/(m w^2) and the original frequency.
    """
    mass, c0, c2 = _quadratic_coefficients(model)
    if c2 <= 0:
        raise PreconditionError(
            "momentum-representation slicing needs an oscillator (c2 > 0)"
        )
    return 1.0 / (2.0 * c2), c0, 1.0 / (2.0 * mass)


_CHAIN_PARAMETERS = {"position": _quadratic_coefficients, "momentum": _dual_chain_parameters}


def _gaussian_kernel(model, representation, t, scheme: SliceScheme) -> GaussianKernel:
    """Exact N-slice chain for H = x'^2/(2 mass) + c0 + c2 x^2 in a representation.

    The discrete classical path is x_i g + x_f h with g_j = f_{N-j}/f_N
    and h_j = f_j/f_N, so the discrete action is B(x, x)/2 - c0 t for the
    bilinear form B(a, b) = (mass/dt) sum da db - 2 c2 sum_trap a b dt.
    The prefactor square root takes the principal branch, which is the
    continuous continuation from t -> 0+ as long as the determinant
    stays positive (guaranteed below the first caustic).
    """
    mass, c0, c2 = _CHAIN_PARAMETERS[representation](model)
    t = float(t)
    n_slices = scheme.n_slices
    _require_positive("t", t)
    omega_sq = 2.0 * c2 / mass
    if omega_sq > 0 and math.sqrt(omega_sq) * t >= math.pi:
        raise PreconditionError("endpoint beyond the first caustic (omega t >= pi)")
    dt = t / n_slices
    if dt == 0.0:
        raise PreconditionError("t / n_slices underflows to 0")
    u = 2.0 - omega_sq * dt * dt

    f = np.empty(n_slices + 1)
    f[0], f[1] = 0.0, 1.0
    for j in range(1, n_slices):
        f[j + 1] = u * f[j] - f[j - 1]
    det = dt * f[n_slices]
    # relative to the free chain's determinant t, so that no unit of time is a caustic
    if abs(f[n_slices]) < CAUSTIC_DET_TOL * n_slices:
        raise CausticError(f"chain determinant {det:.3e} below caustic tolerance times t")

    def form(a, b):
        v = c2 * (a * b)
        return float(mass * np.sum(np.diff(a) * np.diff(b)) / dt
                     - 2.0 * dt * (np.sum(v) - 0.5 * (v[0] + v[-1])))

    g, h = f[::-1] / f[n_slices], f / f[n_slices]
    return GaussianKernel(prefactor=cmath.sqrt(mass / (2.0j * math.pi * det)),
                          a_f=form(h, h), a_i=form(g, g), cross=form(g, h), s00=-c0 * t)


def sliced_position_propagator(model: HamiltonianModel, q_i, q_f, t, scheme: SliceScheme) -> PropagatorValue:
    """Position-representation N-slice propagator for the quadratic family."""
    return PropagatorValue.regular(_gaussian_kernel(model, "position", t, scheme)(q_f, q_i))


def sliced_momentum_propagator(model: HamiltonianModel, p_i, p_f, t, scheme: SliceScheme) -> PropagatorValue:
    """Momentum-representation N-slice oscillator propagator."""
    return PropagatorValue.regular(_gaussian_kernel(model, "momentum", t, scheme)(p_f, p_i))


def free_momentum_propagator(mass, p_i, p_f, t) -> PropagatorValue:
    """Delta-supported free-particle momentum propagator.

    Support matching compares the endpoint momenta exactly; the phase is
    exp(-i p^2 t / 2m) of free_momentum_delta_kernel and the causal flag
    records t > 0.
    """
    kernel = free_momentum_delta_kernel(mass, t)
    return PropagatorValue.delta(kernel.phase_fn(p_i), p_i == p_f, kernel.causal)


@dataclass(frozen=True)
class DeltaKernel:
    """Symbolic delta-supported kernel: prefactor * phase(x) on the diagonal."""

    phase_fn: Callable
    prefactor: float = 1.0
    causal: bool = True


def free_momentum_delta_kernel(mass, t, prefactor: float = 1.0) -> DeltaKernel:
    """The free momentum propagator as a transformable kernel object."""
    _require_positive("mass", mass)
    if not math.isfinite(t):
        raise PreconditionError("t must be finite")

    def phase(p):
        return np.exp(-1j * np.asarray(p, dtype=float) ** 2 * t / (2.0 * mass))

    return DeltaKernel(phase_fn=phase, prefactor=prefactor, causal=t > 0.0)


# ---------------------------------------------------------------------------
# tapered oscillatory quadrature

def _planck_taper(x, lo, hi, core_lo, core_hi):
    """C-infinity window: 1 on the core, smoothly 0 at the band edges."""
    w = np.ones_like(x)

    def ramp(s):
        s = np.clip(s, 1e-12, 1.0 - 1e-12)
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(1.0 / s - 1.0 / (1.0 - s)))

    right = x > core_hi
    if np.any(right):
        w[right] = ramp((hi - x[right]) / (hi - core_hi))
    left = x < core_lo
    if np.any(left):
        w[left] = ramp((x[left] - lo) / (core_lo - lo))
    w[(x >= hi) | (x <= lo)] = 0.0
    return w


def _tapered_axis(band, n_quad):
    """Nodes on [-band, band], their taper weights (untapered on the
    central CORE_FRACTION of the window) and the node spacing."""
    x = np.linspace(-band, band, n_quad)
    core = CORE_FRACTION * band
    return x, _planck_taper(x, -band, band, -core, core), x[1] - x[0]


@dataclass(frozen=True)
class FourierGrid:
    """Endpoint grids plus the quadrature window for fourier_endpoints.

    band is the half-width of the integration window in the source
    representation; its central CORE_FRACTION is untapered.
    """

    out_final: np.ndarray
    out_initial: np.ndarray
    band: float = 48.0
    n_quad: int = 4096

    def __post_init__(self):
        for name in ("out_final", "out_initial"):
            points = np.atleast_1d(np.asarray(getattr(self, name), float))
            if points.size == 0 or not np.all(np.isfinite(points)):
                raise PreconditionError(f"grid needs a non-empty finite {name}")
            object.__setattr__(self, name, points)
        _require_positive("band", self.band)
        _require_count("n_quad", self.n_quad, 16)

    def quad_axis(self):
        return _tapered_axis(self.band, self.n_quad)


def _check_bandwidth(values, x, band):
    """Aliasing and band-energy guard on a sampled 1-d integrand (untapered).

    The phase increment per step must stay resolvable, the stationary
    point must sit in the untapered core, and the phase must wind
    through several full turns across each taper zone (a proxy for the
    kernel keeping <1% of its energy beyond the band).  Magnitudes far
    below the peak carry no energy and are ignored.  values are sampled
    on the nodes x of the window [-band, band].
    """
    mag = np.abs(values)
    peak = np.max(mag)
    alive = np.minimum(mag[1:], mag[:-1]) > 1e-12 * peak
    if not alive.any():
        raise BandwidthError("no two neighbouring kernel samples carry energy")
    steps = np.angle(values[1:] * np.conj(values[:-1]))
    absteps = np.where(alive, np.abs(steps), np.nan)
    if np.nanmax(absteps) > MAX_PHASE_STEP:
        raise BandwidthError("quadrature grid cannot resolve the kernel oscillation")
    edge = max(np.max(mag[:8]), np.max(mag[-8:]))
    if edge < 1e-4 * peak:
        return  # magnitude decay alone confines the energy to the band
    core = CORE_FRACTION * band
    xmid = 0.5 * (x[1:] + x[:-1])
    stationary = xmid[np.nanargmin(absteps)]
    if abs(stationary) > 0.9 * core:
        raise BandwidthError("stationary point of the kernel leaves the untapered core")
    left = np.nansum(absteps[xmid < -core])
    right = np.nansum(absteps[xmid > core])
    if min(left, right) < MIN_TAPER_SWING:
        raise BandwidthError("kernel energy outside the band exceeds tolerance")


@dataclass(frozen=True)
class KernelSamples:
    """Propagator samples over final x initial endpoint grids."""

    x_final: np.ndarray
    x_initial: np.ndarray
    values: np.ndarray

    def to_csv(self, path):
        write_series(path, ["x_final", "x_initial", "re", "im"], (
            (xf, xi, v.real, v.imag)
            for xf, row in zip(self.x_final, self.values) for xi, v in zip(self.x_initial, row)
        ))


def fourier_endpoints(source, grid: FourierGrid, to: str) -> KernelSamples:
    """Transform a propagator between representations over both endpoints.

    The momentum-to-position direction applies exp(+i p q) on the final
    endpoint and exp(-i p q) on the initial one (each with
    1/sqrt(2 pi)); position-to-momentum applies the conjugate pair.
    Delta-variant sources collapse one integral analytically and the
    remaining one is quadratured; regular sources get the tapered double
    quadrature, summed by the chirp-z transform for a GaussianKernel (no
    n_quad^2 kernel grid) and over the full grid for any other callable.
    All first pass the bandwidth guard on the integrand, which reads a
    regular source on one row and one column: zero along either, it
    raises BandwidthError.
    """
    if to not in ("position", "momentum"):
        raise PreconditionError("to must be 'position' or 'momentum'")
    sign_final = +1.0 if to == "position" else -1.0
    x, w, h = grid.quad_axis()
    xf, xi = grid.out_final, grid.out_initial

    if isinstance(source, DeltaKernel):
        if not source.causal or source.prefactor == 0.0:  # the integrand is zero
            values = np.zeros((xf.size, xi.size), dtype=complex)
            return KernelSamples(xf, xi, values)
        phase = source.phase_fn(x) * source.prefactor
        delta = xf[:, None] - xi[None, :]
        flat = np.unique(np.round(delta.ravel(), 12))
        for probe_delta in (flat[np.argmax(np.abs(flat))], flat[np.argmin(np.abs(flat))]):
            _check_bandwidth(phase * np.exp(sign_final * 1j * probe_delta * x), x, grid.band)
        # exp(i s (x_f - x_i) x) factors into one exponential per endpoint
        E_f = np.exp(sign_final * 1j * np.outer(xf, x)) * (phase * w * h)
        E_i = np.exp(-sign_final * 1j * np.outer(xi, x))
        return KernelSamples(xf, xi, (E_f @ E_i.T) / (2.0 * math.pi))

    # regular source: the guards read one row and one column of the kernel
    corner_f = xf[np.argmax(np.abs(xf))]
    corner_i = xi[np.argmax(np.abs(xi))]
    row = np.asarray(source(np.full(1, 0.0), x)).reshape(-1)
    col = np.asarray(source(x, np.full(1, 0.0))).reshape(-1)
    _check_bandwidth(col * np.exp(sign_final * 1j * corner_f * x), x, grid.band)
    _check_bandwidth(row * np.exp(-sign_final * 1j * corner_i * x), x, grid.band)
    E_f = np.exp(sign_final * 1j * np.outer(xf, x)) * (w * h)
    E_i = np.exp(-sign_final * 1j * np.outer(xi, x)) * (w * h)
    if isinstance(source, GaussianKernel):
        acc = _chirp_z(source, E_f, E_i, x, grid.band)
    else:  # any other callable: chunked double quadrature over the n_quad^2 grid
        acc = np.zeros((xf.size, xi.size), dtype=complex)
        chunk = max(1, int(2_000_000 / grid.n_quad))
        for lo in range(0, grid.n_quad, chunk):
            hi = min(lo + chunk, grid.n_quad)
            block = np.asarray(source(x[lo:hi, None], x[None, :]), dtype=complex)
            acc += E_f[:, lo:hi] @ (block @ E_i.T)
    return KernelSamples(xf, xi, acc / (2.0 * math.pi))


def _chirp_z(kernel: GaussianKernel, E_f, E_i, x, band):
    """E_f @ kernel(x[:, None], x[None, :]) @ E_i.T without the n^2 grid.

    On the uniform axis x_j = -band + j d, x_j x_k = (x_j^2 + x_k^2)/2 -
    d^2 (j - k)^2/2, so the cross term of the kernel is two phases times
    the chirp exp(-i cross d^2 m^2 / 2) in m = j - k, and the inner sum
    over k is one FFT convolution per row of E_i (the chirp-z transform;
    Bluestein 1970, Rabiner, Schafer & Rader 1969).  d is the exact
    spacing 2 band/(n - 1): x[1] - x[0] is rounded by up to ~3e-14
    relative, which the widest chirp phases (up to ~1e4 rad) amplify.
    """
    n = x.size
    c = kernel.cross
    u = E_f * np.exp(0.5j * (kernel.a_f + c) * x**2)
    v = E_i * np.exp(0.5j * (kernel.a_i + c) * x**2)
    lag = (2.0 * band / (n - 1)) * np.arange(1 - n, n)
    chirp = np.exp(-0.5j * c * lag**2)
    # only outputs n-1 .. 2n-2 of the linear convolution are read, and a
    # circular one of size >= 2n - 1 wraps nothing onto them
    size = 1 << (2 * n - 2).bit_length()
    conv = np.fft.ifft(np.fft.fft(v, size) * np.fft.fft(chirp, size))
    inner = conv[:, n - 1:2 * n - 1]
    return kernel.prefactor * cmath.exp(1j * kernel.s00) * (u @ inner.T)


def position_kernel_sampler(model: HamiltonianModel, t, scheme: SliceScheme) -> GaussianKernel:
    """Vectorized (q_f, q_i) -> amplitude sampler of the position chain."""
    return _gaussian_kernel(model, "position", t, scheme)


def momentum_kernel_sampler(model: HamiltonianModel, t, scheme: SliceScheme) -> GaussianKernel:
    """Vectorized (p_f, p_i) -> amplitude sampler of the momentum chain."""
    return _gaussian_kernel(model, "momentum", t, scheme)


def compose_kernels(kernel_late, kernel_early, x_f, x_i):
    """Semigroup composition: integrate kernel_late(x_f, y) kernel_early(y, x_i)
    over the intermediate endpoint y on the tapered window of half-width
    COMPOSE_BAND."""
    y, w, h = _tapered_axis(COMPOSE_BAND, COMPOSE_N_QUAD)
    vals = np.asarray(kernel_late(np.full_like(y, x_f), y)) * np.asarray(
        kernel_early(y, np.full_like(y, x_i))
    )
    return complex(np.sum(vals * w) * h)


def normalization_extraction(samples: KernelSamples, mass, t) -> float:
    """Ratio of the transformed unit-prefactor delta kernel to the
    reference (2 pi t / mass)^(-1/2) magnitude.

    The testable content is that the ratio is one constant across
    endpoint separations and times; its value absorbs the overall
    normalization the slicing leaves undetermined.
    """
    _require_positive("mass", mass)
    _require_positive("t", t)
    reference = math.sqrt(mass / (2.0 * math.pi * t))
    ratios = np.abs(samples.values) / reference
    return float(np.mean(ratios))
