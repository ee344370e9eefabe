"""Benchmark-defined models and the closed forms the verifiers use.

Every model keeps the trajectory q(t) independent of the mass: forces,
spring constants and potentials scale with m, so momenta scale with m.
That keeps the mass strata of a workload comparable and makes the mass
the only thing that moves a request across the solver's fixed bracket
range.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

from dualaction import HamiltonianModel


def linear_model(name, mass, par):
    """A linear-flow builtin; par as in linear_p0 (k = m kappa^2, force = m g)."""
    if name == "free":
        return HamiltonianModel.free(mass)
    if name == "sho":
        return HamiltonianModel.sho(mass, par)
    if name == "saddle-quadratic":
        return HamiltonianModel.saddle_quadratic(mass, mass * par * par)
    if name == "constant-force":
        return HamiltonianModel.constant_force(mass, mass * par)
    raise ValueError(name)


def anharmonic(mass, lam):
    """Polynomial oscillator V = m (q^2/2 + lam q^4) (V = q^2/2 + lam q^4 at m = 1)."""
    return HamiltonianModel.separable(
        mass, potential_coeffs=(0.0, 0.0, 0.5 * mass, 0.0, lam * mass), label="anharmonic"
    )


def anharmonic_saddle(mass=1.0, lam=0.05):
    """Concave quartic saddle V = -m (q^2/2 + lam q^4)."""
    return HamiltonianModel.separable(
        mass, potential_coeffs=(0.0, 0.0, -0.5 * mass, 0.0, -lam * mass),
        label="anharmonic-saddle",
    )


def soft_oscillator(mass, omega, tracer=None):
    """General-kind model H = p^2/(2m) + m w^2 (sqrt(1 + q^2) - 1).

    The potential softens with amplitude (the force saturates at m w^2),
    so below the linear caustic time pi/w each endpoint problem has one
    critical path.  All partials are exact.  With a tracer, every call
    into the model reports its duration and point count.
    """
    m = float(mass)
    k = m * omega * omega

    def shape(p, q):
        return np.broadcast(p, q).shape

    def root(q):
        return np.sqrt(1.0 + np.asarray(q, dtype=float) ** 2)

    fns = {
        (0, 0): lambda p, q: np.asarray(p, dtype=float) ** 2 / (2.0 * m) + k * (root(q) - 1.0),
        (1, 0): lambda p, q: np.asarray(p, dtype=float) / m + np.zeros(shape(p, q)),
        (0, 1): lambda p, q: k * np.asarray(q, dtype=float) / root(q) + np.zeros(shape(p, q)),
        (2, 0): lambda p, q: np.full(shape(p, q), 1.0 / m),
        (1, 1): lambda p, q: np.zeros(shape(p, q)),
        (0, 2): lambda p, q: k / root(q) ** 3 + np.zeros(shape(p, q)),
        (3, 0): lambda p, q: np.zeros(shape(p, q)),
        (2, 1): lambda p, q: np.zeros(shape(p, q)),
        (1, 2): lambda p, q: np.zeros(shape(p, q)),
        (0, 3): lambda p, q: -3.0 * k * np.asarray(q, dtype=float) / root(q) ** 5
        + np.zeros(shape(p, q)),
    }
    if tracer is not None and tracer.enabled:
        fns = {key: _counted(fn, tracer) for key, fn in fns.items()}
    evaluator = fns.pop((0, 0))
    return HamiltonianModel.general(evaluator, partials=fns, label="soft-oscillator")


def _counted(fn, tracer):
    def wrapped(p, q):
        start = time.perf_counter()
        out = fn(p, q)
        tracer.model_call(time.perf_counter() - start, int(np.size(out)))
        return out

    return wrapped


# ---- closed forms ---------------------------------------------------------

def linear_p0(name, mass, par, q0, q1, t):
    """Initial momentum of the position problem for the linear-flow builtins.

    par is omega (sho), kappa = sqrt(k/m) (saddle) or the acceleration g
    (constant force with force = m g).
    """
    if name == "free":
        return mass * (q1 - q0) / t
    if name == "sho":
        w = par
        return mass * w * (q1 - q0 * math.cos(w * t)) / math.sin(w * t)
    if name == "saddle-quadratic":
        kap = par
        return mass * kap * (q1 - q0 * math.cosh(kap * t)) / math.sinh(kap * t)
    if name == "constant-force":
        return mass * ((q1 - q0) / t - 0.5 * par * t)
    raise ValueError(name)


def linear_q0(name, mass, par, p0, p1, t):
    """Initial position of the momentum problem (sho and saddle only)."""
    if name == "sho":
        w = par
        return (p0 * math.cos(w * t) - p1) / (mass * w * math.sin(w * t))
    if name == "saddle-quadratic":
        kap = par
        return (p1 - p0 * math.cosh(kap * t)) / (mass * kap * math.sinh(kap * t))
    raise ValueError(name)


def linear_flow(name, mass, par, q0, p0, t):
    """(q(t), p(t), S) along the exact flow of a linear builtin from (q0, p0)."""
    v0 = p0 / mass
    if name == "free":
        return q0 + v0 * t, p0, 0.5 * mass * v0 * v0 * t
    if name == "constant-force":
        g = par
        q1 = q0 + v0 * t + 0.5 * g * t * t
        s = mass * (0.5 * v0 * v0 * t + g * v0 * t * t + g * g * t**3 / 3.0 + g * q0 * t)
        return q1, mass * (v0 + g * t), s
    a = q0
    if name == "sho":
        w = par
        b = v0 / w
        c, sn = math.cos(w * t), math.sin(w * t)
        s = 0.25 * mass * w * ((b * b - a * a) * math.sin(2 * w * t)
                               - 2.0 * a * b * (1.0 - math.cos(2 * w * t)))
        return a * c + b * sn, mass * w * (b * c - a * sn), s
    if name == "saddle-quadratic":
        k = par
        b = v0 / k
        ch, sh = math.cosh(k * t), math.sinh(k * t)
        s = 0.25 * mass * k * ((a * a + b * b) * math.sinh(2 * k * t)
                               + 2.0 * a * b * (math.cosh(2 * k * t) - 1.0))
        return a * ch + b * sh, mass * k * (a * sh + b * ch), s
    raise ValueError(name)


def saddle_actions(mass, kappa, q0, q1, t):
    """(S, R) on the critical path of H = p^2/2m - m kappa^2 q^2/2."""
    ch, sh = math.cosh(kappa * t), math.sinh(kappa * t)
    s = mass * kappa * ((q0 * q0 + q1 * q1) * ch - 2.0 * q0 * q1) / (2.0 * sh)
    p0 = mass * kappa * (q1 - q0 * ch) / sh
    p1 = mass * kappa * (q1 * ch - q0) / sh
    return s, s - (p1 * q1 - p0 * q0)


def sho_momentum_kernel(mass, omega, p_i, p_f, t):
    """Continuum oscillator propagator in the momentum representation."""
    mw_s = mass * omega * math.sin(omega * t)
    phase = ((p_i * p_i + p_f * p_f) * math.cos(omega * t) - 2.0 * p_i * p_f) / (2.0 * mw_s)
    return cmath.sqrt(1.0 / (2j * math.pi * mw_s)) * cmath.exp(1j * phase)


def free_position_kernel(mass, q_f, q_i, t):
    """Free-particle propagator in the position representation (vectorized in q_f)."""
    dq = np.asarray(q_f, dtype=float) - q_i
    return np.sqrt(mass / (2j * math.pi * t)) * np.exp(1j * mass * dq * dq / (2.0 * t))
