"""Second-variation matrices along a path and extremum classification.

Each action has its own symmetric 2x2 matrix per node, built from H
partials up to third order.  Eigenvalue signs over the whole time window
decide whether the critical path is a minimum, maximum, indefinite, or
degenerate for that action; the verdict is only ever claimed for the
supplied window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import _grad
from .dynamics import PhasePath
from .errors import PreconditionError
from .model import HamiltonianModel
from .series import write_series

ZERO_TOL_RELATIVE = 1e-9


@dataclass(frozen=True)
class SecondVariationMatrix:
    """Symmetric matrix entries (a12 stored once) with the action tag."""

    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray
    which: str  # "S" or "R"

    def eigenvalues(self):
        """Closed-form eigenvalue pair(s), smaller first."""
        half_tr = 0.5 * (self.a11 + self.a22)
        disc = np.sqrt(0.25 * (self.a11 - self.a22) ** 2 + self.a12**2)
        return np.stack([half_tr - disc, half_tr + disc], axis=-1)

    def determinant(self):
        return self.a11 * self.a22 - self.a12**2


def hessian_s(model: HamiltonianModel, p, q) -> SecondVariationMatrix:
    """Second-variation matrix of S at (p, q):
    [[H_pp + p H_ppp, p H_ppq], [p H_ppq, p H_pqq - H_qq]]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = model._derivative
    a11 = d(2, 0)(p, q) + p * d(3, 0)(p, q)
    a12 = p * d(2, 1)(p, q)
    a22 = p * d(1, 2)(p, q) - d(0, 2)(p, q)
    return SecondVariationMatrix(a11, a12, a22, "S")


def hessian_r(model: HamiltonianModel, p, q) -> SecondVariationMatrix:
    """Second-variation matrix of R at (p, q):
    [[q H_ppq - H_pp, q H_qqp], [q H_qqp, q H_qqq + H_qq]]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = model._derivative
    a11 = q * d(2, 1)(p, q) - d(2, 0)(p, q)
    a12 = q * d(1, 2)(p, q)
    a22 = q * d(0, 3)(p, q) + d(0, 2)(p, q)
    return SecondVariationMatrix(a11, a12, a22, "R")


@dataclass(frozen=True)
class ExtremumReport:
    which: str
    times: np.ndarray
    eigenvalues: np.ndarray  # (n_nodes, 2)
    classification: str      # minimum | maximum | indefinite | degenerate
    zero_tol: float
    hamilton_residual: float

    def to_csv(self, path):
        write_series(path, ["t", "lambda_1", "lambda_2"], zip(self.times, *self.eigenvalues.T))

    def summary(self):
        return {
            "which": self.which,
            "classification": self.classification,
            "zero_tol": self.zero_tol,
            "eigenvalue_min": float(np.min(self.eigenvalues)),
            "eigenvalue_max": float(np.max(self.eigenvalues)),
            "hamilton_residual": self.hamilton_residual,
            "nodes": int(self.eigenvalues.shape[0]),
        }


def _classify(eigenvalues, zero_tol):
    lam_min = float(np.min(eigenvalues))
    lam_max = float(np.max(eigenvalues))
    if lam_min > zero_tol:
        return "minimum"
    if lam_max < -zero_tol:
        return "maximum"
    if np.any(np.abs(eigenvalues) <= zero_tol):
        return "degenerate"
    return "indefinite"


def _inv_sqrt_max(a):
    top = float(np.max(np.abs(a)))
    return 1.0 / np.sqrt(top) if np.isfinite(top) and top > 0.0 else 1.0


def _jacobi_scaled(mat):
    """mat congruent under diag(1/sqrt(max_t |a11|), 1/sqrt(max_t |a22|)).

    Congruence keeps the sign of each eigenvalue (Sylvester's law of
    inertia), so the verdict is the same one; the scaling removes the
    units of p and q, which otherwise set the diagonal entries apart by
    factors such as m^2.
    """
    s1, s2 = _inv_sqrt_max(mat.a11), _inv_sqrt_max(mat.a22)
    return SecondVariationMatrix(mat.a11 * s1 * s1, mat.a12 * s1 * s2, mat.a22 * s2 * s2,
                                 mat.which)


def classify_extremum(model: HamiltonianModel, path: PhasePath, which: str = "S",
                      zero_tol_relative: float = ZERO_TOL_RELATIVE) -> ExtremumReport:
    """Per-node eigenvalues of the second-variation matrix plus a verdict.

    The caller is responsible for supplying a critical path; the report
    carries the Hamilton-equation defect of the path as a stationarity
    check.  The verdict is taken on the Jacobi-scaled matrix (unit
    largest diagonal entries), so it does not depend on the mass or the
    units; zero_tol is relative to the largest entry of that matrix.
    The reported eigenvalues are those of the unscaled matrix.
    """
    if which not in ("S", "R"):
        raise PreconditionError("which must be 'S' or 'R'")
    mat = (hessian_s if which == "S" else hessian_r)(model, path.p, path.q)
    scaled = _jacobi_scaled(mat)
    scale = max(
        float(np.max(np.abs(scaled.a11))), float(np.max(np.abs(scaled.a12))),
        float(np.max(np.abs(scaled.a22))),
    )
    zero_tol = zero_tol_relative * scale

    dt = path.dt
    defect_q = _grad(path.q, dt) - model._derivative(1, 0)(path.p, path.q)
    defect_p = _grad(path.p, dt) + model._derivative(0, 1)(path.p, path.q)
    interior = slice(1, -1) if path.p.size > 2 else slice(None)
    hamilton_residual = float(
        np.max(np.abs(defect_q[interior])) + np.max(np.abs(defect_p[interior]))
    )

    return ExtremumReport(
        which=which,
        times=path.times,
        eigenvalues=mat.eigenvalues(),
        classification=_classify(scaled.eigenvalues(), zero_tol),
        zero_tol=zero_tol,
        hamilton_residual=hamilton_residual,
    )
