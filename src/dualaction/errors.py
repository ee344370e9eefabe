"""Exception hierarchy shared by all dualaction modules.

Two branches matter for exit-code mapping in the CLI: precondition
violations (exit 2) and numeric failures discovered mid-computation
(exit 1).
"""


class DualActionError(Exception):
    """Base class for all package errors."""

    code = "error"


class PreconditionError(DualActionError):
    """Input violates a documented precondition (CLI exit status 2)."""

    code = "precondition"

    def __init__(self, message, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class UnsupportedOrderError(PreconditionError):
    """Requested derivative order not available for this model."""

    code = "unsupported-order"


class NotSaddleError(PreconditionError):
    """Bound certification requested for a non-saddle Hamiltonian."""

    code = "not-saddle"


class UnsolvableRestrictionError(PreconditionError):
    """A restriction equation has no solution for this model (e.g. the
    force vanishes identically, so the position cannot be recovered
    from the momentum slope)."""

    code = "unsolvable-restriction"


class NumericError(DualActionError):
    """Computation failed numerically (CLI exit status 1)."""

    code = "numeric"


class DomainError(NumericError):
    """A Hamiltonian partial evaluated to a non-finite value."""

    code = "domain"


class BlowUpError(NumericError):
    """Trajectory integration produced a non-finite state."""

    code = "blow-up"

    def __init__(self, message, node_index):
        super().__init__(message)
        self.node_index = node_index


class RootFindError(NumericError):
    """A per-node root find failed to converge."""

    code = "root-find"

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


class CausticError(NumericError):
    """Gaussian-chain determinant vanished (endpoint at/beyond a caustic)."""

    code = "caustic"


class BandwidthError(NumericError):
    """Fourier grid cannot represent the kernel (energy outside band)."""

    code = "bandwidth"
