"""Exception types shared across the package."""


class RichNullError(Exception):
    """Base class for all errors raised by this package."""


class EdgeListError(RichNullError):
    """Malformed edge-list input (bad token, self-loop, duplicate edge).

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SingularWeights(RichNullError):
    """The weight recursion hit a zero/negative denominator at step ``m``.

    Signals an infeasible rich-club sequence for the given degrees: no
    maximum-entropy ensemble satisfies the requested constraints. ``m`` is
    the 1-based rank at which the recursion broke down.
    """

    def __init__(self, m, detail=""):
        msg = f"weight recursion singular at rank m={m}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)
        self.m = m
        self.detail = detail


class InfeasibleConstraints(RichNullError):
    """No rich-club sequence can satisfy the requested bounds and total."""


class InfeasibleNG(RichNullError):
    """Degree-product null model is not applicable: k_max >= sqrt(2L)."""


class PowerIterationError(RichNullError):
    """The leading-eigenpair solver spent its mat-vec budget unconverged."""

    def __init__(self, residual, matvecs):
        super().__init__(
            f"leading eigenpair did not converge after {matvecs} mat-vecs "
            f"(residual {residual:.3e})"
        )
        self.residual = residual
        self.matvecs = matvecs
