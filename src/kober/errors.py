"""Exception types shared across the package."""


class KoberError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KoberError, ValueError):
    """A parameter or evaluation point lies outside the mathematical domain."""


class DimensionMismatch(DomainError):
    pass


class NotPositiveDefinite(DomainError):
    pass


class SingularMatrix(DomainError):
    pass


class OutOfRange(DomainError):
    pass


class ChainDomainError(DomainError):
    """A derived beta-parameter pair of a Dirichlet chain is out of domain."""


class ProposalDomainError(DomainError):
    """No valid importance proposal exists for the requested parameters."""


class RatioOverflow(KoberError):
    """A gamma ratio exponent exceeds the representable floating range."""


class QuadratureNotConverged(KoberError):
    """Node doubling exhausted its budget before the estimates stabilised."""


class TailDivergence(KoberError):
    """An integral tail does not converge for the declared function family."""


class HypergeometricNonConvergent(KoberError):
    """The 2F1 series cannot be summed to tolerance for these arguments."""


class NonDifferentiable(KoberError):
    """A callback lacks the declared smoothness needed for differentiation."""


class MomentDivergence(KoberError):
    """A Monte Carlo sum is not finite or is dominated by a single draw; the
    requested moment is unstable."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
