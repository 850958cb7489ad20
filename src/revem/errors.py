"""Exception hierarchy shared by all solver modules."""


class RevemError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RevemError):
    """A parameter vector lies outside the domain of the potential."""


class NumericalError(RevemError):
    """A numerical kernel hit a non-finite value or a failed factorization."""


class InfeasibleSystemError(NumericalError):
    """least_norm_solve target is not in the numerical column space.

    ``singular_values`` holds the singular values of the system matrix.
    """


class ImageMembershipError(RevemError):
    """A mixture-parameter target is not in the image of the gradient map."""


class ProjectionError(RevemError):
    """An e- or m-projection failed to converge."""


class InvalidSpecError(RevemError):
    """A system or family description violates its rank/shape invariants."""


class InvalidChannelError(RevemError):
    """A channel object or channel file violates its invariants."""


class DegenerateChannelError(InvalidChannelError):
    """Channel columns are too degenerate for the dual-function construction."""


class NotDegradedError(InvalidChannelError):
    """A wiretap channel fails the X-Y-Z degradedness check."""


class ConditionViolationError(RevemError):
    """A structural condition required by an algorithm does not hold."""
