"""Exception types shared across the package."""


class QcoordError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QcoordError):
    """A value violates a structural invariant (bad shape, bad normalization, ...)."""


class ParseError(QcoordError):
    """An input file or token could not be parsed."""


class DimensionMismatch(QcoordError):
    """Operands have incompatible Hilbert-space dimensions."""


class DimensionCapExceeded(QcoordError):
    """Matrix dimension above the supported dense-storage cap."""


class ShapeMismatch(QcoordError):
    """Tensor shapes do not line up."""


class ZeroVector(QcoordError):
    """A state vector with zero norm cannot be normalized."""


class EnumerationCapExceeded(QcoordError):
    """Deterministic strategy enumeration would exceed the pair cap."""


class AlphabetCapExceeded(QcoordError):
    """Local-polytope vertex count above the hull-LP cap."""


class SolverLimitReached(QcoordError):
    """The LP solver could not finish: pivot limit, singular basis, or an unverified answer."""


class IncompatibleLabels(QcoordError):
    """Label sets of two objects do not match."""


class InvalidConfig(QcoordError):
    """Optimizer configuration out of range."""


class NonBinaryActions(QcoordError):
    """Operation requires exactly two actions per player."""


class NotStateConsistent(QcoordError):
    """Distribution's state marginal is not the product of the priors."""


class NotDisjoint(QcoordError):
    """Signals carry information about the other player's state."""


class PayoffDependsOnPsi(QcoordError):
    """Payoff tensor varies with the second player's state."""
