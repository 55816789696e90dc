"""Exception types shared across the package."""


class GradedPIError(Exception):
    """Base class for all package errors."""


class OrderMismatchError(GradedPIError):
    """Arithmetic attempted between scalars of different cyclotomic orders."""


class InexactDivisionError(GradedPIError):
    """An exact polynomial division met a non-monic divisor or a remainder."""


class InvalidTableError(GradedPIError):
    """A Cayley table violates a group axiom, or a group is outside the
    supported orders 1..MAX_ORDER."""


class NotSubgroupError(GradedPIError):
    """A member set is not closed under product/inverse or misses the identity."""


class NotNormalError(GradedPIError):
    """An operation requiring a normal subgroup was called on a non-normal one."""


class CocycleError(GradedPIError):
    """A cocycle table is malformed or violates the cocycle identity."""


class BinomialConditionError(GradedPIError):
    """A binomial's sigma is not a permutation of its positions, or its two
    monomial orders have different products in H."""


class AlgebraMismatchError(GradedPIError):
    """Elements of different algebras were combined."""


class DegreeMismatchError(GradedPIError):
    """An assignment is not homogeneous of the variable's declared degree."""


class NonMultilinearError(GradedPIError):
    """The identity oracle only accepts multilinear polynomials."""


class HypothesisError(GradedPIError):
    """A structural hypothesis (normal H, blocks, normalization, ...) fails."""


class DisconnectedGradingError(GradedPIError):
    """The support of the grading does not generate the group."""


class TruncationError(GradedPIError):
    """The Grassmann truncation is too small for the requested check."""


class FactorizationError(GradedPIError):
    """The algebra's grading group does not carry the declared Z2 x G splitting."""


class VerificationFailedError(GradedPIError):
    """A witness certificate failed to verify (indicates an internal bug)."""


class NoWitnessError(GradedPIError):
    """Witness emission was requested but the report carries no witness."""


class DocumentError(GradedPIError):
    """A session document is malformed; message names the offending field."""
