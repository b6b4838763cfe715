"""Exception hierarchy for threshold_lab.

Every library error derives from ThresholdLabError. Input-validation
errors and guard errors are kept in separate branches so callers
(notably the CLI) can map them to distinct exit codes.
"""


class ThresholdLabError(Exception):
    """Base class for all threshold_lab errors."""


class InputError(ThresholdLabError):
    """Invalid instance, formula, profile, or parameter."""


class SelfLoopError(InputError):
    pass


class DuplicateEdgeError(InputError):
    pass


class DisconnectedError(InputError):
    pass


class NodeOutOfRangeError(InputError):
    pass


class NotBipartiteError(InputError):
    """Raised with an odd-cycle witness in ``.witness``."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class LengthMismatchError(InputError):
    pass


class WeightOutOfRangeError(InputError):
    pass


class ValidityViolatedError(InputError):
    pass


class AlreadySymmetricError(InputError):
    pass


class BadParameterError(InputError):
    pass


class VariableMissingError(InputError):
    pass


class InconsistentCountError(InputError):
    pass


class OutOfFormulaRangeError(InputError):
    pass


class ResourceLimitError(ThresholdLabError):
    """A guard stopped the computation."""


class GuardExceededError(ResourceLimitError):
    pass


class InvariantViolationError(ThresholdLabError):
    """A machine-checked invariant failed; signals a bug, not bad input."""


class IdentityViolatedError(InvariantViolationError):
    """The fixed-point/cycle-count identity failed on a bipartite instance."""
