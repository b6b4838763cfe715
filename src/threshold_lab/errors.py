"""Exception hierarchy for threshold_lab, and the 2^n scan guard.

Every library error derives from ThresholdLabError. Input-validation
errors and guard errors are kept in separate branches so callers
(notably the CLI) can map them to distinct exit codes.

The scan guard lives here, beside the error it raises, so that every
module can apply it and the CLI can show its defaults without loading
the scan engine.
"""

DEFAULT_GUARD_N = 24
MAX_SCAN_N = 32  # bounds the scan time; no guard setting lifts it


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


class InconsistentCountError(InvariantViolationError):
    """A fixed-point count has no (#sat, #nsat) preimage: a gadget or
    counter bug."""


def check_scan_size(n: int, guard_n: int) -> None:
    """Refuse a 2^n scan past MAX_SCAN_N or past guard_n.

    Called before anything is allocated.
    """
    if n > MAX_SCAN_N:
        raise GuardExceededError(f"n = {n} exceeds {MAX_SCAN_N}, the widest 2^n scan supported")
    if n > guard_n:
        raise GuardExceededError(f"n = {n} exceeds the 2^n scan guard {guard_n}")
