"""Exception classes for threshold_lab, one per exit code, and the 2^n
scan guard.

Every library error is a ThresholdLabError, and the class says how a
caller handles it:

  BadParameterError        exit 2  invalid instance, formula, profile,
                                   parameter or option; the message
                                   names the value
  NotBipartiteError        exit 2  a BadParameterError that carries an
                                   odd-cycle witness in ``.witness``
  GuardExceededError       exit 3  a guard stopped the computation
  InvariantViolationError  exit 4  a machine-checked invariant failed:
                                   an implementation bug, not bad input

The scan guard lives here, beside the error it raises, so that every
module can apply it and the CLI can show its defaults without loading
the scan engine.
"""

DEFAULT_GUARD_N = 24
MAX_SCAN_N = 32  # bounds the scan time; no guard setting lifts it


class ThresholdLabError(Exception):
    """Base class for all threshold_lab errors."""


class BadParameterError(ThresholdLabError):
    """Invalid instance, formula, profile, or parameter."""


class NotBipartiteError(BadParameterError):
    """Raised with an odd-cycle witness in ``.witness``."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GuardExceededError(ThresholdLabError):
    """A guard stopped the computation."""


class InvariantViolationError(ThresholdLabError):
    """A machine-checked invariant failed; signals a bug, not bad input."""


def check_scan_size(n: int, guard_n: int) -> None:
    """Refuse a 2^n scan past MAX_SCAN_N or past guard_n.

    Called before anything is allocated.
    """
    if n > MAX_SCAN_N:
        raise GuardExceededError(f"n = {n} exceeds {MAX_SCAN_N}, the widest 2^n scan supported")
    if n > guard_n:
        raise GuardExceededError(f"n = {n} exceeds the 2^n scan guard {guard_n}")
