"""Exception hierarchy for the toolkit.

Every error carries a process exit code so the command-line layer can map
failures onto its documented contract:

    0  success
    2  resonance (degenerate monodromy block)
    3  no validated zero
    4  quadrature refinement failure
    5  crossing violation (a persistent tangency, or a tangency where
       only crossings are allowed)
    6  integration stall (event accumulation / step underflow)
"""

from __future__ import annotations


class PendavgError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class DomainError(PendavgError, ValueError):
    """Invalid argument or configuration value."""

    exit_code = 1


class NumericalError(PendavgError):
    """Internal numerical sanity check failed (conditioning, etc.)."""

    exit_code = 1


class ResonanceError(PendavgError):
    """The monodromy block is numerically singular: frequency ratio resonant."""

    exit_code = 2


class NoZeroError(PendavgError):
    """No (validated) simple zero of the bifurcation pair was found."""

    exit_code = 3


class QuadratureError(PendavgError):
    """Adaptive panel refinement did not converge within the level budget."""

    exit_code = 4


class CrossingViolationError(PendavgError):
    """A trajectory met the switching set outside its crossing region."""

    exit_code = 5

    def __init__(self, message, events=None):
        super().__init__(message)
        self.events = events or []


class TangencyError(PendavgError):
    """Persistent tangency: the flow hugs a switching surface ambiguously."""

    exit_code = 5


class IntegrationStallError(PendavgError):
    """Event accumulation or step underflow; partial trajectory attached."""

    exit_code = 6

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class RefinementDegenerateError(PendavgError):
    """Shooting refinement has a singular (I - monodromy) matrix."""

    exit_code = 1
