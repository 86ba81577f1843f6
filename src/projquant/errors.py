"""Domain errors shared across modules."""

from __future__ import annotations


class ResonantWeight(ValueError):
    """Raised when a construction degenerates at a resonant weight.

    Carries the weight that failed; the message names the cause.
    """

    def __init__(self, message: str, delta=None):
        super().__init__(message)
        self.delta = delta
