"""Single monotonic deadline budgets for multi-phase round trips.

A remote round trip is several blocking phases — probe the channel for
writability, send the frame, wait for the reply header, read the body — and
giving each phase its own full timeout multiplies the worst case: a
slow-draining pipe plus a slow worker used to take up to *2x* the per-op
deadline before failing typed.  A :class:`DeadlineBudget` fixes the bug at
the root: one monotonic deadline is computed when the round trip starts and
**every** phase draws its timeout from the remaining budget, so the whole
round trip is bounded by exactly one ``request_timeout`` no matter how many
phases it has or how the slowness is distributed between them.

The clock is injectable so regression tests can script pathological timing
(phase one consumes 90% of the budget; phase two must only get the rest)
without sleeping.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["DeadlineBudget"]


class DeadlineBudget:
    """One shared monotonic deadline for every phase of a round trip.

    Parameters
    ----------
    seconds:
        Total budget for the round trip.  Must be non-negative.
    clock:
        Monotonic clock returning seconds; injectable for tests.
    """

    __slots__ = ("seconds", "_clock", "_deadline")

    def __init__(self, seconds: float, clock: Callable[[], float] = time.monotonic) -> None:
        if seconds < 0:
            raise ValueError(f"budget seconds must be >= 0, got {seconds}")
        self.seconds = float(seconds)
        self._clock = clock
        self._deadline = clock() + self.seconds

    def remaining(self) -> float:
        """Seconds left in the budget (never negative).

        Pass this as the timeout of the *next* blocking phase: phases that
        start after the deadline get ``0.0`` — a non-blocking probe — so an
        exhausted budget fails typed instead of blocking at all.
        """
        return max(0.0, self._deadline - self._clock())

    def __repr__(self) -> str:
        return (
            f"DeadlineBudget(seconds={self.seconds!r}, "
            f"remaining={self.remaining():.6f})"
        )
