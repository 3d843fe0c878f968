"""Minimal deterministic discrete-event simulation engine.

The engine plays the role PeerSim plays in the paper: it advances a simulated
clock, fires scheduled timers in timestamp order, and gives protocol code a
way to schedule future work (timers, message deliveries).  Determinism is a
design goal — given the same seed and the same scheduling order, two runs
produce identical traces — because the experiment harness relies on it for
reproducibility.

The queue is a ``heapq`` of ``(time, sequence, timer)`` tuples (see
:mod:`repro.sim.events`): ``sequence`` comes from the engine's own counter
and is never repeated, so the heap orders entries by their first two fields
alone and simultaneous timers fire in scheduling order — one scheduled with
delay 0 from inside a callback fires after everything already queued for
that instant.  Scheduling is one tuple and one push, firing one pop and one
call of ``callback(*args)``; a cancelled timer is dropped when it reaches
the top of the heap, without being fired or counted.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Any, List, Optional, Tuple

from ..exceptions import ClockError, ConfigurationError, SimulationError
from .events import EventCallback, TimerHandle


def _is_clock_time(now: float, time: Any) -> bool:
    """True if ``time`` is a finite number at or after ``now``.

    Written so that NaN fails it, and a value that does not compare with a
    float (a string, ``None``) is an invalid time rather than a bare
    ``TypeError``.
    """
    try:
        return now <= time < inf
    except TypeError:
        return False


class Engine:
    """The event loop.

    Attributes
    ----------
    now:
        Current simulated time (milliseconds by convention, but the engine is
        unit-agnostic).
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, TimerHandle]] = []
        self._running = False
        self._processed_events = 0
        self._stop_requested = False
        # Engine-owned sequence numbers: two engines built back to back
        # produce identical traces because neither sees the other's (or any
        # earlier test's) scheduling history.
        self._sequence_counter = itertools.count()

    # -------------------------------------------------------------- schedule

    def schedule(self, delay: float, callback: EventCallback, *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        try:
            # Written so that NaN fails it: an entry keyed by NaN compares
            # false against every other and breaks the heap's order.
            acceptable = 0.0 <= delay < inf
        except TypeError:
            acceptable = False
        if not acceptable:
            raise ConfigurationError(f"delay must be a finite number >= 0, got {delay!r}")
        time = self.now + delay
        sequence = next(self._sequence_counter)
        timer = TimerHandle(time, sequence, callback, args)
        heapq.heappush(self._queue, (time, sequence, timer))
        return timer

    def schedule_at(self, time: float, callback: EventCallback, *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not _is_clock_time(self.now, time):
            raise ClockError(
                f"cannot schedule an event at {time}: not a finite time at or after "
                f"the current time {self.now}"
            )
        sequence = next(self._sequence_counter)
        timer = TimerHandle(time, sequence, callback, args)
        heapq.heappush(self._queue, (time, sequence, timer))
        return timer

    # ------------------------------------------------------------------- run

    def step(self) -> bool:
        """Process the next pending event; return False if the queue is empty."""
        return self.run(max_events=1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the number of events processed during this call.  ``until``
        must be a finite time at or after ``now``: the clock never rewinds.
        """
        if self._running:
            raise SimulationError("the engine is already running (re-entrant run() call)")
        if until is not None and not _is_clock_time(self.now, until):
            raise ClockError(
                f"cannot run until {until}: not a finite time at or after "
                f"the current time {self.now}"
            )
        self._running = True
        self._stop_requested = False
        queue = self._queue
        heappop = heapq.heappop
        # Absent bounds become ones no event reaches, so the loop tests each
        # bound with one comparison instead of a None check first.
        horizon = inf if until is None else until
        cap = inf if max_events is None else max_events
        processed = 0
        try:
            while queue and not self._stop_requested:
                if processed >= cap:
                    break
                time, _, timer = queue[0]
                if timer.cancelled:
                    heappop(queue)
                    continue
                if time > horizon:
                    self.now = until
                    break
                heappop(queue)
                if time < self.now:
                    raise SimulationError(
                        f"event scheduled at {time} is in the past (now={self.now})"
                    )
                self.now = time
                timer.callback(*timer.args)
                processed += 1
            else:
                if until is not None and not queue:
                    self.now = until
        finally:
            self._running = False
            self._processed_events += processed
        return processed

    def stop(self) -> None:
        """Request the current ``run`` call to stop after the current event."""
        self._stop_requested = True

    # ------------------------------------------------------------------ state

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @property
    def processed_events(self) -> int:
        """Total events processed since the engine was created."""
        return self._processed_events

    def reset(self) -> None:
        """Clear the queue and rewind the clock (for test reuse)."""
        if self._running:
            raise SimulationError("cannot reset a running engine")
        self.now = 0.0
        self._queue.clear()
        self._processed_events = 0
        self._stop_requested = False
        self._sequence_counter = itertools.count()

    def __repr__(self) -> str:
        return f"Engine(now={self.now}, pending={self.pending_events})"
