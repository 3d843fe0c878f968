"""The one event type of the discrete-event engine: a cancellable timer.

A heap entry is the plain tuple ``(time, sequence, timer)``.  ``sequence``
is unique per engine, so every comparison ``heapq`` makes is decided by the
first two fields, in C — the :class:`TimerHandle` riding third is never
compared (it defines no ordering, and neither need its callback or
arguments).  Two timers for the same instant therefore fire in scheduling
order, which keeps simulations deterministic.

``cancel`` costs one attribute store: the entry stays where it is in the
heap and the engine discards it, unfired and uncounted, when it surfaces.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

EventCallback = Callable[..., Any]


class TimerHandle:
    """What ``Engine.schedule`` returns and what the heap entry carries.

    ``callback(*args)`` runs at simulated ``time`` unless :meth:`cancel`
    was called first.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(
        self, time: float, sequence: int, callback: EventCallback, args: Tuple[Any, ...]
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the timer as cancelled; the engine will skip it."""
        self.cancelled = True
