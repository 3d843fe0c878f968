"""Churn models: peer arrivals, departures and failure injection.

The paper lists "managing both faulty peers and handover" as future work; the
churn benchmarks quantify how the path-tree scheme behaves when peers leave
(gracefully or by crashing) and new ones keep arriving.  The model is a
simple alternating-renewal description: session lengths and off-times are
drawn from configurable exponential distributions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

from .._validation import coerce_seed, require_positive_float, require_probability
from ..exceptions import ConfigurationError

PeerId = Hashable

EVENT_JOIN = "join"
EVENT_LEAVE = "leave"
EVENT_CRASH = "crash"


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled churn event."""

    time: float
    kind: str
    peer_id: PeerId


@dataclass
class ChurnModel:
    """Exponential ON/OFF churn.

    Parameters
    ----------
    mean_session_s:
        Mean time a peer stays online before leaving.
    mean_offtime_s:
        Mean time a departed peer waits before re-joining (None = never
        returns).
    crash_fraction:
        Fraction of departures that are crashes (the server is not told:
        no ``unregister_peer``, only silence), the "faulty peers" case from
        the paper's future work.
    seed:
        RNG seed.
    """

    mean_session_s: float = 300.0
    mean_offtime_s: Optional[float] = 120.0
    crash_fraction: float = 0.1
    seed: Optional[int] = None
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        require_positive_float(self.mean_session_s, "mean_session_s")
        if self.mean_offtime_s is not None:
            require_positive_float(self.mean_offtime_s, "mean_offtime_s")
        require_probability(self.crash_fraction, "crash_fraction")
        self._rng = random.Random(coerce_seed(self.seed))

    def session_length(self) -> float:
        """Draw one online-session duration."""
        return self._rng.expovariate(1.0 / self.mean_session_s)

    def offtime_length(self) -> Optional[float]:
        """Draw one offline duration (None if peers never return)."""
        if self.mean_offtime_s is None:
            return None
        return self._rng.expovariate(1.0 / self.mean_offtime_s)

    def departure_kind(self) -> str:
        """Whether the next departure is graceful or a crash."""
        return EVENT_CRASH if self._rng.random() < self.crash_fraction else EVENT_LEAVE

    def schedule(
        self,
        peer_ids: List[PeerId],
        horizon_s: float,
        initial_join_spread_s: float = 60.0,
    ) -> List[ChurnEvent]:
        """Generate the full churn event list for ``peer_ids`` up to ``horizon_s``.

        Every peer first joins at a uniformly random time within
        ``initial_join_spread_s``, then alternates sessions and off-times
        until the horizon.  Events are returned sorted by time.
        """
        if horizon_s <= 0:
            raise ConfigurationError(f"horizon_s must be > 0, got {horizon_s}")
        events: List[ChurnEvent] = []
        for peer_id in peer_ids:
            time = self._rng.uniform(0.0, initial_join_spread_s)
            online = False
            while time < horizon_s:
                if not online:
                    events.append(ChurnEvent(time=time, kind=EVENT_JOIN, peer_id=peer_id))
                    online = True
                    time += self.session_length()
                else:
                    kind = self.departure_kind()
                    events.append(ChurnEvent(time=time, kind=kind, peer_id=peer_id))
                    online = False
                    offtime = self.offtime_length()
                    if offtime is None:
                        break
                    time += offtime
        events.sort(key=lambda event: (event.time, repr(event.peer_id)))
        return events


def churn_statistics(events: List[ChurnEvent]) -> Tuple[int, int, int]:
    """Return ``(joins, graceful_leaves, crashes)`` counts for an event list."""
    joins = sum(1 for event in events if event.kind == EVENT_JOIN)
    leaves = sum(1 for event in events if event.kind == EVENT_LEAVE)
    crashes = sum(1 for event in events if event.kind == EVENT_CRASH)
    return joins, leaves, crashes
