"""Arrival processes for peer populations.

Live-streaming audiences do not arrive uniformly: a broadcast start produces
a *flash crowd*, while steady-state channels see roughly Poisson arrivals.
These generators produce timestamped arrival sequences the simulation and the
setup-delay experiments consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence

from .._validation import coerce_seed, require_positive_float
from ..exceptions import ConfigurationError

PeerId = Hashable


@dataclass(frozen=True)
class Arrival:
    """One peer arrival."""

    time_s: float
    peer_id: PeerId


def poisson_arrivals(
    peer_ids: Sequence[PeerId],
    rate_per_s: float,
    start_time_s: float = 0.0,
    seed: Optional[int] = None,
) -> List[Arrival]:
    """Poisson process: exponential inter-arrival times at ``rate_per_s``."""
    require_positive_float(rate_per_s, "rate_per_s")
    if not peer_ids:
        raise ConfigurationError("peer_ids must not be empty")
    rng = random.Random(coerce_seed(seed))
    time = start_time_s
    arrivals: List[Arrival] = []
    for peer_id in peer_ids:
        time += rng.expovariate(rate_per_s)
        arrivals.append(Arrival(time_s=time, peer_id=peer_id))
    return arrivals


def flash_crowd_arrivals(
    peer_ids: Sequence[PeerId],
    duration_s: float,
    peak_fraction: float = 0.7,
    ramp_fraction: float = 0.2,
    start_time_s: float = 0.0,
    seed: Optional[int] = None,
) -> List[Arrival]:
    """Flash crowd: most arrivals land in a short ramp at the start.

    ``peak_fraction`` of the peers arrive during the first ``ramp_fraction``
    of ``duration_s`` (uniformly within it); the rest trickle in uniformly
    over the remaining time.
    """
    require_positive_float(duration_s, "duration_s")
    if not 0.0 < peak_fraction <= 1.0:
        raise ConfigurationError(f"peak_fraction must be in (0, 1], got {peak_fraction}")
    if not 0.0 < ramp_fraction < 1.0:
        raise ConfigurationError(f"ramp_fraction must be in (0, 1), got {ramp_fraction}")
    if not peer_ids:
        raise ConfigurationError("peer_ids must not be empty")

    rng = random.Random(coerce_seed(seed))
    ramp_end = duration_s * ramp_fraction
    peak_count = int(round(len(peer_ids) * peak_fraction))
    arrivals: List[Arrival] = []
    for index, peer_id in enumerate(peer_ids):
        if index < peak_count:
            time = start_time_s + rng.uniform(0.0, ramp_end)
        else:
            time = start_time_s + rng.uniform(ramp_end, duration_s)
        arrivals.append(Arrival(time_s=time, peer_id=peer_id))
    arrivals.sort(key=lambda arrival: (arrival.time_s, repr(arrival.peer_id)))
    return arrivals
