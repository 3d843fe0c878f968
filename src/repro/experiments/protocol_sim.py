"""Lossy-wire discovery experiments: the protocol layer under stress.

The paper evaluates discovery *quality* (are the returned neighbours
actually close?) but drives the management plane with function calls.
This experiment family drives it the way a deployment would — through
:class:`~repro.protocol.simulation.ProtocolSimulation`'s beacons over a
lossy wire — and measures the protocol-level costs the paper leaves
implicit:

* **discovery latency** — first beacon sent to neighbour list received
  (the ack that answers a registration carries it), i.e. the wire half
  of the paper's setup delay; the probing half is on the clock too when
  the peers arrive over a scenario
  (:meth:`ProtocolSimulation.over_scenario
  <repro.protocol.simulation.ProtocolSimulation.over_scenario>`);
* **staleness** — for mobility handovers, how long the plane keeps
  answering with the pre-handover path;
* **maintenance traffic** — beacon + ack bytes per peer per second, the
  price of the chosen beacon interval.

Three workload families, each swept over beacon interval × loss rate:

* ``flash-crowd`` — most peers arrive in a short ramp
  (:func:`~repro.workloads.arrivals.flash_crowd_arrivals`), the paper's
  flash-crowd motivation;
* ``streaming-join`` — Poisson arrivals, a steady streaming audience;
* ``mobility-handover`` — a steady population in which half the peers
  switch access routers mid-run, the mobile-peer story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.path import RouterPath
from ..protocol.peer import BeaconConfig
from ..protocol.simulation import ProtocolMetrics, ProtocolSimulation
from ..sim.rng import derive_seed
from ..workloads import flash_crowd_arrivals, poisson_arrivals, synthetic_paths
from .results import ResultTable

FAMILIES = ("flash-crowd", "streaming-join", "mobility-handover")


@dataclass(frozen=True)
class ProtocolSimConfig:
    """Sweep configuration for the protocol experiments."""

    peers: int = 60
    beacon_intervals_ms: Tuple[float, ...] = (250.0, 500.0, 1000.0)
    loss_rates: Tuple[float, ...] = (0.0, 0.1, 0.3)
    duration_ms: float = 10_000.0
    duplicate_probability: float = 0.02
    reorder_probability: float = 0.02
    handover_fraction: float = 0.5
    seed: int = 11


def quick_protocol_sim_config() -> ProtocolSimConfig:
    """Small sweep for CI smoke runs (seconds, not minutes)."""
    return ProtocolSimConfig(
        peers=16,
        beacon_intervals_ms=(250.0, 500.0),
        loss_rates=(0.0, 0.2),
        duration_ms=4_000.0,
    )


def _start_times(
    family: str, paths: List[RouterPath], config: ProtocolSimConfig, interval_ms: float
) -> List[float]:
    """Per-peer beaconing start times (ms) for one workload family."""
    peer_ids = [path.peer_id for path in paths]
    window_s = config.duration_ms / 1000.0 / 2.0  # arrivals in the first half
    if family == "flash-crowd":
        arrivals = flash_crowd_arrivals(
            peer_ids, duration_s=window_s, seed=derive_seed(config.seed, "flash")
        )
    elif family == "streaming-join":
        rate = max(1.0, len(peer_ids) / window_s)
        arrivals = poisson_arrivals(
            peer_ids, rate_per_s=rate, seed=derive_seed(config.seed, "poisson")
        )
    else:  # mobility-handover: everyone present early, staggered over one interval
        return [interval_ms * index / max(1, len(peer_ids)) for index in range(len(peer_ids))]
    by_peer = {arrival.peer_id: arrival.time_s * 1000.0 for arrival in arrivals}
    # Poisson tails can outrun the run; clamp so every peer starts in time
    # to be discovered before the cutoff.
    latest = config.duration_ms * 0.75
    return [min(by_peer[peer_id], latest) for peer_id in peer_ids]


def _handover_path(paths: List[RouterPath], index: int) -> RouterPath:
    """The post-handover path of peer ``index``: another peer's access chain."""
    donor = paths[(index + len(paths) // 2) % len(paths)]
    return RouterPath.from_routers(
        paths[index].peer_id, donor.landmark_id, donor.routers, rtt_ms=donor.rtt_ms
    )


def run_protocol_family(
    family: str,
    config: ProtocolSimConfig,
    interval_ms: float,
    loss: float,
) -> ProtocolMetrics:
    """One cell of the sweep: run ``family`` at one interval × loss point."""
    if family not in FAMILIES:
        raise ValueError(f"unknown protocol family {family!r}; expected one of {FAMILIES}")
    paths = synthetic_paths(config.peers, seed=derive_seed(config.seed, "paths"))
    sim = ProtocolSimulation(
        paths,
        beacon_config=BeaconConfig(beacon_interval_ms=interval_ms),
        start_times_ms=_start_times(family, paths, config, interval_ms),
        loss_probability=loss,
        duplicate_probability=config.duplicate_probability,
        reorder_probability=config.reorder_probability,
        seed=derive_seed(config.seed, f"{family}-{interval_ms}-{loss}"),
    )
    if family == "mobility-handover":
        handovers = max(1, int(len(paths) * config.handover_fraction))
        for index in range(handovers):
            sim.schedule_path_update(
                paths[index].peer_id, config.duration_ms / 2.0, _handover_path(paths, index)
            )
    try:
        return sim.run(config.duration_ms)
    finally:
        sim.close()


def run_protocol_sim(config: Optional[ProtocolSimConfig] = None) -> ResultTable:
    """The full sweep: families × beacon intervals × loss rates."""
    config = config or ProtocolSimConfig()
    table = ResultTable(
        name="protocol-sim",
        columns=[
            "family",
            "beacon_interval_ms",
            "loss",
            "peers",
            "discovered",
            "live",
            "discovery_p50_ms",
            "discovery_p99_ms",
            "staleness_p50_ms",
            "messages_per_sec",
            "bytes_per_peer_s",
            "retransmissions",
            "expired",
        ],
        metadata={
            "duration_ms": config.duration_ms,
            "duplicate_probability": config.duplicate_probability,
            "reorder_probability": config.reorder_probability,
            "seed": config.seed,
        },
    )
    for family in FAMILIES:
        for interval_ms in config.beacon_intervals_ms:
            for loss in config.loss_rates:
                metrics = run_protocol_family(family, config, interval_ms, loss)
                table.add_row(
                    family=family,
                    beacon_interval_ms=interval_ms,
                    loss=loss,
                    peers=metrics.peers,
                    discovered=metrics.discovered_peers,
                    live=metrics.live_peers,
                    discovery_p50_ms=(
                        metrics.discovery_latency.median if metrics.discovery_latency else None
                    ),
                    discovery_p99_ms=(
                        metrics.discovery_latency.p99 if metrics.discovery_latency else None
                    ),
                    staleness_p50_ms=(metrics.staleness.median if metrics.staleness else None),
                    messages_per_sec=metrics.messages_per_sec,
                    bytes_per_peer_s=metrics.maintenance_bytes_per_peer_s,
                    retransmissions=metrics.retransmissions,
                    expired=metrics.host_counters.get("peers_expired", 0),
                )
    return table


def run_protocol_sim_quick() -> ResultTable:
    """CI-sized variant of :func:`run_protocol_sim`."""
    return run_protocol_sim(quick_protocol_sim_config())
