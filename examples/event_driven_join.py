#!/usr/bin/env python3
"""Event-driven join: measuring setup delay on the simulated wire.

The other examples drive the management server in-process, where the setup
delay is a formula.  This one lets a flash crowd of newcomers join over the
simulated network (latencies computed on the router map): each pings the
landmarks, traceroutes the closest, and beacons its path; the ack of that
first beacon carries its neighbour list.  The distribution of setup delays
(first probe → neighbour list received, read off the simulation clock) is
the quantity the paper wants to minimise — printed here for a perfect wire
and for one that loses a message in ten, from the same scenario.

Exits non-zero unless every newcomer ends up holding a neighbour list.
"""

from __future__ import annotations

import sys

from repro import small_scenario
from repro.metrics.latency_stats import DelaySummary
from repro.protocol import ProtocolSimulation
from repro.workloads.arrivals import flash_crowd_arrivals

SEED = 23
PEERS = 50
CROWD_S = 10.0


def run(loss: float) -> bool:
    """One flash crowd joining over a wire with ``loss``; True if everyone got a list."""
    # Same seed, same ~600-router map, peers and landmarks at every loss rate.
    scenario = small_scenario(seed=SEED, peer_count=PEERS)
    arrivals = {
        arrival.peer_id: arrival.time_s * 1000.0
        for arrival in flash_crowd_arrivals(scenario.peer_ids, duration_s=CROWD_S, seed=SEED)
    }
    sim = ProtocolSimulation.over_scenario(
        scenario, arrivals_ms=arrivals, loss_probability=loss, seed=SEED
    )
    metrics = sim.run(CROWD_S * 1000.0 + 4 * sim.config.beacon_interval_ms + sim.ttl_ms)

    joined = [peer for peer in sim.peers.values() if peer.neighbors is not None]
    summary = DelaySummary.from_samples([peer.stats.setup_delay_ms for peer in joined])
    # Show a late joiner: early joiners legitimately receive few neighbours
    # because the population was still small when they arrived.
    sample = max(joined, key=lambda peer: peer.stats.arrived_at_ms)
    print(f"wire loss {loss:.0%}")
    print(f"  peers joined with a list : {len(joined)}/{len(arrivals)}")
    print(f"  messages on the wire     : {metrics.messages_sent} "
          f"(dropped: {metrics.dropped_messages}, retransmitted: {metrics.retransmissions})")
    print("  setup delay (ms) — first probe to neighbour list received")
    print(f"    mean {summary.mean:8.1f}   median {summary.median:8.1f}   "
          f"p90 {summary.p90:8.1f}   max {summary.maximum:8.1f}")
    print(f"  example ({sample.peer_id}): {len(sample.neighbors)} neighbours, "
          f"setup delay {sample.stats.setup_delay_ms:.1f} ms")
    print()
    return len(joined) == len(arrivals)


def main() -> int:
    # Both rates run (and print) even when the first one fails.
    return 0 if all([run(loss) for loss in (0.0, 0.1)]) else 1


if __name__ == "__main__":
    sys.exit(main())
