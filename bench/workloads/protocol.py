"""``protocol-lossy``: the beaconing discovery protocol over a lossy wire.

Every round stands up a fresh ``ProtocolSimulation`` (its own network seed),
scripts a few handovers and silent stops, and runs the event engine for a
fixed stretch of simulated time in short slices.  An op is one wire message
(beacon or ack, dropped and duplicated copies included); a latency sample is
one slice's wall time divided by the messages it carried.  Simulation and
protocol code do nearly all the work and the plane almost none.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro import RouterPath
from repro.protocol import BeaconConfig, ProtocolSimulation

from ..harness import RoundSample
from ..inputs import ProtocolScript, protocol_script
from .base import Check, Finish, Workload

_now = time.perf_counter_ns


class ProtocolLossy(Workload):
    name = "protocol-lossy"

    def __init__(self, seed: int, params: Dict[str, float]) -> None:
        super().__init__(seed, params)
        self.duration_ms = float(params["duration_ms"])
        script: ProtocolScript = protocol_script(
            seed,
            int(params["peers"]),
            self.duration_ms,
            float(params["handover_share"]),
            float(params["stop_share"]),
        )
        self.script = script
        self.paths = [RouterPath.from_routers(*spec) for spec in script.paths]
        self.handover_paths = [
            RouterPath.from_routers(
                script.paths[peer].peer_id, script.paths[donor].landmark_id, script.paths[donor].routers
            )
            for peer, _, donor in script.handovers
        ]
        self.sim: ProtocolSimulation
        self._totals: Dict[str, float] = {}
        self._first: Dict[str, float] = {}
        self._undiscovered = 0
        self._inconsistent = 0
        self._rounds = 0

    # ------------------------------------------------------------ lifecycle

    def _build(self, index: int) -> ProtocolSimulation:
        sim = ProtocolSimulation(
            self.paths,
            beacon_config=BeaconConfig(beacon_interval_ms=float(self.params["beacon_ms"])),
            loss_probability=float(self.params["loss"]),
            duplicate_probability=float(self.params["duplicate"]),
            reorder_probability=float(self.params["reorder"]),
            seed=self.seed * 1000 + index + 1,
            neighbor_set_size=int(self.params["k"]),
        )
        for (peer, at_ms, _), path in zip(self.script.handovers, self.handover_paths):
            sim.schedule_path_update(self.paths[peer].peer_id, at_ms, path)
        for peer, at_ms in self.script.stops:
            sim.schedule_stop(self.paths[peer].peer_id, at_ms)
        return sim

    def setup(self) -> None:
        self.sim = self._build(-1)

    def teardown(self) -> None:
        self.sim.close()

    # ---------------------------------------------------------------- rounds

    def round(self, index: int) -> RoundSample:
        started = time.perf_counter()
        sim = self._build(index)
        setup_s = time.perf_counter() - started
        slice_ms = float(self.params["slice_ms"])
        deliveries = sim.network.deliveries
        run = sim.engine.run
        samples: List[int] = []
        failed = 0
        loop_started = _now()
        try:
            # run() starts host and peers, then advances to the first slice edge.
            sim.run(slice_ms)
            carried = len(deliveries)
            edge = slice_ms
            while edge < self.duration_ms:
                edge = min(edge + slice_ms, self.duration_ms)
                started_ns = _now()
                run(until=edge)
                elapsed = _now() - started_ns
                now_carried = len(deliveries)
                if now_carried > carried:
                    samples.append(elapsed // (now_carried - carried))
                    carried = now_carried
        except Exception:  # noqa: BLE001 - a raising simulation fails the round's ops
            failed = max(1, len(deliveries))
        wall = _now() - loop_started
        metrics = sim.collect_metrics(self.duration_ms)
        undiscovered = sum(
            1
            for peer in sim.peers.values()
            if peer.running and peer.stats.first_ack_at_ms is None
        )
        self._undiscovered += undiscovered
        self._inconsistent += 0 if sim.network.accounting_consistent() else 1
        self._rounds += 1
        self._accumulate(index, sim, metrics)
        sim.close()
        return RoundSample(
            ops=max(1, metrics.messages_sent),
            wall_ns=wall,
            latencies_ns={"msg": samples},
            headline="msg",
            failed=failed,
            setup_s=setup_s,
        )

    def _accumulate(self, index: int, sim: ProtocolSimulation, metrics) -> None:
        totals = {
            "messages": metrics.messages_sent,
            "events": sim.engine.processed_events,
            "dropped": metrics.dropped_messages,
            "duplicated": metrics.duplicated_messages,
            "retransmissions": metrics.retransmissions,
            "bytes": metrics.maintenance_bytes,
            "dedup_hits": metrics.host_counters["duplicate_beacons"],
            "peers_expired": metrics.host_counters["peers_expired"],
            "peer_rounds": metrics.peers,
            "peer_seconds": metrics.peers * self.duration_ms / 1e3,
        }
        for name, value in totals.items():
            self._totals[name] = self._totals.get(name, 0) + value
        if index == 0 and metrics.discovery_latency is not None:
            # Simulated times are exact for a seed: quote round 0's.
            self._first = {"sim.discovery_p99_ms": metrics.discovery_latency.p99}

    # ---------------------------------------------------------------- finish

    def counters(self) -> Dict[str, float]:
        return dict(self._totals)

    def finish(self) -> Finish:
        finish = Finish(values=dict(self._first))
        peers = len(self.paths)
        finish.checks.append(
            Check(
                "every still-beaconing peer was discovered",
                self._rounds * peers,
                self._undiscovered == 0,
                f"{self._undiscovered} undiscovered over {self._rounds} rounds",
            )
        )
        finish.checks.append(
            Check(
                "wire accounting is consistent",
                self._rounds,
                self._inconsistent == 0,
                f"{self._inconsistent} inconsistent rounds",
            )
        )
        return finish
