"""Send-side protocol semantics: rounds, retries, budgets, handovers.

The peer beacons at router 5 of the unit-latency line graph towards a
scripted host at router 0 (one-way latency 5 ms), so every timing
assertion below is exact simulated milliseconds.
"""

from __future__ import annotations

import pytest

from repro.core.path import RouterPath
from repro.protocol import Beacon, BeaconAck, BeaconConfig, BeaconingPeer
from repro.sim.engine import Engine
from repro.sim.network import SimulatedNetwork

HOST = "mgmt"

# Deterministic timing: no jitter, tight budget-relevant timeouts.
CONFIG = BeaconConfig(
    beacon_interval_ms=100.0,
    ack_timeout_ms=30.0,
    backoff_factor=2.0,
    max_backoff_ms=60.0,
    jitter_fraction=0.0,
)


def path_for(peer, access="a1"):
    return RouterPath.from_routers(peer, "lmA", [f"lmA-{access}", "lmA-core", "lmA"])


NEIGHBORS = (("p9", 2.0),)


class AckingHost:
    """Scripted host side: records beacons, optionally acks each one.

    Like the real host it answers the sequence number that announced a new
    path with a neighbour list (retransmissions of it included) and every
    other with a bare ack.
    """

    def __init__(self, engine, network, ack=True):
        self.engine = engine
        self.network = network
        self.ack = ack
        self.beacons = []
        self.answered = (None, None)  # (path, seq that announced it)

    def handle_message(self, sender, message):
        self.beacons.append((self.engine.now, message))
        if self.ack and isinstance(message, Beacon):
            if message.path != self.answered[0]:
                self.answered = (message.path, message.seq)
            neighbors = NEIGHBORS if message.seq == self.answered[1] else None
            self.network.send(HOST, sender, BeaconAck(sender, message.seq, neighbors))


def make_peer(line_graph, config=CONFIG, ack=True, seed=0, **network_kwargs):
    engine = Engine()
    network_kwargs.setdefault("processing_delay_ms", 0.0)
    network_kwargs.setdefault("seed", 2)
    network = SimulatedNetwork(engine, line_graph, **network_kwargs)
    host = AckingHost(engine, network, ack=ack)
    network.attach_host(HOST, 0, host)
    peer = BeaconingPeer(
        "p0", engine, network, HOST, path_for("p0"), config=config, seed=seed
    )
    network.attach_host("p0", 5, peer)
    return engine, network, host, peer


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beacon_interval_ms": 0.0},
            {"ack_timeout_ms": -1.0},
            {"backoff_factor": 0.5},
            {"ack_timeout_ms": 50.0, "max_backoff_ms": 20.0},
            {"jitter_fraction": 1.5},
            {"round_budget_ms": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BeaconConfig(**kwargs)

    def test_budget_defaults_to_the_interval(self):
        assert BeaconConfig(beacon_interval_ms=250.0).budget_ms == 250.0
        assert BeaconConfig(round_budget_ms=80.0).budget_ms == 80.0


class TestIdentity:
    def test_peer_cannot_beacon_someone_elses_path(self, line_graph):
        engine = Engine()
        network = SimulatedNetwork(engine, line_graph, seed=2)
        with pytest.raises(ValueError):
            BeaconingPeer("p1", engine, network, HOST, path_for("p0"))

    def test_update_path_enforces_identity_too(self, line_graph):
        _engine, _network, _host, peer = make_peer(line_graph)
        with pytest.raises(ValueError):
            peer.update_path(path_for("p9"))

    def test_negative_initial_delay_rejected(self, line_graph):
        _engine, _network, _host, peer = make_peer(line_graph)
        with pytest.raises(ValueError):
            peer.start(initial_delay_ms=-1.0)


class TestRounds:
    def test_ack_closes_the_round_without_retransmitting(self, line_graph):
        engine, _network, host, peer = make_peer(line_graph)
        peer.start()
        engine.run(until=50.0)
        assert peer.stats.beacons_sent == 1
        assert peer.stats.retransmissions == 0
        assert peer.stats.acks_received == 1
        assert peer.stats.rounds_acked == 1
        # Beacon out at 0, heard at 5, ack back at 10: a 10 ms round trip.
        assert peer.stats.discovery_latency_ms == pytest.approx(10.0)
        assert [beacon.seq for _, beacon in host.beacons] == [0]
        assert peer.current_seq == 0

    def test_retransmits_with_backoff_until_the_budget_runs_out(self, line_graph):
        engine, _network, _host, peer = make_peer(line_graph, loss_probability=1.0)
        peer.start()
        # Attempts at t=0, 30, 90 (timeouts 30, 60); next timeout 60 is
        # clamped to the 10 ms left in the 100 ms round budget, and the
        # interval fires the next round at t=100 superseding round 0.
        engine.run(until=105.0)
        assert peer.stats.rounds_started == 2
        assert peer.stats.rounds_abandoned == 1
        assert peer.stats.acks_received == 0
        assert peer.stats.beacons_sent == 4  # 3 for round 0 + round 1's first
        assert peer.stats.retransmissions == 2

    def test_round_budget_caps_retries(self, line_graph):
        config = BeaconConfig(
            beacon_interval_ms=100.0,
            ack_timeout_ms=10.0,
            backoff_factor=2.0,
            max_backoff_ms=40.0,
            jitter_fraction=0.0,
            round_budget_ms=25.0,
        )
        engine, _network, _host, peer = make_peer(
            line_graph, config=config, loss_probability=1.0
        )
        peer.start()
        engine.run(until=95.0)
        # Attempts at t=0 and 10; the retry at t=25 finds the budget spent.
        assert peer.stats.beacons_sent == 2
        assert peer.stats.rounds_abandoned == 1

    def test_a_long_unacked_round_keeps_retransmitting_at_the_cap(self, line_graph):
        """Regression: the backoff power was taken before the clamp, and the
        1,025th retransmission of a round raised ``OverflowError``."""
        config = BeaconConfig(
            beacon_interval_ms=1e7,
            ack_timeout_ms=1.0,
            max_backoff_ms=1.0,
            jitter_fraction=0.0,
        )
        engine, network, _host, peer = make_peer(
            line_graph, config=config, loss_probability=1.0
        )
        peer.start()
        engine.run(until=5000.0)
        assert peer.stats.rounds_started == 1
        assert peer.stats.retransmissions == 5000  # one every 1 ms, t = 1 .. 5000
        sent = [record.sent_at for record in network.deliveries[-3:]]
        assert sent == [4998.0, 4999.0, 5000.0]

    def test_lossy_wire_timing_is_deterministic_per_seed(self, line_graph):
        def run_once():
            config = BeaconConfig(
                beacon_interval_ms=100.0,
                ack_timeout_ms=20.0,
                max_backoff_ms=60.0,
                jitter_fraction=0.3,
            )
            engine, network, _host, peer = make_peer(
                line_graph, config=config, seed=7, loss_probability=0.5
            )
            peer.start()
            engine.run(until=500.0)
            return peer.stats.beacons_sent, [r.sent_at for r in network.deliveries]

        assert run_once() == run_once()

    def test_stop_halts_beaconing(self, line_graph):
        engine, _network, _host, peer = make_peer(line_graph, loss_probability=1.0)
        peer.start()
        engine.run(until=95.0)
        sent = peer.stats.beacons_sent
        assert sent > 0
        peer.stop()
        engine.run(until=500.0)
        assert peer.stats.beacons_sent == sent
        assert not peer.running


class TestNeighbourList:
    def test_peer_keeps_the_last_list_it_was_handed_and_when(self, line_graph):
        engine, _network, _host, peer = make_peer(line_graph)
        assert peer.neighbors is None
        peer.start()
        engine.run(until=250.0)  # rounds 0..2: one registration, two refreshes
        assert peer.stats.rounds_acked == 3
        assert peer.neighbors == NEIGHBORS
        assert peer.neighbors_at_ms == pytest.approx(10.0)  # bare acks leave it alone
        assert peer.stats.first_neighbors_at_ms == pytest.approx(10.0)
        assert peer.stats.setup_delay_ms is None  # handed its path: it never probed
        peer.update_path(path_for("p0", access="a2"))
        engine.run(until=280.0)
        assert peer.neighbors_at_ms == pytest.approx(260.0)
        assert peer.stats.first_neighbors_at_ms == pytest.approx(10.0)

    def test_unacked_sequence_number_is_reannounced_not_skipped(self, line_graph):
        """The ack holding the list cannot be skipped by the clock."""
        engine, _network, host, peer = make_peer(line_graph, ack=False)
        peer.start()
        engine.run(until=205.0)  # rounds at 0, 100, 200: all unanswered
        assert peer.stats.rounds_started == 3
        assert {beacon.seq for _, beacon in host.beacons} == {0}
        host.ack = True
        engine.run(until=350.0)
        seqs = [beacon.seq for _, beacon in host.beacons]
        assert seqs[-1] == 1 and set(seqs[:-1]) == {0}  # acked, so the next round moves on
        assert peer.neighbors == NEIGHBORS
        assert peer.stats.discovery_latency_ms == pytest.approx(peer.neighbors_at_ms)

    def test_refresh_numbers_are_still_retired_by_the_clock(self, line_graph):
        """Only the number that first announced a path waits for its ack."""
        engine, _network, host, peer = make_peer(line_graph)
        peer.start()
        engine.run(until=50.0)  # round 0 registered the path and was acked
        host.ack = False
        engine.run(until=305.0)  # rounds at 100, 200, 300: unanswered refreshes
        assert sorted({beacon.seq for _, beacon in host.beacons}) == [0, 1, 2, 3]
        assert peer.stats.rounds_abandoned == 2  # the round at 300 is still open


class TestHandover:
    def test_update_path_beacons_immediately_with_a_fresh_seq(self, line_graph):
        engine, _network, host, peer = make_peer(line_graph)
        peer.start()
        engine.run(until=40.0)  # round 0 acked at t=10
        new_path = path_for("p0", access="a2")
        peer.update_path(new_path)
        engine.run(until=80.0)
        assert peer.stats.path_updates == 1
        seqs = [beacon.seq for _, beacon in host.beacons]
        assert seqs == [0, 1]  # the handover started a new round at once
        assert host.beacons[-1][1].path == new_path
        # Staleness sample: update at t=40, new-path ack heard at t=50.
        assert peer.stats.update_latencies_ms == [pytest.approx(10.0)]

    def test_superseded_round_is_abandoned_not_retried(self, line_graph):
        engine, _network, host, peer = make_peer(line_graph, ack=False)
        peer.start()
        engine.run(until=20.0)  # round 0 open, unacked
        peer.update_path(path_for("p0", access="a2"))
        engine.run(until=28.0)
        assert peer.stats.rounds_abandoned == 1
        assert peer.current_seq == 1


class TestDuplicateAcks:
    def test_unexpected_messages_are_ignored_not_raised(self, line_graph):
        """Before its first beacon a peer expects nothing; the wire may still deliver."""
        _engine, _network, _host, peer = make_peer(line_graph)
        peer.handle_message(HOST, "garbage")
        peer.handle_message(HOST, BeaconAck(peer_id="p0", seq=0, neighbors=NEIGHBORS))
        assert peer.stats.duplicate_acks == 1 and peer.stats.acks_received == 0
        assert peer.neighbors is None

    def test_duplicate_acks_are_counted_not_reapplied(self, line_graph):
        engine, _network, _host, peer = make_peer(line_graph, duplicate_probability=1.0)
        peer.start()
        engine.run(until=60.0)
        # Beacon duplicated -> host acks twice -> each ack duplicated: one
        # closes the round, three are recognised as duplicates.
        assert peer.stats.acks_received == 1
        assert peer.stats.duplicate_acks == 3
        assert peer.stats.rounds_acked == 1
