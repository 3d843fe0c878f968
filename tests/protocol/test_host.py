"""Receive-side protocol semantics: dedup, expiry, quarantine, ack-after-apply.

The host is driven directly over a :class:`SimulatedNetwork` so each test
controls exactly which messages arrive, in which order, at which simulated
time — the unit-level complement of the end-to-end runs in
``test_simulation.py``.
"""

from __future__ import annotations

import pytest

from repro.core import ConsistentHashRing, ManagementServer, ShardedManagementServer
from repro.core.chaos import ChaosShardBackend, Fault, FaultPlan
from repro.core.path import RouterPath
from repro.exceptions import ShardUnavailableError
from repro.protocol import (
    Beacon,
    BeaconAck,
    BeaconingPeer,
    ProtocolManagementHost,
    ProtocolSimulation,
)
from repro.sim.engine import Engine
from repro.sim.network import SimulatedNetwork
from repro.workloads import synthetic_paths

HOST = "mgmt"
TTL_MS = 100.0


def path_for(peer, access="a1"):
    return RouterPath.from_routers(peer, "lmA", [f"lmA-{access}", "lmA-core", "lmA"])


class Recorder:
    """Peer-side handler recording acks with their arrival times."""

    def __init__(self, engine):
        self.engine = engine
        self.received = []

    def handle_message(self, sender, message):
        self.received.append((self.engine.now, sender, message))


@pytest.fixture()
def plane(line_graph):
    """Engine, network, server and a started host, plus two peer endpoints."""
    engine = Engine()
    network = SimulatedNetwork(engine, line_graph, processing_delay_ms=0.0, seed=5)
    server = ManagementServer(neighbor_set_size=3)
    server.register_landmark("lmA", "lmA")
    host = ProtocolManagementHost(HOST, engine, network, server, ttl_ms=TTL_MS)
    network.attach_host(HOST, 0, host)
    senders = {}
    for peer_id, router in (("p0", 5), ("p1", 3)):
        recorder = Recorder(engine)
        network.attach_host(peer_id, router, recorder)
        senders[peer_id] = recorder
    return engine, network, server, host, senders


def beacon_from(network, peer_id, seq, path=None):
    path = path if path is not None else path_for(peer_id)
    network.send(peer_id, HOST, Beacon(peer_id=peer_id, seq=seq, path=path))


class TestRegistration:
    def test_first_beacon_registers_and_acks_after_apply(self, plane):
        engine, network, server, host, senders = plane
        beacon_from(network, "p0", 0)
        engine.run()
        assert server.has_peer("p0")
        assert host.is_live("p0")
        assert host.stats.beacons_registered == 1
        assert host.stats.acks_sent == 1
        [(_, sender, ack)] = senders["p0"].received
        assert sender == HOST
        # The first peer of a population is told so: an empty list, not None.
        assert ack == BeaconAck(peer_id="p0", seq=0, neighbors=())

    def test_duplicate_beacon_reacks_without_plane_work(self, plane):
        engine, network, server, host, senders = plane
        beacon_from(network, "p0", 0)
        engine.run()
        generation = server._cache.membership_generation
        heard_first = host.last_heard("p0")
        beacon_from(network, "p0", 0)  # wire duplicate / retransmit
        engine.run()
        assert host.stats.duplicate_beacons == 1
        assert host.stats.beacons_registered == 1
        assert server._cache.membership_generation == generation
        # Re-acked so the sender stops retransmitting...
        assert len(senders["p0"].received) == 2
        # ...and the retransmit of the *current* round still refreshes the TTL.
        assert host.last_heard("p0") > heard_first

    def test_same_path_reannounce_is_a_refresh_not_a_reregister(self, plane):
        engine, network, server, host, _senders = plane
        beacon_from(network, "p0", 0)
        engine.run()
        generation = server._cache.membership_generation
        beacon_from(network, "p0", 1)  # next round, same path
        engine.run()
        assert host.stats.beacons_refreshed == 1
        assert host.stats.beacons_registered == 1
        assert server._cache.membership_generation == generation

    def test_new_path_reregisters(self, plane):
        engine, network, server, host, _senders = plane
        beacon_from(network, "p0", 0)
        engine.run()
        beacon_from(network, "p0", 1, path=path_for("p0", access="a2"))
        engine.run()
        assert host.stats.beacons_registered == 2
        assert server.peer_path("p0") == path_for("p0", access="a2")

    def test_ack_skipped_for_a_sender_that_detached_in_flight(self, plane):
        engine, network, server, host, senders = plane
        beacon_from(network, "p0", 0)
        network.detach_host("p0")
        engine.run()
        # The beacon was already in flight, so it still registers; the ack
        # has nowhere to go and is skipped rather than crashing the host.
        assert server.has_peer("p0")
        assert host.stats.acks_sent == 0
        assert senders["p0"].received == []


class TestAckCarriesTheNeighbourList:
    def test_registration_ack_is_what_register_peer_returned(self, plane):
        engine, network, server, host, senders = plane
        beacon_from(network, "p0", 0)
        engine.run()
        beacon_from(network, "p1", 0)
        engine.run()
        [(_, _, ack)] = senders["p1"].received
        assert ack.neighbors == tuple(server.closest_peers("p1"))
        assert [peer for peer, _ in ack.neighbors] == ["p0"]
        assert host.stats.lists_sent == 2

    def test_duplicated_join_beacon_registers_once_and_both_acks_carry_the_list(self, plane):
        engine, network, server, host, senders = plane
        beacon_from(network, "p0", 0)
        engine.run()
        beacon_from(network, "p1", 0)
        beacon_from(network, "p1", 0)  # wire duplicate / retransmit of the join
        engine.run()
        assert host.stats.beacons_registered == 2  # p0 and p1, once each
        assert host.stats.duplicate_beacons == 1
        (_, _, first), (_, _, second) = senders["p1"].received
        assert first == second
        assert first.neighbors is not None and len(first.neighbors) == 1

    def test_refresh_ack_is_bare_and_a_new_path_is_answered_again(self, plane):
        engine, network, _server, host, senders = plane
        beacon_from(network, "p1", 0)
        beacon_from(network, "p0", 0)
        engine.run()
        beacon_from(network, "p0", 1)  # same path: a refresh
        engine.run()
        beacon_from(network, "p0", 1)  # its retransmit answers no registration either
        engine.run()
        beacon_from(network, "p0", 2, path=path_for("p0", access="a2"))
        engine.run()
        lists = [ack.neighbors for _, _, ack in senders["p0"].received]
        assert lists[1] is None and lists[2] is None
        assert lists[0] is not None and lists[3] is not None
        assert host.stats.lists_sent == 3  # p1's join, p0's join, p0's new path


class TestQuarantine:
    @pytest.mark.parametrize(
        "message",
        [
            object(),
            "garbage",
            BeaconAck(peer_id="p1", seq=0),
            Beacon(peer_id="p0", seq=0, path=path_for("p0")),
        ],
        ids=["unknown", "text", "wrong-direction", "forged"],
    )
    def test_hostile_message_is_one_ban_and_no_plane_work(self, plane, message):
        engine, network, server, host, senders = plane
        before = server.stats.as_dict()
        network.send("p1", HOST, message)
        engine.run()  # no exception reaches the event loop
        assert host.stats.peers_banned == 1
        assert server.stats.as_dict() == before
        assert server.peer_count == 0
        assert senders["p1"].received == []  # and nothing is acked

    def test_malformed_message_bans_the_sender(self, plane):
        engine, network, server, host, _senders = plane
        network.send("p1", HOST, "garbage")
        engine.run()
        assert "p1" in host.banned
        assert host.stats.malformed_messages == 1
        assert host.stats.peers_banned == 1
        # Even well-formed beacons from a banned sender never reach the plane.
        beacon_from(network, "p1", 0)
        engine.run()
        assert host.stats.banned_beacons_dropped == 1
        assert host.stats.beacons_received == 0
        assert not server.has_peer("p1")

    def test_forged_peer_id_bans_and_evicts_the_sender(self, plane):
        engine, network, server, host, _senders = plane
        beacon_from(network, "p1", 0)  # legitimate registration first
        engine.run()
        assert server.has_peer("p1")
        # p1 claims to be p0: sender/peer_id mismatch.
        network.send("p1", HOST, Beacon(peer_id="p0", seq=0, path=path_for("p0")))
        engine.run()
        assert "p1" in host.banned
        assert not server.has_peer("p1")  # quarantine evicts registered state
        assert not server.has_peer("p0")  # the forged identity never lands

    def test_forged_path_owner_bans(self, plane):
        engine, network, server, host, _senders = plane
        # p1 announces its own id but a path recorded for p0.
        network.send("p1", HOST, Beacon(peer_id="p1", seq=0, path=path_for("p0")))
        engine.run()
        assert "p1" in host.banned
        assert not server.has_peer("p1")
        assert host.stats.beacons_received == 0  # never counted as protocol traffic


class TestExpiry:
    def test_silent_peer_expires_after_ttl(self, plane):
        engine, network, server, host, _senders = plane
        expired_log = []
        host.on_expire = lambda peer_id, now: expired_log.append((peer_id, now))
        host.start()
        beacon_from(network, "p0", 0)
        engine.run(until=TTL_MS * 3)  # silence after the single beacon
        assert not host.is_live("p0")
        assert not server.has_peer("p0")
        assert host.stats.peers_expired == 1
        assert expired_log and expired_log[0][0] == "p0"
        # The sweep lags the TTL by at most one sweep interval (ttl/4).
        heard_at = 5.0  # delivery latency from router 5 to router 0
        assert heard_at + TTL_MS < expired_log[0][1] <= heard_at + TTL_MS * 1.25 + 1

    def test_expired_peer_is_a_newcomer_whatever_its_sequence_number(self, plane):
        engine, network, server, host, senders = plane
        host.start()
        beacon_from(network, "p0", 3)
        engine.run(until=TTL_MS * 3)
        assert not server.has_peer("p0")
        # Dedup protects a registration the plane holds; this one is gone, so
        # a copy of the old number registers again (and would be expired
        # again one TTL later) rather than being acked and left invisible.
        beacon_from(network, "p0", 3)
        engine.run(until=TTL_MS * 3 + 20)
        assert host.stats.duplicate_beacons == 0
        assert host.stats.beacons_registered == 2
        assert server.has_peer("p0") and host.is_live("p0")
        # A restarted daemon counts from 0 again: below the old number, and
        # still not a duplicate of its previous life.
        engine.run(until=TTL_MS * 6)
        assert not server.has_peer("p0")
        beacon_from(network, "p0", 0)
        engine.run(until=TTL_MS * 6 + 20)
        assert server.has_peer("p0")
        assert host.stats.beacons_registered == 3
        # Every ack followed a registration the plane held at that moment.
        assert len(senders["p0"].received) == host.stats.acks_sent == 3

    def test_restarted_daemon_is_registered_when_it_is_acked(self):
        """Regression: ``acked => registered`` for a peer that comes back.

        The old daemon stops at 1.5 s and is expired; a fresh one for the
        same id starts 2 x TTL later, counting from sequence number 0.  The
        host used to deduplicate it against its previous life: after 1.5 s
        it had two acked rounds and was not in the plane.
        """
        paths = synthetic_paths(6, seed=3)
        returning = paths[0]
        sim = ProtocolSimulation(paths, seed=2)
        sim.schedule_stop(returning.peer_id, at_ms=1500.0)
        restart_at = 1500.0 + 2 * sim.ttl_ms
        sim.run(restart_at)
        assert not sim.server.has_peer(returning.peer_id)
        assert sim.host.stats.peers_expired == 1

        reborn = BeaconingPeer(
            returning.peer_id, sim.engine, sim.network, sim.host.host_id, returning,
            config=sim.config, seed=1,
        )
        sim.network.attach_host(returning.peer_id, returning.access_router, reborn)
        reborn.start()
        sim.engine.run(until=restart_at + 1500.0)
        assert reborn.stats.rounds_acked == 2
        assert sim.server.has_peer(returning.peer_id)
        assert sim.host.is_live(returning.peer_id)
        assert reborn.neighbors == tuple(sim.server.closest_peers(returning.peer_id))

    def test_live_peer_survives_sweeps_while_beaconing(self, plane):
        engine, network, server, host, _senders = plane
        host.start()
        for round_number in range(6):
            engine.schedule_at(
                round_number * (TTL_MS / 2.0),
                lambda seq=round_number: beacon_from(network, "p0", seq),
            )
        engine.run(until=TTL_MS * 3)
        assert host.is_live("p0")
        assert host.stats.peers_expired == 0

    def test_stop_cancels_the_sweep(self, plane):
        engine, _network, _server, host, _senders = plane
        host.start()
        host.stop()
        engine.run(until=TTL_MS * 10)
        assert engine.pending_events == 0


class FlakyPlane:
    """A live plane whose ``register_peer`` / ``unregister_peer`` fail typed while ``down``."""

    def __init__(self, server):
        self.server = server
        self.down = False

    def __getattr__(self, name):
        return getattr(self.server, name)

    def _check(self):
        if self.down:
            raise ShardUnavailableError("shard-0", "down for the test")

    def register_peer(self, path):
        self._check()
        return self.server.register_peer(path)

    def unregister_peer(self, peer_id):
        self._check()
        return self.server.unregister_peer(peer_id)


@pytest.fixture()
def flaky(plane):
    """The ``plane`` fixture with a :class:`FlakyPlane` between host and server."""
    engine, network, server, _host, senders = plane
    flaky_plane = FlakyPlane(server)
    host = ProtocolManagementHost(HOST, engine, network, flaky_plane, ttl_ms=TTL_MS)
    network.detach_host(HOST)
    network.attach_host(HOST, 0, host)
    return engine, network, flaky_plane, host, senders


class TestTypedPlaneFailure:
    def test_failed_registration_is_unacked_unrecorded_and_healed_by_the_retransmit(self, flaky):
        engine, network, flaky_plane, host, _senders = flaky
        network.detach_host("p0")
        peer = BeaconingPeer("p0", engine, network, HOST, path_for("p0"), seed=1)
        network.attach_host("p0", 5, peer)
        flaky_plane.down = True
        peer.start()
        engine.run(until=50.0)  # the first beacon reached a plane that is down
        assert host.stats.plane_failures == 1
        assert host.stats.acks_sent == 0 and peer.stats.acks_received == 0
        assert host.last_heard("p0") is None and not flaky_plane.has_peer("p0")
        assert host.stats.peers_banned == 0 and not host.banned
        flaky_plane.down = False
        engine.run(until=900.0)  # inside the first round's budget
        assert peer.stats.retransmissions >= 1
        assert peer.stats.rounds_acked == 1
        assert host.is_live("p0") and peer.neighbors == ()
        assert host.stats.plane_failures == 1

    def test_a_shard_that_fails_the_join_leaves_no_trace_and_the_retransmit_registers_once(
        self, plane
    ):
        """The same rule on a real plane: 2 inline shards, and lmA's home
        shard fails its first ``join_paths`` typed."""
        engine, network, _server, _host, _senders = plane
        shards = [ManagementServer(neighbor_set_size=3, maintain_cache=False) for _ in range(2)]
        home = ConsistentHashRing(2).node_for("lmA")
        shards[home] = ChaosShardBackend(shards[home], FaultPlan([Fault(1, "error", "join_paths")]))
        sharded = ShardedManagementServer(2, neighbor_set_size=3, shard_factory=iter(shards).__next__)
        sharded.register_landmark("lmA", "lmA")
        host = ProtocolManagementHost(HOST, engine, network, sharded, ttl_ms=TTL_MS)
        network.detach_host(HOST)
        network.attach_host(HOST, 0, host)
        network.detach_host("p0")
        peer = BeaconingPeer("p0", engine, network, HOST, path_for("p0"), seed=1)
        network.attach_host("p0", 5, peer)
        peer.start()
        engine.run(until=50.0)  # the first beacon's join failed on the home shard
        assert shards[home].plan.fired == [(2, "error", "join_paths")]
        assert host.stats.plane_failures == 1
        assert host.stats.acks_sent == 0 and peer.stats.acks_received == 0
        assert host.stats.peers_banned == 0 and not host.banned
        assert host.last_heard("p0") is None and sharded.peers() == []
        assert [shard.peers() for shard in shards] == [[], []]
        engine.run(until=900.0)  # inside the first round's budget
        assert peer.stats.retransmissions >= 1 and peer.stats.rounds_acked == 1
        assert host.is_live("p0") and host.stats.plane_failures == 1
        assert sharded.stats.registrations == 1 and sharded.peers() == ["p0"]
        assert [shard.peers() for shard in shards] == [["p0"] if i == home else [] for i in range(2)]

    def test_failed_expiry_keeps_the_registration_for_the_next_sweep(self, flaky):
        engine, network, flaky_plane, host, _senders = flaky
        host.start()
        beacon_from(network, "p0", 0)
        engine.run(until=20.0)
        flaky_plane.down = True
        engine.run(until=TTL_MS * 3)  # silent and stale, but every sweep fails
        assert host.stats.plane_failures >= 1
        assert host.stats.peers_expired == 0
        assert host.last_heard("p0") is not None and flaky_plane.has_peer("p0")
        flaky_plane.down = False
        engine.run(until=TTL_MS * 4)
        assert host.stats.peers_expired == 1
        assert host.last_heard("p0") is None and not flaky_plane.has_peer("p0")

    def test_failed_ban_keeps_the_registration_and_the_next_sweep_evicts_it(self, flaky):
        engine, network, flaky_plane, host, _senders = flaky
        beacon_from(network, "p1", 0)
        engine.run()
        flaky_plane.down = True
        network.send("p1", HOST, "garbage")
        engine.run()  # no exception reaches the event loop
        assert "p1" in host.banned and host.stats.plane_failures == 1
        assert flaky_plane.has_peer("p1") and host.last_heard("p1") is not None
        flaky_plane.down = False
        assert host.expire_stale() == []  # an eviction, not an expiry
        assert not flaky_plane.has_peer("p1") and host.last_heard("p1") is None
        assert host.stats.peers_expired == 0


class TestValidation:
    def test_ttl_must_be_positive(self, plane):
        engine, network, server, _host, _senders = plane
        with pytest.raises(ValueError):
            ProtocolManagementHost(HOST, engine, network, server, ttl_ms=0.0)

    def test_sweep_interval_must_be_positive(self, plane):
        engine, network, server, _host, _senders = plane
        with pytest.raises(ValueError):
            ProtocolManagementHost(
                HOST, engine, network, server, ttl_ms=100.0, sweep_interval_ms=-1.0
            )
