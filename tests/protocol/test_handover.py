"""Mobility handovers on the wire: ``ProtocolSimulation.schedule_path_update``.

A handover is a peer adopting a new router path: it re-attaches at its new
access router, opens a beacon round carrying the new path at once, and the
management host re-registers it.  These tests pin what that does to the
plane — single server or sharded, whose shards play the paper's
super-peers — and to the peer's own counters, plus the departure side of
list maintenance: a peer that goes silent is expired out of every list.
"""

from __future__ import annotations

import pytest

from repro.core import ManagementServer, ShardedManagementServer
from repro.core.path import RouterPath
from repro.protocol import ProtocolSimulation
from repro.workloads import synthetic_paths

# Two access populations behind one core, each under its own landmark; on a
# two-shard plane the consistent-hash ring puts lmA and lmC on different shards.
HOME, AWAY = "lmA", "lmC"


def populations(count=6):
    return synthetic_paths(count, seed=3, landmark=HOME, prefix="a") + synthetic_paths(
        count, seed=5, landmark=AWAY, prefix="c"
    )


def make_plane(shard_count, k=3):
    if shard_count is None:
        plane = ManagementServer(neighbor_set_size=k)
    else:
        plane = ShardedManagementServer(shard_count, neighbor_set_size=k)
    plane.register_landmark(HOME, HOME)
    plane.register_landmark(AWAY, AWAY)
    # Both landmarks hang off the shared core router: two hops apart.
    plane.set_landmark_distance(HOME, AWAY, 2.0)
    return plane


def adopt(peer_path, donor):
    """``peer_path``'s peer, attached where ``donor`` is."""
    return RouterPath.from_routers(peer_path.peer_id, donor.landmark_id, donor.routers)


def reference(paths, k=3):
    """The oracle: the final paths registered directly, no wire in between."""
    plane = make_plane(None, k=k)
    for peer_path in paths:
        plane.register_peer(peer_path)
    return plane


class TestHandoverOnThePlane:
    @pytest.mark.parametrize("shard_count", [None, 1, 2, 4])
    def test_handover_re_registers_the_new_path(self, shard_count):
        paths = populations()
        mover, donor = paths[0], paths[-1]
        moved = adopt(mover, donor)
        sim = ProtocolSimulation(paths, server=make_plane(shard_count), seed=4)
        sim.schedule_path_update(mover.peer_id, at_ms=2000.0, path=moved)
        sim.run(4000.0)
        assert sim.server.peer_path(mover.peer_id) == moved
        assert sim.server.peer_landmark(mover.peer_id) == AWAY
        assert sim.network.router_of(mover.peer_id) == moved.access_router
        assert sim.server.peer_count == len(paths)

    def test_handover_across_landmarks_moves_the_peer_to_the_new_home_shard(self):
        paths = populations()
        mover = paths[0]
        plane = make_plane(2)
        assert plane.shard_of(HOME) != plane.shard_of(AWAY)
        sim = ProtocolSimulation(paths, server=plane, seed=4)
        sim.schedule_path_update(mover.peer_id, at_ms=2000.0, path=adopt(mover, paths[-1]))
        sim.run(4000.0)
        home, away = plane.shards[plane.shard_of(HOME)], plane.shards[plane.shard_of(AWAY)]
        assert plane.peer_shard(mover.peer_id) == plane.shard_of(AWAY)
        assert away.has_peer(mover.peer_id)
        assert not home.has_peer(mover.peer_id)

    @pytest.mark.parametrize("shard_count", [None, 2])
    def test_lists_after_handovers_equal_the_directly_driven_plane(self, shard_count):
        paths = populations()
        final = list(paths)
        sim = ProtocolSimulation(paths, server=make_plane(shard_count), seed=6)
        for index in (0, 2, 7):
            donor = paths[(index + 6) % len(paths)]
            final[index] = adopt(paths[index], donor)
            sim.schedule_path_update(paths[index].peer_id, 1500.0 + index, final[index])
        metrics = sim.run(5000.0)
        assert metrics.live_peers == len(paths)
        oracle = reference(final)
        for peer_path in final:
            assert sim.server.peer_path(peer_path.peer_id) == peer_path
            assert sim.server.closest_peers(peer_path.peer_id) == oracle.closest_peers(
                peer_path.peer_id
            ), peer_path.peer_id

    def test_the_plane_serves_the_old_path_until_the_handover_beacon_lands(self):
        paths = populations()
        mover = paths[1]
        moved = adopt(mover, paths[-2])
        sim = ProtocolSimulation(paths, server=make_plane(2), seed=4)
        sim.schedule_path_update(mover.peer_id, at_ms=2000.0, path=moved)
        sim.run(2000.5)  # the handover fired; its beacon is still on the wire
        assert sim.peers[mover.peer_id].path == moved
        assert sim.server.peer_path(mover.peer_id) == mover
        sim.engine.run(until=3000.0)
        assert sim.server.peer_path(mover.peer_id) == moved


class TestHandoverOnThePeer:
    def test_every_handover_is_one_staleness_sample(self):
        paths = populations()
        mover = paths[0]
        first, second = adopt(mover, paths[-1]), adopt(mover, paths[3])
        sim = ProtocolSimulation(paths, seed=4, server=make_plane(None))
        sim.schedule_path_update(mover.peer_id, at_ms=1500.0, path=first)
        sim.schedule_path_update(mover.peer_id, at_ms=3000.0, path=second)
        metrics = sim.run(5000.0)
        peer = sim.peers[mover.peer_id]
        assert peer.stats.path_updates == 2
        assert len(peer.stats.update_latencies_ms) == 2
        assert metrics.staleness is not None and metrics.staleness.count == 2
        assert sim.server.peer_path(mover.peer_id) == second

    def test_staleness_on_a_perfect_wire_is_one_round_trip(self):
        paths = populations()
        mover = paths[0]
        moved = adopt(mover, paths[-1])
        sim = ProtocolSimulation(paths, server=make_plane(None), seed=4)
        sim.schedule_path_update(mover.peer_id, at_ms=2000.0, path=moved)
        sim.run(4000.0)
        (staleness,) = sim.peers[mover.peer_id].stats.update_latencies_ms
        one_way = sim.network.one_way_latency(mover.peer_id, "mgmt-host")
        assert one_way > 0
        assert staleness >= 2 * one_way
        assert staleness < sim.config.ack_timeout_ms

    def test_a_path_recorded_for_another_peer_is_refused(self):
        paths = populations()
        sim = ProtocolSimulation(paths, server=make_plane(None), seed=4)
        with pytest.raises(ValueError):
            sim.peers[paths[0].peer_id].update_path(paths[1])
        assert sim.peers[paths[0].peer_id].stats.path_updates == 0

    def test_a_stopped_peer_is_not_reattached_by_a_handover(self):
        paths = populations()
        mover = paths[0]
        moved = adopt(mover, paths[-1])
        sim = ProtocolSimulation(paths, server=make_plane(None), seed=4)
        sim.schedule_stop(mover.peer_id, at_ms=1500.0)
        sim.schedule_path_update(mover.peer_id, at_ms=2000.0, path=moved)
        sim.run(2500.0)
        peer = sim.peers[mover.peer_id]
        assert peer.path == moved and peer.stats.path_updates == 1
        assert not sim.network.is_attached(mover.peer_id)
        # No beacon carried the new path: the plane still holds the old one.
        assert sim.server.peer_path(mover.peer_id) == mover
        assert peer.stats.update_latencies_ms == []

    def test_same_seed_same_handover_run(self):
        def run_once():
            paths = populations()
            sim = ProtocolSimulation(
                paths, server=make_plane(2), loss_probability=0.2, seed=8
            )
            for index in (0, 7):
                sim.schedule_path_update(
                    paths[index].peer_id, 1800.0, adopt(paths[index], paths[(index + 6) % 12])
                )
            report = sim.run(4000.0).as_dict()
            lists = {peer: sim.server.closest_peers(peer) for peer in sim.server.peers()}
            return report, lists

        assert run_once() == run_once()

    def test_handovers_land_on_a_lossy_wire(self):
        paths = populations()
        sim = ProtocolSimulation(paths, server=make_plane(2), loss_probability=0.3, seed=9)
        moved = {}
        for index in (1, 4, 8):
            moved[paths[index].peer_id] = adopt(paths[index], paths[(index + 6) % 12])
            sim.schedule_path_update(paths[index].peer_id, 1500.0, moved[paths[index].peer_id])
        sim.run(6000.0)
        for peer_id, new_path in moved.items():
            assert sim.server.peer_path(peer_id) == new_path
            assert len(sim.peers[peer_id].stats.update_latencies_ms) == 1


class TestSilentDepartures:
    @pytest.mark.parametrize("shard_count", [None, 2])
    def test_an_expired_peer_leaves_every_neighbour_list(self, shard_count):
        paths = populations()
        gone = paths[2].peer_id
        sim = ProtocolSimulation(paths, server=make_plane(shard_count), seed=2)
        sim.schedule_stop(gone, at_ms=1500.0)
        metrics = sim.run(3000.0 + 3 * sim.ttl_ms)
        assert metrics.host_counters["peers_expired"] == 1
        assert not sim.server.has_peer(gone)
        assert sim.server._referenced_by.get(gone, set()) == set()
        for peer in sim.server.peers():
            assert gone not in [other for other, _ in sim.server.closest_peers(peer)]
        oracle = reference([peer_path for peer_path in paths if peer_path.peer_id != gone])
        for peer in sim.server.peers():
            assert sim.server.closest_peers(peer) == oracle.closest_peers(peer), peer
