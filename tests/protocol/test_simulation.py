"""End-to-end protocol runs: the oracle, the acceptance bounds, the scripts.

These are the PR's acceptance tests: with a perfect wire the protocol's
view of the plane is byte-identical to driving the plane directly, and
with a scripted-lossy wire every live peer is still discovered within the
``k × beacon_interval + TTL`` bound while duplicates never double-register.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import ManagementServer, NewcomerClient
from repro.core.newcomer import PROBE_COST_MS, landmark_descriptors
from repro.core.path import RouterPath
from repro.exceptions import ConfigurationError
from repro.workloads import synthetic_paths
from repro.protocol import BeaconConfig, BeaconingPeer, ProtocolManagementHost, ProtocolSimulation
from repro.routing.traceroute import TracerouteConfig, TracerouteSimulator
from repro.sim.engine import Engine
from repro.sim.network import SimulatedNetwork
from repro.topology.graph import Graph
from repro.workloads.arrivals import flash_crowd_arrivals
from repro.workloads.scenarios import small_scenario

from ..chaos import Fault, wire_plan


def reference_server(paths, neighbor_set_size=5):
    """The oracle: the same plane driven directly, no wire in between."""
    server = ManagementServer(neighbor_set_size=neighbor_set_size)
    for path in paths:
        if path.landmark_id not in server.landmarks():
            server.register_landmark(path.landmark_id, path.landmark_router)
    for path in paths:
        server.register_peer(path)
    return server


class TestZeroLossOracle:
    def test_protocol_converges_to_the_directly_driven_plane(self):
        paths = synthetic_paths(24, seed=3)
        sim = ProtocolSimulation(paths, seed=3)
        metrics = sim.run(3000.0)
        assert metrics.discovered_peers == metrics.live_peers == 24
        assert metrics.dropped_messages == 0
        assert metrics.retransmissions == 0
        assert sim.network.accounting_consistent()
        reference = reference_server(paths)
        for path in paths:
            assert sim.server.closest_peers(path.peer_id) == reference.closest_peers(
                path.peer_id
            ), path.peer_id

    def test_same_seed_same_report(self):
        def run_once():
            sim = ProtocolSimulation(
                synthetic_paths(12, seed=3),
                loss_probability=0.3,
                duplicate_probability=0.05,
                seed=11,
            )
            return sim.run(2000.0).as_dict()

        assert run_once() == run_once()

    def test_same_seed_same_delivery_log_to_the_byte(self):
        """The whole trace, not its summary: every wire copy's times, ends and fate.

        The digest was computed on the commit before the tuple-keyed event
        heap; an engine or wire change that reorders two same-instant
        events, resamples a delay or moves a drop shows up here first.
        """

        def run_once():
            paths = synthetic_paths(200, seed=3)
            sim = ProtocolSimulation(
                paths,
                beacon_config=BeaconConfig(beacon_interval_ms=500.0),
                loss_probability=0.1,
                duplicate_probability=0.02,
                reorder_probability=0.02,
                jitter_ms=2.0,
                seed=12,
            )
            for i in range(0, 200, 20):
                peer, donor = paths[i].peer_id, paths[(i + 7) % 200]
                adopted = RouterPath.from_routers(peer, donor.landmark_id, donor.routers)
                sim.schedule_path_update(peer, 700.0 + i, adopted)
            for i in range(5, 200, 25):
                sim.schedule_stop(paths[i].peer_id, 900.0 + i)
            metrics = sim.run(3000.0)
            digest = hashlib.sha256()
            for record in sim.network.deliveries:
                line = (
                    record.sent_at,
                    record.delivered_at,
                    record.sender,
                    record.recipient,
                    type(record.message).__name__,
                    record.message.seq,
                    record.dropped,
                    record.duplicate,
                )
                digest.update(repr(line).encode())
            counts = (
                len(sim.network.deliveries),
                sim.engine.processed_events,
                metrics.dropped_messages,
                metrics.duplicated_messages,
                metrics.reordered_messages,
            )
            sim.close()
            return digest.hexdigest(), counts

        first = run_once()
        assert first == run_once()
        assert first == (
            "bea22863ec86acf7354736bf2f39c46cc6f35f5961532d44e314034a512cc139",
            (2741, 3820, 292, 42, 44),
        )

    def test_same_seed_same_fault_plan_delivery_log_to_the_byte(self):
        """The twin of the log above, driven by a scripted plan instead of the knobs.

        A delayed beacon carries ``extra_delay_ms`` into its latency, a
        duplicated ack schedules its copy before the original, a reordered
        beacon is held for the next delivery and a partition drops a window
        of acks.  The digest was computed on the commit before the single
        host table; a send that adds the extra delay elsewhere or schedules
        the two copies in the other order shows up here.
        """

        def run_once():
            paths = synthetic_paths(200, seed=3)
            plan = wire_plan(
                Fault(at_op=30, kind="delay", op_name="beacon", delay_s=0.004, persistent=True),
                Fault(at_op=75, kind="duplicate", op_name="beaconack", persistent=True),
                *(Fault(at_op=n, kind="reorder", op_name="beacon") for n in (120, 260, 520, 900)),
                Fault(at_op=400, kind="partition", op_name="beaconack", window_ops=150),
            )
            sim = ProtocolSimulation(
                paths,
                beacon_config=BeaconConfig(beacon_interval_ms=500.0),
                loss_probability=0.05,
                jitter_ms=2.0,
                fault_plan=plan,
                seed=12,
            )
            metrics = sim.run(3000.0)
            digest = hashlib.sha256()
            for record in sim.network.deliveries:
                line = (
                    record.sent_at,
                    record.delivered_at,
                    record.sender,
                    record.recipient,
                    type(record.message).__name__,
                    record.message.seq,
                    record.dropped,
                    record.duplicate,
                )
                digest.update(repr(line).encode())
            counts = (
                len(sim.network.deliveries),
                sim.engine.processed_events,
                metrics.dropped_messages,
                metrics.duplicated_messages,
                metrics.reordered_messages,
                len(plan.fired),
            )
            sim.close()
            return digest.hexdigest(), counts

        first = run_once()
        assert first == run_once()
        assert first == (
            "c348804532e4ab1e281b91f3edcea05bc9aaca421c4ba80741a943f27835d52a",
            (3776, 4917, 188, 1132, 4, 2669),
        )


class TestLossyAcceptance:
    def test_every_live_peer_is_discovered_within_the_bound(self):
        interval = 250.0
        config = BeaconConfig(
            beacon_interval_ms=interval,
            ack_timeout_ms=40.0,
            max_backoff_ms=160.0,
        )
        sim = ProtocolSimulation(
            synthetic_paths(20, seed=3),
            beacon_config=config,
            loss_probability=0.3,
            duplicate_probability=0.05,
            reorder_probability=0.05,
            seed=7,
        )
        metrics = sim.run(4000.0)
        assert metrics.discovered_peers == 20
        assert metrics.live_peers == 20
        # Acceptance bound: first beacon -> first ack within
        # k x beacon_interval + TTL for every peer (k = 4 retained rounds).
        bound = 4 * interval + sim.ttl_ms
        for peer in sim.peers.values():
            assert peer.stats.discovery_latency_ms is not None
            assert peer.stats.discovery_latency_ms <= bound
        assert metrics.retransmissions > 0
        assert metrics.host_counters["duplicate_beacons"] > 0
        assert sim.network.accounting_consistent()

    def test_duplicated_beacons_never_double_register(self):
        sim = ProtocolSimulation(
            synthetic_paths(10, seed=3), duplicate_probability=1.0, seed=5
        )
        metrics = sim.run(1500.0)
        assert metrics.discovered_peers == 10
        assert metrics.duplicated_messages > 0
        # Every wire copy past the first of a (peer, seq) is deduped at the
        # host: exactly one registration per peer, ever.
        assert metrics.host_counters["beacons_registered"] == 10
        assert metrics.host_counters["duplicate_beacons"] > 0
        assert sim.server.peer_count == 10

    def test_scripted_partition_heals_and_everyone_is_discovered(self):
        plan = wire_plan(
            Fault(at_op=4, kind="partition", window_ops=15, op_name="beacon")
        )
        sim = ProtocolSimulation(
            synthetic_paths(12, seed=3), fault_plan=plan, seed=9
        )
        metrics = sim.run(3000.0)
        assert metrics.discovered_peers == 12
        assert metrics.dropped_messages >= 8
        assert metrics.retransmissions > 0
        assert plan.fired  # the partition actually bit


class TestScripts:
    def test_scheduled_stop_expires_the_peer(self):
        paths = synthetic_paths(6, seed=3)
        sim = ProtocolSimulation(paths, seed=2)
        sim.schedule_stop(paths[0].peer_id, at_ms=1500.0)
        metrics = sim.run(3000.0 + 3 * sim.ttl_ms)
        assert metrics.live_peers == 5
        assert metrics.host_counters["peers_expired"] == 1
        assert not sim.server.has_peer(paths[0].peer_id)

    def test_mobility_handover_updates_the_plane_and_the_wire(self):
        paths = synthetic_paths(8, seed=3)
        mover, donor = paths[0], paths[4]
        new_path = RouterPath.from_routers(
            mover.peer_id, donor.landmark_id, donor.routers, rtt_ms=donor.rtt_ms
        )
        sim = ProtocolSimulation(paths, seed=4)
        sim.schedule_path_update(mover.peer_id, at_ms=2000.0, path=new_path)
        metrics = sim.run(4000.0)
        peer = sim.peers[mover.peer_id]
        assert peer.stats.path_updates == 1
        assert len(peer.stats.update_latencies_ms) == 1  # staleness sample
        assert metrics.staleness is not None
        assert sim.network.router_of(mover.peer_id) == new_path.access_router
        assert sim.server.peer_path(mover.peer_id) == new_path

    def test_validation(self):
        paths = synthetic_paths(3, seed=3)
        with pytest.raises(ValueError):
            ProtocolSimulation([])
        with pytest.raises(ValueError):
            ProtocolSimulation(paths, start_times_ms=[0.0])
        with pytest.raises(ValueError):
            ProtocolSimulation(paths).run(0.0)

    def test_close_releases_the_plane_only_if_the_simulation_built_it(self, monkeypatch):
        closed = []
        monkeypatch.setattr(ManagementServer, "close", lambda plane: closed.append(plane))
        own = ProtocolSimulation(synthetic_paths(3, seed=3))
        own.close()
        assert closed == [own.server]
        ProtocolSimulation.over_scenario(small_scenario(seed=19, peer_count=2), {}).close()
        assert closed == [own.server]  # a scenario's plane is the scenario's to close


class TestWireJoinOracle:
    """A join on the wire hands the newcomer what the function-call join returns."""

    def test_zero_loss_wire_join_equals_direct_join(self):
        wired, twin = small_scenario(seed=19, peer_count=40), small_scenario(seed=19, peer_count=40)
        # One arrival per second: every join finishes before the next begins,
        # so the wire registers in the order the twin joins.
        arrivals = {peer_id: 1000.0 * index for index, peer_id in enumerate(wired.peer_ids)}
        sim = ProtocolSimulation.over_scenario(wired, arrivals_ms=arrivals, seed=19)
        metrics = sim.run(1000.0 * len(arrivals) + 1000.0)
        assert metrics.discovered_peers == metrics.live_peers == 40
        assert metrics.dropped_messages == metrics.retransmissions == 0
        nonempty = 0
        for peer_id in arrivals:
            direct = twin.join_one(peer_id)
            peer = sim.peers[peer_id]
            assert peer.path == direct.path, peer_id
            assert list(peer.neighbors) == direct.neighbors, peer_id
            nonempty += bool(direct.neighbors)
        assert nonempty == 39  # everyone but the first peer was handed neighbours
        for peer_id in arrivals:
            assert wired.server.closest_peers(peer_id) == twin.server.closest_peers(peer_id)

    def test_arrival_of_a_peer_the_scenario_does_not_have_is_rejected_up_front(self):
        with pytest.raises(ConfigurationError):
            ProtocolSimulation.over_scenario(small_scenario(seed=19, peer_count=2), {"nobody": 0.0})

    @pytest.fixture()
    def line_world(self):
        """The seed event-sim tests' map: ``a1 - a2 - core - lmA`` plus ``core - b1``."""
        graph = Graph()
        graph.add_edge("a1", "a2", latency=1.0)
        graph.add_edge("a2", "core", latency=1.0)
        graph.add_edge("core", "lmA", latency=1.0)
        graph.add_edge("core", "b1", latency=1.0)
        engine = Engine()
        network = SimulatedNetwork(engine, graph, processing_delay_ms=0.1, seed=1)
        server = ManagementServer(neighbor_set_size=2)
        server.register_landmark("lmA", "lmA")
        host = ProtocolManagementHost("server", engine, network, server, ttl_ms=3000.0)
        network.attach_host("server", "lmA", host)
        traceroute = TracerouteSimulator(graph=graph, config=TracerouteConfig(rtt_jitter_ms=0.0))

        def arrive(peer_id, router):
            client = NewcomerClient(peer_id, router, traceroute)
            return BeaconingPeer.arrive(
                client, landmark_descriptors(server), network, "server"
            )

        return engine, network, server, arrive

    def test_setup_delay_is_the_probe_delay_plus_one_round_trip_on_the_wire(self, line_world):
        engine, network, server, arrive = line_world
        engine.run(until=40.0)  # arrive mid-run: delays are relative to arrival
        peer = arrive("p1", "a1")
        engine.run(until=200.0)
        assert server.has_peer("p1") and peer.neighbors == ()
        assert peer.path.routers == ("a1", "a2", "core", "lmA")
        probe_delay_ms = PROBE_COST_MS * 3  # one landmark: no pings, three TTLs probed
        assert peer.stats.first_beacon_at_ms - peer.stats.arrived_at_ms == probe_delay_ms
        # Beacon there, ack back: two one-way latencies, two processing delays.
        one_way = network.one_way_latency("p1", "server")
        assert one_way == 3.0
        assert peer.stats.setup_delay_ms == pytest.approx(probe_delay_ms + 2 * one_way + 2 * 0.1)

    def test_probe_phase_is_parallel_pings_then_one_traceroute(self, line_world):
        engine, _network, server, arrive = line_world
        server.register_landmark("lmB", "b1")
        server.set_landmark_distance("lmA", "lmB", 2)
        peer = arrive("p1", "a1")
        engine.run(until=200.0)
        # Both landmarks are 3 ms away: one 6 ms echo wait, not two; then 3
        # hops probed at 20 ms each.
        assert peer.stats.first_beacon_at_ms - peer.stats.arrived_at_ms == 6.0 + 3 * PROBE_COST_MS
        assert peer.neighbors == ()

    def test_far_peer_waits_longer_than_near(self, line_world):
        """Probe time dominates; farther peers take longer to finish."""
        engine, _network, _server, arrive = line_world
        near = arrive("near", "a2")  # 2 hops to lmA
        far = arrive("far", "a1")  # 3 hops to lmA
        engine.run(until=100.0)
        assert near.stats.setup_delay_ms < far.stats.setup_delay_ms
        assert [peer for peer, _ in far.neighbors] == ["near"]


class TestLossyJoins:
    @pytest.mark.parametrize("loss", [0.1, 0.3])
    def test_flash_crowd_newcomers_all_end_up_holding_a_list(self, loss):
        scenario = small_scenario(seed=29, peer_count=50)
        arrivals = {
            arrival.peer_id: arrival.time_s * 1000.0
            for arrival in flash_crowd_arrivals(scenario.peer_ids, duration_s=10.0, seed=29)
        }
        sim = ProtocolSimulation.over_scenario(
            scenario,
            arrivals_ms=arrivals,
            loss_probability=loss,
            duplicate_probability=0.05,
            reorder_probability=0.05,
            seed=29,
        )
        bound = 4 * sim.config.beacon_interval_ms + sim.ttl_ms
        metrics = sim.run(10_000.0 + bound)
        assert len(sim.peers) == metrics.discovered_peers == 50
        assert metrics.retransmissions > 0 and metrics.dropped_messages > 0
        for peer in sim.peers.values():
            assert peer.neighbors is not None
            assert peer.stats.setup_delay_ms <= bound
        # Duplicates and retransmitted joins never registered anyone twice.
        assert metrics.host_counters["beacons_registered"] == 50 + metrics.host_counters["peers_expired"]
        assert sim.network.accounting_consistent()

    def test_dropped_join_ack_is_healed_by_the_retransmission(self):
        scenario = small_scenario(seed=29, peer_count=2)
        resident, newcomer_id = scenario.peer_ids
        scenario.join_one(resident)  # in process: the only wire traffic is the newcomer's
        plan = wire_plan(Fault(at_op=1, kind="drop", op_name="beaconack"))
        sim = ProtocolSimulation.over_scenario(
            scenario, arrivals_ms={newcomer_id: 0.0}, fault_plan=plan, seed=29
        )
        metrics = sim.run(900.0)
        assert plan.fired == [(2, "drop", "beaconack")]  # op 1 was the join beacon itself
        newcomer = sim.peers[newcomer_id]
        assert newcomer.stats.retransmissions == 1
        assert metrics.host_counters["beacons_registered"] == 1
        assert metrics.host_counters["duplicate_beacons"] == 1
        assert metrics.host_counters["lists_sent"] == 2
        # The re-ack read the list back from the plane: same answer, late.
        assert list(newcomer.neighbors) == scenario.server.closest_peers(newcomer_id)
        assert [peer for peer, _ in newcomer.neighbors] == [resident]
        assert newcomer.stats.discovery_latency_ms > sim.config.ack_timeout_ms
