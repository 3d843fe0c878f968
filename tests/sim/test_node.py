"""Tests for the event-driven protocol endpoints (ServerNode / PeerNode)."""

from __future__ import annotations

import pytest

from repro.core.management_server import ManagementServer
from repro.core.protocol import JoinRequest, LeaveNotice
from repro.exceptions import ProtocolError
from repro.routing.route_table import RouteTable
from repro.routing.traceroute import TracerouteSimulator
from repro.sim.engine import Engine
from repro.sim.network import SimulatedNetwork
from repro.sim.node import PeerNode, ServerNode
from repro.topology.graph import Graph


@pytest.fixture()
def world():
    """A small topology with one landmark, a server host and three peers."""
    graph = Graph()
    graph.add_edge("a1", "a2", latency=1.0)
    graph.add_edge("a2", "core", latency=1.0)
    graph.add_edge("core", "lmA", latency=1.0)
    graph.add_edge("core", "b1", latency=1.0)

    engine = Engine()
    network = SimulatedNetwork(engine, graph, processing_delay_ms=0.1, seed=1)
    server = ManagementServer(neighbor_set_size=2)
    server.register_landmark("lmA", "lmA")
    server_node = ServerNode("server", server, network)
    network.attach_host("server", "lmA", server_node)
    traceroute = TracerouteSimulator(graph=graph, route_table=RouteTable(graph=graph))

    def make_peer(peer_id, router):
        node = PeerNode(
            host_id=peer_id,
            access_router=router,
            server_host="server",
            engine=engine,
            network=network,
            traceroute=traceroute,
            per_hop_probe_ms=5.0,
        )
        network.attach_host(peer_id, router, node)
        return node

    return engine, network, server, server_node, make_peer


class TestJoinFlow:
    def test_single_peer_join_completes(self, world):
        engine, _, server, _, make_peer = world
        peer = make_peer("p1", "a1")
        record = peer.start_join()
        engine.run()
        assert record.completed
        assert record.setup_delay > 0
        assert server.has_peer("p1")
        assert peer.path is not None
        assert peer.path.routers[0] == "a1"
        assert peer.path.routers[-1] == "lmA"

    def test_later_peer_receives_neighbors(self, world):
        engine, _, _, _, make_peer = world
        first = make_peer("p1", "a1")
        second = make_peer("p2", "a2")
        first.start_join()
        engine.run()
        second.start_join()
        engine.run()
        assert second.record.completed
        assert [n.peer_id for n in second.record.neighbors] == ["p1"]

    def test_setup_delay_ordering(self, world):
        """Probe time dominates; farther peers take longer to finish."""
        engine, _, _, _, make_peer = world
        near = make_peer("near", "a2")   # 2 hops to lmA
        far = make_peer("far", "a1")     # 3 hops to lmA
        near.start_join()
        far.start_join()
        engine.run()
        assert near.record.setup_delay < far.record.setup_delay

    def test_probe_phase_is_parallel_pings_then_one_traceroute(self, world):
        engine, _, server, _, make_peer = world
        server.register_landmark("lmB", "b1")
        server.set_landmark_distance("lmA", "lmB", 2)
        peer = make_peer("p1", "a1")
        record = peer.start_join()
        engine.run()
        probing = record.probe_finished_at - record.landmark_list_received_at
        # Both landmarks are 3 ms away: one 6 ms echo wait (plus at most the
        # tool's 0.5 ms jitter), not two; then 3 hops probed at 5 ms each.
        assert 6.0 + 15.0 <= probing <= 6.5 + 15.0

    def test_leave_unregisters_peer(self, world):
        engine, network, server, _, make_peer = world
        peer = make_peer("p1", "b1")
        peer.start_join()
        engine.run()
        assert server.has_peer("p1")
        peer.leave()
        engine.run()
        assert not server.has_peer("p1")
        assert not network.is_attached("p1")

    def test_server_counts_messages(self, world):
        engine, _, _, server_node, make_peer = world
        peer = make_peer("p1", "a1")
        peer.start_join()
        engine.run()
        # JoinRequest + PathReport.
        assert server_node.handled_messages == 2


class TestProtocolErrors:
    def test_server_rejects_unknown_message(self, world):
        _, _, _, server_node, _ = world
        with pytest.raises(ProtocolError):
            server_node.handle_message("someone", object())

    def test_peer_rejects_message_before_join(self, world):
        _, _, _, _, make_peer = world
        peer = make_peer("p1", "a1")
        with pytest.raises(ProtocolError):
            peer.handle_message("server", JoinRequest(peer_id="p1"))

    def test_server_ignores_leave_for_unknown_peer(self, world):
        _, _, server, server_node, _ = world
        server_node.handle_message("x", LeaveNotice(peer_id="never-joined"))
        assert server.peer_count == 0
