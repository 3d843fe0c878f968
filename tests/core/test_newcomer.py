"""Tests for the client-side join logic (NewcomerClient)."""

from __future__ import annotations

import pytest

from repro.core.management_server import ManagementServer
from repro.core.newcomer import (
    SELECT_CLOSEST_RTT,
    SELECT_FEWEST_HOPS,
    SELECT_FIRST,
    JoinTranscript,
    LandmarkDescriptor,
    NewcomerClient,
)
from repro.exceptions import LandmarkError
from repro.routing.route_table import RouteTable
from repro.routing.traceroute import TracerouteConfig, TracerouteSimulator
from repro.topology.graph import Graph
from repro.workloads.scenarios import small_scenario

from ..conftest import make_small_scenario


@pytest.fixture()
def topology() -> Graph:
    """Two access branches joined by a core link; landmarks at both ends.

    Structure (all latencies 1 ms except the long core link)::

        a1 - a2 - coreA ===== coreB - b2 - b1
                   |                   |
                  lmA                 lmB
    """
    graph = Graph()
    graph.add_edge("a1", "a2", latency=1.0)
    graph.add_edge("a2", "coreA", latency=1.0)
    graph.add_edge("coreA", "coreB", latency=10.0)
    graph.add_edge("coreB", "b2", latency=1.0)
    graph.add_edge("b2", "b1", latency=1.0)
    graph.add_edge("coreA", "lmA", latency=1.0)
    graph.add_edge("coreB", "lmB", latency=1.0)
    return graph


@pytest.fixture()
def traceroute(topology) -> TracerouteSimulator:
    return TracerouteSimulator(graph=topology, route_table=RouteTable(graph=topology))


@pytest.fixture()
def server() -> ManagementServer:
    server = ManagementServer(neighbor_set_size=3)
    server.register_landmark("lmA", "lmA")
    server.register_landmark("lmB", "lmB")
    server.set_landmark_distance("lmA", "lmB", 2)
    return server


class TestLandmarkSelection:
    def test_closest_rtt_picks_nearby_landmark(self, traceroute):
        client = NewcomerClient("p1", "a1", traceroute, landmark_selection=SELECT_CLOSEST_RTT)
        descriptors = [LandmarkDescriptor("lmA", "lmA"), LandmarkDescriptor("lmB", "lmB")]
        chosen, measurements = client.select_landmark(descriptors)
        assert chosen.landmark_id == "lmA"
        assert measurements["lmA"] < measurements["lmB"]

    def test_fewest_hops_policy(self, traceroute):
        client = NewcomerClient("p1", "b1", traceroute, landmark_selection=SELECT_FEWEST_HOPS)
        descriptors = [LandmarkDescriptor("lmA", "lmA"), LandmarkDescriptor("lmB", "lmB")]
        chosen, _ = client.select_landmark(descriptors)
        assert chosen.landmark_id == "lmB"

    def test_first_policy_skips_probing(self, traceroute):
        client = NewcomerClient("p1", "b1", traceroute, landmark_selection=SELECT_FIRST)
        descriptors = [LandmarkDescriptor("lmA", "lmA"), LandmarkDescriptor("lmB", "lmB")]
        chosen, measurements = client.select_landmark(descriptors)
        assert chosen.landmark_id == "lmA"
        assert measurements == {}

    def test_single_landmark_shortcut(self, traceroute):
        client = NewcomerClient("p1", "a1", traceroute)
        chosen, measurements = client.select_landmark([LandmarkDescriptor("lmA", "lmA")])
        assert chosen.landmark_id == "lmA"
        assert measurements == {}

    def test_empty_landmark_list_raises(self, traceroute):
        client = NewcomerClient("p1", "a1", traceroute)
        with pytest.raises(LandmarkError):
            client.select_landmark([])

    def test_invalid_policy_rejected(self, traceroute):
        with pytest.raises(Exception):
            NewcomerClient("p1", "a1", traceroute, landmark_selection="nearest-by-magic")


class TestProbing:
    def test_probe_includes_access_router_and_landmark(self, traceroute):
        client = NewcomerClient("p1", "a1", traceroute)
        path, probed_hops = client.probe_landmark(LandmarkDescriptor("lmA", "lmA"))
        assert path.routers[0] == "a1"
        assert path.routers[-1] == "lmA"
        assert path.routers == ("a1", "a2", "coreA", "lmA")
        assert path.rtt_ms is not None and path.rtt_ms > 0
        assert probed_hops == 3  # a2, coreA, lmA: the access router is not probed

    def test_probe_from_router_adjacent_to_landmark(self, traceroute):
        client = NewcomerClient("p1", "coreA", traceroute)
        path, probed_hops = client.probe_landmark(LandmarkDescriptor("lmA", "lmA"))
        assert path.routers == ("coreA", "lmA")
        assert probed_hops == 1


class TestJoin:
    def test_join_registers_with_chosen_landmark(self, server, traceroute):
        client = NewcomerClient("p1", "a1", traceroute)
        result = client.join(server)
        assert result.landmark_id == "lmA"
        assert server.has_peer("p1")
        assert server.peer_landmark("p1") == "lmA"
        assert result.neighbors == []  # first peer has no neighbours yet

    def test_join_returns_nearby_peers(self, server, traceroute):
        NewcomerClient("p1", "a1", traceroute).join(server)
        NewcomerClient("p2", "a2", traceroute).join(server)
        result = NewcomerClient("p3", "a1", traceroute).join(server)
        ids = result.neighbor_ids()
        assert ids[0] == "p1"  # same access router -> closest
        assert "p2" in ids

    def test_join_transcript_times_are_consistent(self, server, traceroute):
        client = NewcomerClient("p1", "b1", traceroute, probe_cost_ms=10.0)
        result = client.join(server, start_time_ms=1000.0)
        transcript = result.transcript
        assert transcript.probe_started_at == 1000.0
        assert transcript.probe_finished_at > transcript.probe_started_at
        assert transcript.neighbors_received_at >= transcript.report_sent_at
        assert transcript.setup_delay > 0

    def test_peers_on_opposite_sides_choose_different_landmarks(self, server, traceroute):
        result_a = NewcomerClient("pa", "a1", traceroute).join(server)
        result_b = NewcomerClient("pb", "b1", traceroute).join(server)
        assert result_a.landmark_id == "lmA"
        assert result_b.landmark_id == "lmB"
        # Cross-landmark estimate still lets them see each other if needed.
        assert server.estimate_distance("pa", "pb") > 0


class TestTranscript:
    def test_durations(self):
        transcript = JoinTranscript(peer_id="p1", probe_started_at=100.0)
        transcript.probe_finished_at = 180.0
        transcript.report_sent_at = 180.0
        transcript.neighbors_received_at = 210.0
        assert transcript.probe_duration == pytest.approx(80.0)
        assert transcript.setup_delay == pytest.approx(110.0)

    def test_incomplete_transcript_returns_none(self):
        transcript = JoinTranscript(peer_id="p1")
        assert transcript.probe_duration is None
        assert transcript.setup_delay is None


class CountingTraceroute(TracerouteSimulator):
    """Counts what a join asks of the tool."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.traces = 0
        self.pings = 0

    def trace(self, source, destination):
        self.traces += 1
        return super().trace(source, destination)

    def ping(self, source, destination):
        self.pings += 1
        return super().ping(source, destination)


class TestProbeCost:
    """A join is ``len(landmarks)`` pings and exactly one traceroute."""

    @pytest.fixture()
    def counting(self, topology) -> CountingTraceroute:
        return CountingTraceroute(graph=topology, route_table=RouteTable(graph=topology))

    @pytest.mark.parametrize("policy", [SELECT_CLOSEST_RTT, SELECT_FEWEST_HOPS])
    def test_one_trace_and_a_ping_per_landmark(self, server, counting, policy):
        for index, router in enumerate(["a1", "b1", "a2"], start=1):
            NewcomerClient(f"p{index}", router, counting, landmark_selection=policy).join(server)
            assert (counting.traces, counting.pings) == (index, 2 * index)

    def test_first_policy_pings_nothing(self, server, counting):
        NewcomerClient("p1", "b1", counting, landmark_selection=SELECT_FIRST).join(server)
        assert (counting.traces, counting.pings) == (1, 0)

    def test_single_landmark_pings_nothing(self, counting):
        server = ManagementServer(neighbor_set_size=3)
        server.register_landmark("lmA", "lmA")
        NewcomerClient("p1", "b1", counting).join(server)
        assert (counting.traces, counting.pings) == (1, 0)

    def test_scenario_join_counts(self):
        scenario = small_scenario(seed=31, peer_count=25)
        scenario.traceroute = CountingTraceroute(
            graph=scenario.router_map.graph,
            route_table=scenario.traceroute.route_table,
            config=scenario.traceroute.config,
        )
        scenario.join_all()
        assert scenario.traceroute.traces == 25
        assert scenario.traceroute.pings == 25 * len(scenario.landmark_set)


def _all_trace_selection(traceroute, access_router, landmarks, policy):
    """The selection this client used to run: a full traceroute per landmark."""
    measured = {}
    for descriptor in landmarks:
        result = traceroute.trace(access_router, descriptor.router)
        if result.reached:
            measured[descriptor.landmark_id] = (
                result.destination_rtt_ms()
                if policy == SELECT_CLOSEST_RTT
                else float(result.hop_count)
            )
    return min(measured, key=lambda lid: (measured[lid], repr(lid)))


class TestSelectionOracle:
    @pytest.mark.parametrize("policy", [SELECT_CLOSEST_RTT, SELECT_FEWEST_HOPS])
    def test_ping_selection_picks_what_all_trace_selection_picked(self, policy):
        scenario = make_small_scenario(
            seed=17,
            peer_count=120,
            landmark_count=5,
            landmark_selection=policy,
            traceroute_config=TracerouteConfig(rtt_jitter_ms=0.0),
        )
        landmarks = scenario.bootstrap_landmarks
        reference = TracerouteSimulator(
            graph=scenario.router_map.graph, config=TracerouteConfig(rtt_jitter_ms=0.0)
        )
        changed_landmark = 0
        for peer_id, router in scenario.peer_routers.items():
            expected = _all_trace_selection(reference, router, landmarks, policy)
            assert scenario.join_one(peer_id).landmark_id == expected
            changed_landmark += expected != landmarks[0].landmark_id
        assert changed_landmark > 0


class TestDeterminism:
    def test_same_seed_same_joins(self):
        first = small_scenario(seed=23, peer_count=50)
        second = small_scenario(seed=23, peer_count=50)
        for peer_id in first.peer_ids:
            a, b = first.join_one(peer_id), second.join_one(peer_id)
            assert a.landmark_id == b.landmark_id
            assert a.path == b.path
            assert a.neighbors == b.neighbors
            assert a.transcript.setup_delay == b.transcript.setup_delay


class TestSetupDelay:
    """``max ping + probe_cost_ms x probed hops + server RTT``, nothing else."""

    @pytest.fixture()
    def line(self):
        """``lmL -2- r1 -3- r2 -4- r3 -5- lmR`` (link latencies in ms)."""
        graph = Graph()
        graph.add_edge("lmL", "r1", latency=2.0)
        graph.add_edge("r1", "r2", latency=3.0)
        graph.add_edge("r2", "r3", latency=4.0)
        graph.add_edge("r3", "lmR", latency=5.0)
        server = ManagementServer(neighbor_set_size=3)
        server.register_landmark("lmL", "lmL")
        server.register_landmark("lmR", "lmR")
        server.set_landmark_distance("lmL", "lmR", 4)
        return graph, server

    def test_formula_on_a_line(self, line):
        graph, server = line
        traceroute = TracerouteSimulator(graph=graph, config=TracerouteConfig(rtt_jitter_ms=0.0))
        client = NewcomerClient("p", "r1", traceroute, probe_cost_ms=7.0)
        transcript = client.join(server, start_time_ms=100.0).transcript
        # pings: lmL 2*2 = 4 ms, lmR 2*(3+4+5) = 24 ms; one hop probed (lmL);
        # the report's round trip is the trace's landmark RTT, 4 ms.
        assert transcript.landmark_id == "lmL"
        assert transcript.probe_duration == 24.0 + 7.0 * 1
        assert transcript.setup_delay == 24.0 + 7.0 * 1 + 4.0
        assert transcript.probe_started_at == 100.0

    def test_far_peer_waits_longer_than_near(self, line):
        graph, server = line
        graph.add_edge("lmR", "r4", latency=1.0)
        graph.add_edge("r4", "r5", latency=1.0)
        traceroute = TracerouteSimulator(graph=graph, config=TracerouteConfig(rtt_jitter_ms=0.0))
        near = NewcomerClient("near", "r4", traceroute).join(server).transcript
        far = NewcomerClient("far", "r5", traceroute).join(server).transcript
        assert near.landmark_id == far.landmark_id == "lmR"
        # One more hop to trace, and every echo comes back 2 ms later.
        assert far.setup_delay == near.setup_delay + 20.0 + 2.0 + 2.0

    def test_anonymous_hops_cost_their_timeout(self, line):
        graph, server = line
        traceroute = TracerouteSimulator(
            graph=graph,
            config=TracerouteConfig(anonymous_router_probability=1.0, rtt_jitter_ms=0.0, seed=2),
        )
        client = NewcomerClient("p", "r1", traceroute, landmark_selection=SELECT_FIRST)
        result = NewcomerClient("q", "lmR", traceroute, landmark_selection=SELECT_FIRST).join(server)
        # lmR -> r3 -> r2 -> r1 -> lmL: three silent routers, then the landmark.
        assert result.path.routers == ("lmR", "lmL")
        assert result.transcript.probe_duration == 20.0 * 4
        path, probed_hops = client.probe_landmark(LandmarkDescriptor("lmR", "lmR"))
        assert path.routers == ("r1", "lmR")
        assert probed_hops == 3

    def test_no_pings_means_no_ping_wait(self, line):
        graph, _ = line
        traceroute = TracerouteSimulator(graph=graph)
        client = NewcomerClient("p", "r1", traceroute, probe_cost_ms=5.0)
        assert client.probe_delay_ms({}, 3) == 15.0
        assert client.probe_delay_ms({"a": 4.0, "b": 9.0}, 3) == 24.0
