"""Tests for the scenario builder (the paper's simulation setup)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.topology.internet_mapper import RouterMapConfig
from repro.workloads.scenarios import ScenarioConfig, build_scenario

from ..conftest import SMALL_MAP_KWARGS, make_small_scenario


class TestConfig:
    def test_invalid_counts_rejected(self):
        with pytest.raises(Exception):
            ScenarioConfig(peer_count=0)
        with pytest.raises(Exception):
            ScenarioConfig(landmark_count=0)
        with pytest.raises(Exception):
            ScenarioConfig(neighbor_set_size=0)

    def test_config_and_overrides_exclusive(self):
        with pytest.raises(ConfigurationError):
            build_scenario(ScenarioConfig(peer_count=10), peer_count=20)


class TestBuild:
    def test_setup_matches_paper(self, joined_scenario):
        """Peers on degree-1 routers, landmarks on medium-degree routers."""
        scenario = joined_scenario
        graph = scenario.router_map.graph
        for router in scenario.peer_routers.values():
            assert graph.degree(router) == 1
        for landmark in scenario.landmark_set:
            assert graph.degree(landmark.router) >= 3

    def test_peer_and_landmark_counts(self, joined_scenario):
        assert len(joined_scenario.peer_ids) == joined_scenario.config.peer_count
        assert len(joined_scenario.landmark_set) == joined_scenario.config.landmark_count
        assert set(joined_scenario.server.landmarks()) == set(joined_scenario.landmark_set.ids())

    def test_server_knows_inter_landmark_distances(self, joined_scenario):
        landmarks = joined_scenario.server.landmarks()
        assert joined_scenario.server.landmark_distance(landmarks[0], landmarks[1]) is not None

    def test_deterministic_given_seed(self):
        first = make_small_scenario(seed=21, peer_count=10)
        second = make_small_scenario(seed=21, peer_count=10)
        assert first.peer_routers == second.peer_routers
        assert first.landmark_set.routers() == second.landmark_set.routers()

    def test_different_seeds_differ(self):
        first = make_small_scenario(seed=21, peer_count=10)
        second = make_small_scenario(seed=22, peer_count=10)
        assert (
            first.peer_routers != second.peer_routers
            or first.landmark_set.routers() != second.landmark_set.routers()
        )


class TestJoins:
    def test_join_all_registers_every_peer(self, joined_scenario):
        assert joined_scenario.server.peer_count == joined_scenario.config.peer_count
        assert set(joined_scenario.join_results) == set(joined_scenario.peer_ids)

    def test_join_one_incremental(self, fresh_scenario):
        peer = fresh_scenario.peer_ids[0]
        result = fresh_scenario.join_one(peer)
        assert result.peer_id == peer
        assert fresh_scenario.server.peer_count == 1
        with pytest.raises(ConfigurationError):
            fresh_scenario.join_one("ghost")

    def test_every_peer_path_ends_at_its_landmark(self, joined_scenario):
        for peer, result in joined_scenario.join_results.items():
            landmark_router = joined_scenario.server.landmark_router(result.landmark_id)
            assert result.path.routers[-1] == landmark_router
            assert result.path.routers[0] == joined_scenario.peer_routers[peer]

    def test_peers_pick_a_nearby_landmark(self, joined_scenario):
        """The client-side RTT selection finds a landmark close to the oracle's pick.

        The probe measures RTT along the hop-count route (what traceroute
        follows), while the oracle minimises latency over latency-optimal
        routes, so the two can legitimately disagree on close calls; the
        chosen landmark must still be (near-)closest in hop distance.
        """
        from repro.routing.shortest_path import bfs_shortest_paths

        acceptable = 0
        total = 0
        for peer, result in joined_scenario.join_results.items():
            router = joined_scenario.peer_routers[peer]
            distances, _ = bfs_shortest_paths(joined_scenario.router_map.graph, router)
            landmark_hops = {
                landmark.landmark_id: distances[landmark.router]
                for landmark in joined_scenario.landmark_set
            }
            best_hops = min(landmark_hops.values())
            total += 1
            if landmark_hops[result.landmark_id] <= best_hops + 2:
                acceptable += 1
        assert acceptable / total > 0.85


class TestNeighborSets:
    def test_scheme_sets_require_joined_peers(self, fresh_scenario):
        with pytest.raises(ConfigurationError):
            fresh_scenario.scheme_neighbor_sets()

    def test_neighbor_set_sizes(self, joined_scenario):
        k = joined_scenario.config.neighbor_set_size
        for sets in (
            joined_scenario.scheme_neighbor_sets(),
            joined_scenario.oracle_neighbor_sets(),
            joined_scenario.random_neighbor_sets(),
        ):
            assert set(sets) == set(joined_scenario.peer_ids)
            assert all(len(neighbors) == k for neighbors in sets.values())
            assert all(peer not in neighbors for peer, neighbors in sets.items())

    def test_scheme_never_worse_than_random_on_average(self, joined_scenario):
        from repro.metrics.proximity import population_cost

        scheme = population_cost(joined_scenario.scheme_neighbor_sets(), joined_scenario.true_distance)
        random_cost = population_cost(joined_scenario.random_neighbor_sets(), joined_scenario.true_distance)
        optimal = population_cost(joined_scenario.oracle_neighbor_sets(), joined_scenario.true_distance)
        assert optimal <= scheme <= random_cost

    def test_random_sets_reproducible(self, joined_scenario):
        assert joined_scenario.random_neighbor_sets(seed=1) == joined_scenario.random_neighbor_sets(seed=1)


class TestShardedScenario:
    def test_config_validates_shard_count(self):
        with pytest.raises(Exception):
            ScenarioConfig(shard_count=0)
        assert ScenarioConfig(shard_count=2).shard_count == 2

    def test_sharded_scenario_builds_sharded_plane(self):
        from repro.core.sharded import ShardedManagementServer

        scenario = make_small_scenario(seed=7, peer_count=20, shard_count=2)
        assert isinstance(scenario.server, ShardedManagementServer)
        assert scenario.server.shard_count == 2
        scenario.join_all()
        assert scenario.server.peer_count == 20

    def test_sharded_scenario_matches_single_server_scenario(self):
        """End-to-end equivalence: the full paper pipeline (map, landmarks,
        traceroute, joins) produces identical neighbour sets whether the
        management plane runs as one server or as four shards."""
        single = make_small_scenario(seed=11, peer_count=25)
        sharded = make_small_scenario(seed=11, peer_count=25, shard_count=4)
        single.join_all()
        sharded.join_all()
        assert sharded.scheme_neighbor_sets() == single.scheme_neighbor_sets()
        assert sharded.server.peers() == single.server.peers()
        for peer in single.peer_ids:
            assert sharded.server.closest_peers(peer, k=5) == single.server.closest_peers(peer, k=5)


class TestProcessBackendScenario:
    # Worker-process teardown is enforced suite-wide by the
    # no_leaked_workers autouse fixture in tests/conftest.py.

    def test_config_validates_backend(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(backend="bogus")
        with pytest.raises(ConfigurationError):
            ScenarioConfig(backend="process")  # needs shard_count
        assert ScenarioConfig(backend="process", shard_count=2).backend == "process"

    def test_process_scenario_builds_process_backed_shards(self):
        from repro.core.sharded import ShardedManagementServer

        with make_small_scenario(seed=7, peer_count=15, shard_count=2, backend="process") as scenario:
            assert isinstance(scenario.server, ShardedManagementServer)
            children = [shard.supervisor.process for shard in scenario.server.shards]
            assert all(child is not None and child.is_alive() for child in children)
            assert len({child.pid for child in children}) == 2  # one server each
            scenario.join_all()
            assert scenario.server.peer_count == 15

    def test_process_scenario_matches_inline_scenario(self):
        """The full paper pipeline answers identically when every shard is a
        child shard server behind the wire protocol."""
        inline = make_small_scenario(seed=11, peer_count=20, shard_count=2)
        with make_small_scenario(
            seed=11, peer_count=20, shard_count=2, backend="process"
        ) as process:
            inline.join_all()
            process.join_all()
            assert process.scheme_neighbor_sets() == inline.scheme_neighbor_sets()
            for peer in inline.peer_ids:
                assert process.server.closest_peers(peer, k=5) == inline.server.closest_peers(
                    peer, k=5
                )

    def test_close_reaps_workers_and_is_idempotent(self):
        scenario = make_small_scenario(seed=7, peer_count=10, shard_count=2, backend="process")
        processes = [shard.supervisor.process for shard in scenario.server.shards]
        assert all(process.is_alive() for process in processes)
        scenario.close()
        assert all(not process.is_alive() for process in processes)
        scenario.close()

    def test_inline_scenario_close_is_a_safe_no_op(self, fresh_scenario):
        fresh_scenario.close()
        fresh_scenario.join_all()  # still usable: nothing was torn down


class TestSocketBackendScenario:
    def test_config_validates_socket_backend(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(backend="socket")  # needs shard_count
        assert ScenarioConfig(backend="socket", shard_count=2).backend == "socket"

    def test_socket_scenario_builds_socket_backed_shards(self):
        from repro.core.sharded import ShardedManagementServer
        from repro.core.socket_backend import SocketShardBackend

        with make_small_scenario(
            seed=7, peer_count=15, shard_count=2, backend="socket"
        ) as scenario:
            assert isinstance(scenario.server, ShardedManagementServer)
            assert all(
                isinstance(shard, SocketShardBackend) for shard in scenario.server.shards
            )
            scenario.join_all()
            assert scenario.server.peer_count == 15

    def test_socket_scenario_matches_inline_scenario(self):
        """The full paper pipeline answers identically when every shard sits
        behind a loopback socket server."""
        inline = make_small_scenario(seed=11, peer_count=20, shard_count=2)
        with make_small_scenario(
            seed=11, peer_count=20, shard_count=2, backend="socket"
        ) as socket_scenario:
            inline.join_all()
            socket_scenario.join_all()
            assert socket_scenario.scheme_neighbor_sets() == inline.scheme_neighbor_sets()
            for peer in inline.peer_ids:
                assert socket_scenario.server.closest_peers(
                    peer, k=5
                ) == inline.server.closest_peers(peer, k=5)

    def test_close_tears_down_the_loopback_server_and_is_idempotent(self):
        scenario = make_small_scenario(seed=7, peer_count=10, shard_count=2, backend="socket")
        supervisors = [shard.supervisor for shard in scenario.server.shards]
        assert all(supervisor.health_check() for supervisor in supervisors)
        scenario.close()
        assert all(not supervisor.health_check() for supervisor in supervisors)
        scenario.close()
