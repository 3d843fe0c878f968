"""Tests for the synthetic router-level map (the paper's substrate)."""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, GeneratorError
from repro.topology.centrality import centrality_concentration
from repro.topology.internet_mapper import (
    RouterMapConfig,
    TIER_CORE,
    TIER_STUB,
    TIER_TRANSIT,
    _preferential_targets,
    _weighted_pick,
    barabasi_albert,
    generate_router_map,
)
from repro.topology.latency import ConstantLatencyModel


def powerlaw_exponent(graph, k_min: int = 2) -> float:
    """Discrete Hill estimate of the degree tail's exponent over degrees >= k_min."""
    tail = [degree for degree in graph.degrees().values() if degree >= k_min]
    return 1.0 + len(tail) / sum(math.log(degree / (k_min - 0.5)) for degree in tail)


def degree_one_fraction(graph) -> float:
    return len(graph.nodes_with_degree(1)) / graph.node_count


class TestConfig:
    def test_invalid_sizes_rejected(self):
        with pytest.raises(Exception):
            RouterMapConfig(core_size=0)
        with pytest.raises(GeneratorError):
            RouterMapConfig(core_size=3, core_attachment=4)

    def test_invalid_probability_rejected(self):
        with pytest.raises(Exception):
            RouterMapConfig(stub_tree_probability=1.5)


class TestGeneration:
    @pytest.fixture(scope="class")
    def router_map(self):
        return generate_router_map(
            RouterMapConfig(
                core_size=15,
                core_attachment=3,
                transit_size=60,
                transit_attachment=2,
                stub_size=250,
                stub_attachment=1,
                seed=5,
            )
        )

    def test_router_count_matches_config(self, router_map):
        config = router_map.config
        assert router_map.graph.node_count == config.core_size + config.transit_size + config.stub_size

    def test_graph_is_connected(self, router_map):
        assert router_map.graph.is_connected()

    def test_every_router_has_a_tier(self, router_map):
        for node in router_map.graph.nodes():
            assert router_map.graph.node_attributes(node)["tier"] in (
                TIER_CORE,
                TIER_TRANSIT,
                TIER_STUB,
            )

    def test_tier_lists_partition_routers(self, router_map):
        assert set(router_map.tiers) == {TIER_CORE, TIER_TRANSIT, TIER_STUB}
        routers = [router for tier in router_map.tiers.values() for router in tier]
        assert sorted(routers) == sorted(router_map.graph.nodes())

    def test_has_many_degree_one_routers(self, router_map):
        """The paper attaches peers to degree-1 routers; there must be plenty."""
        stubs = router_map.stub_routers()
        assert len(stubs) > router_map.config.stub_size * 0.3
        for router in stubs[:50]:
            assert router_map.graph.degree(router) == 1

    def test_medium_degree_routers_exclude_leaves(self, router_map):
        mediums = router_map.medium_degree_routers()
        assert mediums
        for router in mediums:
            assert router_map.graph.degree(router) >= 3

    def test_medium_degree_routers_stop_at_the_90th_percentile(self, router_map):
        degrees = sorted(router_map.graph.degrees().values())
        cap = degrees[int(len(degrees) * 0.9)]
        mediums = set(router_map.medium_degree_routers())
        assert mediums == {
            router for router in router_map.graph.nodes()
            if 3 <= router_map.graph.degree(router) <= max(3, cap)
        }

    def test_core_routers_have_high_degree(self, router_map):
        degree = router_map.graph.degrees()
        core, stubs = router_map.tiers[TIER_CORE], router_map.tiers[TIER_STUB]
        assert core
        core_mean = sum(degree[r] for r in core) / len(core)
        stub_mean = sum(degree[r] for r in stubs) / len(stubs)
        assert core_mean > 3 * stub_mean

    def test_latencies_assigned_to_every_edge(self, router_map):
        for u, v in router_map.graph.edges():
            assert router_map.graph.edge_weight(u, v) > 0

    def test_degrees_cover_every_router(self, router_map):
        degrees = router_map.graph.degrees()
        assert sorted(degrees) == sorted(router_map.graph.nodes())
        assert sum(degrees.values()) == 2 * router_map.graph.edge_count

    def test_heavy_tail_exponent_in_realistic_range(self, router_map):
        exponent = powerlaw_exponent(router_map.graph)
        assert 1.5 < exponent < 3.5

    def test_betweenness_concentrated_on_core(self, router_map):
        """The paper's structural assumption: a few routers carry most shortest paths."""
        concentration = centrality_concentration(
            router_map.graph, top_fraction=0.05, pivots=24, seed=1
        )
        assert concentration > 0.5


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
class TestTierStructure:
    """How each tier attaches, on a few seeds (ids grow tier by tier)."""

    @pytest.fixture()
    def router_map(self, seed):
        return generate_router_map(
            RouterMapConfig(
                core_size=10,
                core_attachment=3,
                transit_size=40,
                transit_attachment=2,
                stub_size=120,
                extra_peering_probability=0.3,
                seed=seed,
            )
        )

    def test_tier_lists_match_the_tier_attribute(self, router_map):
        graph = router_map.graph
        for tier in (TIER_CORE, TIER_TRANSIT, TIER_STUB):
            assert router_map.tiers[tier] == [
                node for node in graph.nodes() if graph.node_attributes(node)["tier"] == tier
            ]

    def test_core_is_the_preferential_attachment_graph(self, router_map):
        core = router_map.tiers[TIER_CORE]
        subgraph = router_map.graph.subgraph(core)
        m = router_map.config.core_attachment
        assert subgraph.is_connected()
        assert subgraph.edge_count == m * (len(core) - m)

    def test_transit_routers_uplink_to_earlier_core_or_transit_routers(self, router_map):
        graph = router_map.graph
        m = router_map.config.transit_attachment
        for node in router_map.tiers[TIER_TRANSIT]:
            uplinks = [v for v in graph.iter_neighbors(node) if v < node]
            # m preferential uplinks, plus at most one lateral peering link.
            assert m <= len(uplinks) <= m + 1
            assert all(graph.node_attributes(v)["tier"] != TIER_STUB for v in uplinks)

    def test_every_stub_router_has_exactly_one_uplink(self, router_map):
        graph = router_map.graph
        for node in router_map.tiers[TIER_STUB]:
            assert len([v for v in graph.iter_neighbors(node) if v < node]) == 1
            below = [v for v in graph.iter_neighbors(node) if v > node]
            assert all(graph.node_attributes(v)["tier"] == TIER_STUB for v in below)

    def test_removing_the_access_layer_leaves_a_connected_backbone(self, router_map):
        backbone = router_map.tiers[TIER_CORE] + router_map.tiers[TIER_TRANSIT]
        assert router_map.graph.subgraph(backbone).is_connected()
        # Stub trees hang off the backbone: the access layer is a forest.
        stubs = router_map.graph.subgraph(router_map.tiers[TIER_STUB])
        assert stubs.edge_count == stubs.node_count - len(stubs.connected_components())


class TestVariants:
    def test_deterministic_given_seed(self):
        first = generate_router_map(RouterMapConfig(core_size=10, transit_size=30, stub_size=80, seed=3))
        second = generate_router_map(RouterMapConfig(core_size=10, transit_size=30, stub_size=80, seed=3))
        assert sorted(first.graph.edges()) == sorted(second.graph.edges())

    def test_custom_latency_model(self):
        router_map = generate_router_map(
            RouterMapConfig(core_size=8, transit_size=20, stub_size=40, seed=2),
            latency_model=ConstantLatencyModel(latency_ms=3.0),
        )
        for u, v in router_map.graph.edges():
            assert router_map.graph.edge_weight(u, v) == 3.0

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(GeneratorError):
            generate_router_map(RouterMapConfig(seed=1), stub_size=100)

    def test_overrides_build_a_config(self):
        router_map = generate_router_map(core_size=8, transit_size=10, stub_size=20, seed=1)
        assert router_map.config.stub_size == 20

    def test_flat_access_layer_when_tree_probability_zero(self):
        router_map = generate_router_map(
            RouterMapConfig(
                core_size=8,
                transit_size=20,
                stub_size=60,
                stub_tree_probability=0.0,
                seed=4,
            )
        )
        # With no stub trees every stub attaches to transit/core, so the
        # degree-1 fraction is very high.
        assert degree_one_fraction(router_map.graph) > 0.5


def map_digest(router_map) -> str:
    """sha256 of every edge with the repr of its latency, in ``edges()`` order, and the tier lists."""
    graph = router_map.graph
    digest = hashlib.sha256()
    for u, v in graph.edges():
        digest.update(f"{u} {v} {graph.edge_attributes(u, v)['latency']!r}\n".encode())
    for tier in (TIER_CORE, TIER_TRANSIT, TIER_STUB):
        digest.update(f"{tier} {router_map.tiers[tier]!r}\n".encode())
    return digest.hexdigest()


class TestMapIdentity:
    """A seed's map is pinned byte for byte: every figure and pinned table is built on one."""

    @pytest.mark.parametrize(
        "config, expected",
        [
            (RouterMapConfig(seed=1), "6dac8dd276579bdc749969235f833eef073b232e2e8025e723eb359a69855987"),
            (RouterMapConfig(seed=2), "641f61cbbe3bafc312dfb981bc17c43bf48ec0dd2eebe84db5647136ef327f6d"),
            (RouterMapConfig.small(7), "d96fafce68b16b8bb38c45fcdebf2a33f3e1987c58d89004d5e835161397f16a"),
        ],
        ids=["default-seed-1", "default-seed-2", "small-seed-7"],
    )
    def test_a_seed_builds_the_pinned_map(self, config, expected):
        assert map_digest(generate_router_map(config)) == expected


def scan_pick(pool, cumulative, u):
    """The linear scan ``_weighted_pick`` replaces: the first threshold >= u, else the last entry."""
    for node, threshold in zip(pool, cumulative):
        if u <= threshold:
            return node
    return pool[-1]


def cumulative_table(weights):
    """The generator's running share of the total weight, summed the same way."""
    total = float(sum(weights))
    table, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        table.append(acc)
    return table


class TestWeightedPick:
    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 40), min_size=1, max_size=60).filter(any),
        draws=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
    )
    def test_picks_what_the_scan_picks(self, weights, draws):
        pool = list(range(100, 100 + len(weights)))
        cumulative = cumulative_table(weights)
        for u in draws + cumulative:  # every threshold is itself a draw
            assert _weighted_pick(pool, cumulative, u) == scan_pick(pool, cumulative, u)

    def test_a_draw_on_a_threshold_picks_that_entry_not_the_next(self):
        pool, cumulative = [7, 8, 9], [0.25, 0.5, 1.0]
        assert [_weighted_pick(pool, cumulative, u) for u in (0.25, 0.5, 1.0)] == [7, 8, 9]

    def test_zero_weight_entries_are_never_picked_by_a_positive_draw(self):
        pool, cumulative = [7, 8, 9, 10], cumulative_table([0, 3, 0, 1])
        for u in (1e-12, 0.5, cumulative[1], cumulative[2], 0.99):
            assert _weighted_pick(pool, cumulative, u) in (8, 10)
            assert _weighted_pick(pool, cumulative, u) == scan_pick(pool, cumulative, u)

    def test_a_draw_above_the_rounded_total_picks_the_last_entry(self):
        cumulative = cumulative_table([1] * 10)
        assert cumulative[-1] < 1.0  # rounding leaves the running sum short of 1
        pool = list(range(10))
        u = math.nextafter(cumulative[-1], 1.0)
        assert _weighted_pick(pool, cumulative, u) == scan_pick(pool, cumulative, u) == 9

    def test_a_one_entry_pool_always_picks_its_entry(self):
        for u in (0.0, 0.5, 1.0, 1.5):
            assert _weighted_pick([42], [1.0], u) == scan_pick([42], [1.0], u) == 42


class TestBarabasiAlbert:
    def test_node_and_edge_counts(self):
        graph = barabasi_albert(100, m=2, seed=1)
        assert graph.node_count == 100
        # The seed star has m edges; every later node adds up to m edges.
        assert graph.edge_count <= 2 + 2 * 98
        assert graph.edge_count >= 100

    def test_connected(self):
        graph = barabasi_albert(150, m=2, seed=3)
        assert graph.is_connected()

    def test_heavy_tail_present(self):
        graph = barabasi_albert(400, m=2, seed=5)
        assert max(graph.degrees().values()) >= 15

    def test_deterministic_given_seed(self):
        first = barabasi_albert(80, m=2, seed=11)
        second = barabasi_albert(80, m=2, seed=11)
        assert sorted(first.edges()) == sorted(second.edges())

    def test_different_seeds_differ(self):
        first = barabasi_albert(80, m=2, seed=11)
        second = barabasi_albert(80, m=2, seed=12)
        assert sorted(first.edges()) != sorted(second.edges())

    def test_requires_n_greater_than_m(self):
        with pytest.raises(GeneratorError):
            barabasi_albert(3, m=3)

    def test_accepts_external_rng(self):
        rng = random.Random(7)
        graph = barabasi_albert(50, m=1, rng=rng)
        assert graph.node_count == 50

    @pytest.mark.parametrize("n, m", [(2, 1), (30, 1), (60, 2), (61, 4)])
    def test_every_later_node_attaches_with_exactly_m_edges(self, n, m):
        graph = barabasi_albert(n, m=m, seed=n + m)
        # The seed star has m edges; each of the n - m - 1 later nodes adds m.
        assert graph.edge_count == m * (n - m)
        for node in range(m + 1, n):
            assert len([v for v in graph.iter_neighbors(node) if v < node]) == m

    @pytest.mark.parametrize("n, m", [(0, 1), (5, 0), (1, 1)])
    def test_rejects_invalid_sizes(self, n, m):
        with pytest.raises((ConfigurationError, GeneratorError)):
            barabasi_albert(n, m=m)


class TestPreferentialTargets:
    def test_targets_are_distinct_and_never_the_excluded_node(self):
        pool = [0, 0, 0, 0, 1, 2, 3, 3, 4]
        for seed in range(20):
            targets = _preferential_targets(pool, 3, random.Random(seed), exclude=0)
            assert len(targets) == 3
            assert len(set(targets)) == 3
            assert 0 not in targets

    def test_heavier_nodes_are_picked_more_often(self):
        pool = [0] * 18 + [1, 2]
        rng = random.Random(5)
        picks = [_preferential_targets(pool, 1, rng, exclude=99)[0] for _ in range(400)]
        assert picks.count(0) > 300

    def test_falls_back_to_every_other_node_when_sampling_stalls(self):
        # Node 0 dominates the pool, so rejection sampling gives up and the
        # remaining targets come from the uniform fallback.
        pool = [0] * 10_000 + [1, 2]
        targets = _preferential_targets(pool, 2, random.Random(1), exclude=0)
        assert sorted(targets) == [1, 2]


@settings(max_examples=10, deadline=None)
@given(n=st.integers(10, 80), m=st.integers(1, 3))
def test_property_ba_graphs_are_connected(n, m):
    """Preferential attachment always yields a connected graph."""
    if n <= m:
        return
    graph = barabasi_albert(n, m=m, seed=n * 10 + m)
    assert graph.is_connected()
    assert graph.node_count == n
