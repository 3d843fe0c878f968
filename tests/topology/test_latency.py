"""Tests for the link-latency models."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.topology.graph import Graph
from repro.topology.latency import ConstantLatencyModel, TieredLatencyModel


#: The router map's tiers, no tier attribute (``None``) and a tier it never assigns.
TIERS = ["core", "transit", "stub", None, "edge"]


def set_rule_base_latency(model: TieredLatencyModel, tier_u: str, tier_v: str) -> float:
    """The base-latency rule as first written, one set per link."""
    tiers = {tier_u, tier_v}
    if "stub" in tiers:
        return model.access_ms
    if tiers == {"core"}:
        return model.core_core_ms
    if tiers == {"core", "transit"}:
        return model.core_transit_ms
    return model.transit_transit_ms


@pytest.fixture()
def tiered_graph() -> Graph:
    graph = Graph()
    graph.add_node("c1", tier="core")
    graph.add_node("c2", tier="core")
    graph.add_node("t1", tier="transit")
    graph.add_node("s1", tier="stub")
    graph.add_edge("c1", "c2")
    graph.add_edge("c1", "t1")
    graph.add_edge("t1", "s1")
    return graph


class TestConstant:
    def test_assigns_same_value_everywhere(self, line_graph):
        ConstantLatencyModel(latency_ms=4.0).assign(line_graph)
        assert all(line_graph.edge_weight(u, v) == 4.0 for u, v in line_graph.edges())

    def test_rejects_non_positive(self):
        with pytest.raises(Exception):
            ConstantLatencyModel(latency_ms=0.0)

    def test_writes_the_requested_key_only(self, line_graph):
        ConstantLatencyModel(latency_ms=4.0).assign(line_graph, key="probe_ms")
        for u, v in line_graph.edges():
            assert line_graph.edge_attributes(u, v)["probe_ms"] == 4.0
            assert line_graph.edge_weight(u, v) == 1.0


class TestTiered:
    def test_core_links_slower_than_access_links(self, tiered_graph):
        TieredLatencyModel(jitter_fraction=0.0, seed=1).assign(tiered_graph)
        core_core = tiered_graph.edge_weight("c1", "c2")
        access = tiered_graph.edge_weight("t1", "s1")
        assert core_core > access

    def test_unknown_tier_treated_as_transit(self):
        graph = Graph()
        graph.add_edge("x", "y")
        TieredLatencyModel(jitter_fraction=0.0).assign(graph)
        assert graph.edge_weight("x", "y") == pytest.approx(4.0)

    def test_jitter_keeps_latency_positive(self, tiered_graph):
        TieredLatencyModel(jitter_fraction=0.3, seed=2).assign(tiered_graph)
        for u, v in tiered_graph.edges():
            assert tiered_graph.edge_weight(u, v) > 0

    @pytest.mark.parametrize(
        "tier_u, tier_v, expected",
        [
            ("core", "core", 12.0),
            ("core", "transit", 6.0),
            ("transit", "core", 6.0),
            ("transit", "transit", 4.0),
            ("core", "stub", 2.0),
            ("transit", "stub", 2.0),
            ("stub", "stub", 2.0),
        ],
    )
    def test_base_latency_of_each_tier_pair(self, tier_u, tier_v, expected):
        graph = Graph()
        graph.add_node("u", tier=tier_u)
        graph.add_node("v", tier=tier_v)
        graph.add_edge("u", "v")
        TieredLatencyModel(jitter_fraction=0.0).assign(graph)
        assert graph.edge_weight("u", "v") == pytest.approx(expected)

    @pytest.mark.parametrize("tier_u", TIERS)
    @pytest.mark.parametrize("tier_v", TIERS)
    def test_tier_table_gives_the_set_rule(self, tier_u, tier_v):
        """Every pair, a missing or unknown tier included, has the set-based rule's base latency."""
        model = TieredLatencyModel(
            core_core_ms=11.0,
            core_transit_ms=7.0,
            transit_transit_ms=5.0,
            access_ms=3.0,
            jitter_fraction=0.0,
        )
        graph = Graph()
        graph.add_node("u", **({} if tier_u is None else {"tier": tier_u}))
        graph.add_node("v", **({} if tier_v is None else {"tier": tier_v}))
        graph.add_edge("u", "v")
        expected = set_rule_base_latency(model, tier_u or "transit", tier_v or "transit")
        assert model._base_latency(tier_u or "transit", tier_v or "transit") == expected
        model.assign(graph)
        assert graph.edge_weight("u", "v") == expected

    def test_assign_moves_the_graph_generation(self, tiered_graph):
        before = tiered_graph.generation
        TieredLatencyModel(seed=1).assign(tiered_graph)
        assert tiered_graph.generation != before

    @pytest.mark.parametrize("jitter", [0.05, 0.3, 0.9])
    def test_jitter_stays_within_its_fraction(self, jitter, small_router_map):
        graph = small_router_map.graph.copy()
        model = TieredLatencyModel(jitter_fraction=jitter, seed=3)
        model.assign(graph)
        for u, v in graph.edges():
            base = model._base_latency(graph.node_attributes(u)["tier"], graph.node_attributes(v)["tier"])
            assert base * (1 - jitter) <= graph.edge_weight(u, v) <= base * (1 + jitter)

    def test_deterministic_given_seed(self, small_router_map):
        first, second = small_router_map.graph.copy(), small_router_map.graph.copy()
        TieredLatencyModel(seed=8).assign(first)
        TieredLatencyModel(seed=8).assign(second)
        assert [first.edge_weight(u, v) for u, v in first.edges()] == [
            second.edge_weight(u, v) for u, v in second.edges()
        ]

    @pytest.mark.parametrize(
        "field", ["core_core_ms", "core_transit_ms", "transit_transit_ms", "access_ms"]
    )
    def test_rejects_non_positive_tier_latency(self, field):
        with pytest.raises(ConfigurationError):
            TieredLatencyModel(**{field: 0.0})

    def test_rejects_negative_jitter(self):
        with pytest.raises(ConfigurationError):
            TieredLatencyModel(jitter_fraction=-0.1)

