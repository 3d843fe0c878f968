"""Oracle: a route table's column trees vs the reference BFS / Dijkstra trees.

For every (source, root) pair of a random graph — disconnected ones, roots on
degree-1 routers, K2 components — the table's route is the parent chain of
:func:`bfs_shortest_paths` (of :func:`dijkstra_shortest_paths` for a weighted
table), its hop count that chain's length, and its latency the root-outward
sum of ``edge_weight`` along it, compared with plain ``==``.  Unreachable
pairs raise :class:`NoRouteError`, unknown roots :class:`NodeNotFoundError`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NodeNotFoundError, NoRouteError
from repro.routing.distance_engine import MAX_BYTE_HOPS
from repro.routing.route_table import RouteTable
from repro.routing.shortest_path import bfs_shortest_paths, dijkstra_shortest_paths
from repro.topology.graph import Graph

ORACLE = settings(max_examples=60, deadline=None, derandomize=True)

graphs = st.fixed_dictionaries(
    {
        "edges": st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(lambda e: e[0] != e[1]),
            max_size=40,
        ),
        "isolated": st.lists(st.integers(16, 20), max_size=3, unique=True),
        # Degree-1 routers hanging off a drawn router: the leaves the column
        # fill derives rather than searches.
        "pendants": st.lists(st.integers(0, 15), max_size=6),
        "k2": st.booleans(),
        "weights": st.lists(
            st.floats(min_value=0.125, max_value=16.0, allow_nan=False), min_size=1, max_size=8
        ),
    }
)


def _build(drawn) -> Graph:
    graph = Graph()
    weights = drawn["weights"]
    links = list(drawn["edges"])
    links += [(anchor, f"leaf{i}") for i, anchor in enumerate(drawn["pendants"])]
    if drawn["k2"]:
        links.append(("k2a", "k2b"))
    for node in drawn["isolated"]:
        graph.add_node(node)
    for i, (u, v) in enumerate(links):
        graph.add_edge(u, v, latency=weights[i % len(weights)])
    return graph


def _assert_table_matches(graph: Graph, table: RouteTable, reference, roots=None) -> None:
    for root in roots if roots is not None else list(graph.nodes()):
        _, parents = reference(graph, root)
        for source in graph.nodes():
            if source != root and source not in parents:
                for ask in (table.route, table.route_length, table.path_latency):
                    with pytest.raises(NoRouteError):
                        ask(source, root)
                continue
            chain = [source]
            while chain[-1] != root:
                chain.append(parents[chain[-1]])
            latency = 0.0
            for node, parent in zip(reversed(chain[:-1]), reversed(chain[1:])):
                latency += graph.edge_weight(node, parent)
            assert table.route(source, root) == chain
            assert table.route_length(source, root) == len(chain) - 1
            assert table.path_latency(source, root) == latency
            if source != root:
                assert table.next_hop(source, root) == chain[1]
        with pytest.raises(NoRouteError):
            table.path_latency("not-a-router", root)


@ORACLE
@given(drawn=graphs)
def test_hop_table_routes_are_the_bfs_tree(drawn):
    graph = _build(drawn)
    if graph.node_count:
        _assert_table_matches(graph, RouteTable(graph=graph), bfs_shortest_paths)


@ORACLE
@given(drawn=graphs)
def test_weighted_table_routes_are_the_dijkstra_tree(drawn):
    graph = _build(drawn)
    if graph.node_count:
        _assert_table_matches(graph, RouteTable(graph=graph, weighted=True), dijkstra_shortest_paths)


def test_chain_deeper_than_the_byte_cap_with_a_leaf_root():
    graph = Graph()
    length = MAX_BYTE_HOPS + 30
    for i in range(length):
        graph.add_edge(i, i + 1, latency=0.1 + (i % 7) * 0.25)
    graph.add_edge("island", "islet")
    _assert_table_matches(graph, RouteTable(graph=graph), bfs_shortest_paths, roots=[0, length // 2, "island"])


def test_unknown_root_raises_node_not_found():
    graph = Graph()
    graph.add_edge(1, 2)
    table = RouteTable(graph=graph)
    for ask in (table.route, table.route_length, table.path_latency):
        with pytest.raises(NodeNotFoundError):
            ask(1, "nope")
    assert table.destinations() == []
