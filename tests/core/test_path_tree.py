"""Tests for the landmark-rooted path tree (the core data structure)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.path import shared_suffix_length, tree_distance
from repro.core.path_tree import PathTree
from repro.exceptions import RegistrationError, UnknownPeerError
from repro.workloads import synthetic_paths

from ..oracle import (
    attached,
    depth_first,
    live_nodes,
    make_path,
    path,
    populations,
    random_trees,
    reported_path,
    root_path,
    tree_of,
)


def synthetic_tree(population: int) -> PathTree:
    """A trie over ``population`` peers of the three-level access hierarchy."""
    tree = PathTree(landmark_id="lmk", landmark_router="lmk")
    tree.load(synthetic_paths(population, seed=2))
    return tree


@pytest.fixture()
def populated_tree() -> PathTree:
    """Tree over a small two-branch topology.

    Routes (peer side first)::

        p1: a1 a2 core lmk
        p2: a3 a2 core lmk
        p3: b1 core lmk
        p4: b1 core lmk      (same access router as p3)
        p5: core lmk
    """
    tree = PathTree(landmark_id="lmk", landmark_router="lmk")
    for peer, routers in ROUTES.items():
        tree.insert(path(peer, routers))
    return tree


ROUTES = {
    "p1": ["a1", "a2", "core", "lmk"],
    "p2": ["a3", "a2", "core", "lmk"],
    "p3": ["b1", "core", "lmk"],
    "p4": ["b1", "core", "lmk"],
    "p5": ["core", "lmk"],
}


def dtree(peer_a, peer_b) -> int:
    """The one ``dtree`` definition over two fixture peers' reported paths."""
    return tree_distance(path(peer_a, ROUTES[peer_a]), path(peer_b, ROUTES[peer_b]))


class TestInsertion:
    def test_counts(self, populated_tree):
        assert populated_tree.peer_count == 5
        # Routers: lmk, core, a2, a1, a3, b1.
        assert populated_tree.router_count == 6

    def test_root_is_landmark_router(self, populated_tree):
        assert populated_tree.routers[0] == "lmk"
        assert populated_tree.depth[0] == 0

    def test_lazy_root_creation(self):
        tree = PathTree(landmark_id="lmk")
        assert not tree.routers
        tree.insert(path("p1", ["r1", "lmk"]))
        assert tree.routers[0] == "lmk"

    def test_wrong_landmark_rejected(self, populated_tree):
        with pytest.raises(RegistrationError):
            populated_tree.insert(path("p9", ["x", "other"], landmark="other-lmk"))

    def test_mismatched_root_rejected(self, populated_tree):
        with pytest.raises(RegistrationError):
            populated_tree.insert(path("p9", ["x", "not-lmk"], "lmk"))

    def test_reinsert_replaces_previous_path(self, populated_tree):
        populated_tree.insert(path("p1", ["b1", "core", "lmk"]))
        assert populated_tree.peer_count == 5
        assert populated_tree.routers[populated_tree.attachment_node("p1")] == "b1"

    def test_rejected_reregistration_leaves_the_peer_registered(self, populated_tree):
        """Validate first, mutate second: a known peer whose new path ends at
        the wrong landmark-side router keeps its old registration whole."""
        rows = {node: list(populated_tree.rows[node]) for node in live_nodes(populated_tree)}
        attachment = populated_tree.attachment_node("p1")
        with pytest.raises(RegistrationError):
            populated_tree.insert(path("p1", ["b1", "core", "not-lmk"], "lmk"))
        assert "p1" in populated_tree.peers()
        assert populated_tree.peer_count == 5
        assert populated_tree.attachment_node("p1") == attachment
        assert {node: populated_tree.rows[node] for node in live_nodes(populated_tree)} == rows
        assert populated_tree.closest_peers("p2", k=1)[0][0] == "p1"

    def test_subtree_counts_propagate(self, populated_tree):
        tree = populated_tree
        assert len(tree.rows[0]) == 5
        core = tree.children[0]["core"]
        assert len(tree.rows[core]) == 5
        a2 = tree.children[core]["a2"]
        assert len(tree.rows[a2]) == 2

    def test_attachment_and_path_lookup(self, populated_tree):
        assert "p3" in populated_tree.peers()
        tree = populated_tree
        node = tree.attachment_node("p3")
        routers, parent = tree.routers, tree.parent
        assert (routers[node], routers[parent[node]], routers[parent[parent[node]]]) == (
            "b1", "core", "lmk"
        )
        assert tree.depth[node] + 1 == 3  # the peer's hop count: the tree keeps no path

    def test_unknown_peer_lookups_raise(self, populated_tree):
        with pytest.raises(UnknownPeerError):
            populated_tree.attachment_node("ghost")
        with pytest.raises(UnknownPeerError):
            populated_tree.closest_peers("ghost", 1)
        assert not hasattr(populated_tree, "path_of")


class TestRemoval:
    def test_remove_updates_counts(self, populated_tree):
        populated_tree.remove("p1")
        assert populated_tree.peer_count == 4
        assert "p1" not in populated_tree.peers()
        assert len(populated_tree.rows[0]) == 4

    def test_remove_prunes_empty_branches(self, populated_tree):
        populated_tree.remove("p1")
        children = populated_tree.children
        a2 = children[children[0]["core"]]["a2"]
        assert "a1" not in children[a2]  # pruned
        assert "a3" in children[a2]  # still used by p2

    def test_remove_keeps_shared_nodes(self, populated_tree):
        populated_tree.remove("p3")
        children = populated_tree.children
        assert "b1" in children[children[0]["core"]]  # p4 still attached there

    def test_remove_unknown_peer_raises(self, populated_tree):
        with pytest.raises(UnknownPeerError):
            populated_tree.remove("ghost")

    def test_remove_then_reinsert(self, populated_tree):
        populated_tree.remove("p5")
        populated_tree.insert(path("p5", ["core", "lmk"]))
        assert populated_tree.peer_count == 5


class TestDistances:
    def test_branch_router_is_the_trie_nodes_lowest_common_ancestor(self, populated_tree):
        """Where two reported paths merge is where their trie chains meet."""
        tree = populated_tree
        for a, b, branch in (("p1", "p2", "a2"), ("p1", "p3", "core"), ("p3", "p4", "b1")):
            path_a, path_b = path(a, ROUTES[a]), path(b, ROUTES[b])
            assert path_a.routers[-shared_suffix_length(path_a, path_b)] == branch
            chain_b = set(root_path(tree, tree.attachment_node(b)))
            meet = next(n for n in root_path(tree, tree.attachment_node(a)) if n in chain_b)
            assert tree.routers[meet] == branch

    def test_ranking_reads_the_pairwise_formula(self, populated_tree):
        """Every peer's full ranking carries each other peer's ``dtree``."""
        for peer_a in populated_tree.peers():
            ranking = populated_tree.closest_peers(peer_a, k=10)
            assert sorted(peer for peer, _ in ranking) == sorted(set(ROUTES) - {peer_a})
            assert all(distance == dtree(peer_a, peer_b) for peer_b, distance in ranking)

    def test_tree_distance_values(self):
        assert dtree("p3", "p4") == 2
        assert dtree("p1", "p2") == 4
        # p1 -> a1 -> a2 -> core (3 hops) + core -> b1 -> p3 (2 hops).
        assert dtree("p1", "p3") == 5
        assert dtree("p5", "p3") == 3
        assert dtree("p1", "p1") == 0

    def test_all_pairs(self):
        peers = sorted(ROUTES)
        pairs = {(a, b): dtree(a, b) for a in peers for b in peers if a < b}
        assert len(pairs) == 5 * 4 // 2
        assert all(distance >= 2 for distance in pairs.values())
        assert all(dtree(b, a) == d for (a, b), d in pairs.items())


class TestClosestPeers:
    def test_returns_sorted_by_distance(self, populated_tree):
        result = populated_tree.closest_peers("p1", k=4)
        distances = [distance for _, distance in result]
        assert distances == sorted(distances)
        assert len(result) == 4

    def test_nearest_neighbour_is_sibling(self, populated_tree):
        result = populated_tree.closest_peers("p3", k=1)
        assert result == [("p4", 2)]

    def test_excludes_self(self, populated_tree):
        result = populated_tree.closest_peers("p1", k=10)
        assert all(peer != "p1" for peer, _ in result)

    def test_k_larger_than_population(self, populated_tree):
        result = populated_tree.closest_peers("p1", k=50)
        assert len(result) == 4

    def test_k_zero_returns_empty(self, populated_tree):
        assert populated_tree.closest_peers("p1", k=0) == []

    def test_exclude_set_respected(self, populated_tree):
        result = populated_tree.closest_peers("p3", k=3, exclude={"p4"})
        assert all(peer != "p4" for peer, _ in result)

    def test_distances_match_tree_distance(self, populated_tree):
        for peer, distance in populated_tree.closest_peers("p2", k=4):
            assert distance == dtree("p2", peer)

    def test_result_is_truly_the_k_closest(self, populated_tree):
        k = 2
        result = populated_tree.closest_peers("p1", k=k)
        returned = {peer for peer, _ in result}
        all_distances = sorted(dtree("p1", other) for other in ROUTES if other != "p1")
        kth_best = all_distances[k - 1]
        assert all(distance <= kth_best for _, distance in result)

    def test_cold_query_work_is_flat_in_population(self):
        """Index ranges examined plus entries scanned per query, on the
        three-level shape: within ``2k`` plus two per level at every
        population, and no higher on average at 12,800 peers than at 800."""
        k, levels, means = 5, 5, {}
        for population in (800, 12800):
            tree = synthetic_tree(population)
            work = []
            for peer in random.Random(4).sample(tree.peers(), 100):
                tree.closest_peers(peer, k)
                work.append(tree.last_query_visits)
            assert 0 < max(work) <= 2 * k + 2 * levels
            means[population] = sum(work) / len(work)
        assert means[12800] <= means[800] + 1.0


# ---------------------------------------------------------------------------
# Property-based tests: build random path populations and check invariants.
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(paths=populations(12, 1, depth_first(5)))
def test_property_tree_distance_symmetric_and_bounded(paths):
    tree = tree_of(paths)
    hops = {router_path.peer_id: router_path.hop_count for router_path in paths}
    peers = tree.peers()
    for i, peer_a in enumerate(peers):
        for peer_b in peers[i + 1 :]:
            path_a, path_b = reported_path(tree, peer_a), reported_path(tree, peer_b)
            forward = tree_distance(path_a, path_b)
            backward = tree_distance(path_b, path_a)
            assert forward == backward
            assert 2 <= forward
            # dtree can never exceed going all the way up to the landmark and
            # back down: hop_count(a) + hop_count(b).
            assert forward <= hops[peer_a] + hops[peer_b]


@settings(max_examples=40, deadline=None)
@given(tree=random_trees(12, 5), k=st.integers(1, 6))
def test_property_closest_peers_is_optimal_prefix(tree, k):
    """closest_peers(k) returns peers no farther than the true k-th closest."""
    origin = tree.peers()[0]
    others = [peer for peer in tree.peers() if peer != origin]
    own = reported_path(tree, origin)
    true_distances = sorted(tree_distance(own, reported_path(tree, other)) for other in others)
    result = tree.closest_peers(origin, k=k)
    assert len(result) == min(k, len(others))
    if result:
        kth_best = true_distances[len(result) - 1]
        assert all(distance <= kth_best for _, distance in result)
        returned_distances = [distance for _, distance in result]
        assert returned_distances == sorted(returned_distances)


@settings(max_examples=30, deadline=None)
@given(tree=random_trees(12, 5))
def test_property_subtree_counts_consistent_after_removals(tree):
    """Subtree peer counts stay consistent while peers leave one by one."""
    while tree.peer_count > 0:
        assert len(tree.rows[0]) == tree.peer_count
        attached_everywhere = sum(len(attached(tree, node)) for node in live_nodes(tree))
        assert attached_everywhere == tree.peer_count
        tree.remove(tree.peers()[0])


class TestInsertInstrumentation:
    """The insert-side work counters added by the interned arrival engine."""

    def test_insert_counts_touched_and_created(self):
        tree = PathTree(landmark_id="lmk", landmark_router="lmk")
        tree.insert(path("a", ["a1", "core", "lmk"]))
        assert tree.last_insert_nodes_touched == 3
        assert tree.last_insert_nodes_created == 2  # core + a1 (root pre-made)
        tree.insert(path("b", ["a1", "core", "lmk"]))
        assert tree.last_insert_nodes_touched == 3
        assert tree.last_insert_nodes_created == 0  # fully shared prefix
        assert tree.total_insert_nodes_created == 2
        assert tree.total_insert_nodes_touched == 6

    def test_lazy_root_counts_as_created(self):
        tree = PathTree(landmark_id="lmk")
        tree.insert(path("a", ["a1", "lmk"]))
        assert tree.last_insert_nodes_created == 2
        assert tree.last_insert_nodes_touched == 2

    def test_router_count_tracks_churn(self):
        tree = PathTree(landmark_id="lmk", landmark_router="lmk")
        assert tree.router_count == 1
        tree.insert(path("a", ["a2", "a1", "core", "lmk"]))
        assert tree.router_count == 4
        tree.insert(path("b", ["b1", "core", "lmk"]))
        assert tree.router_count == 5
        tree.remove("a")  # prunes the a2/a1 branch
        assert tree.router_count == 3
        tree.remove("b")
        assert tree.router_count == 1

    def test_incremental_aggregates_match_full_scan(self):
        import random as _random

        rng = _random.Random(7)
        tree = PathTree(landmark_id="lm0", landmark_router="lm0")
        alive = []
        for step in range(120):
            if alive and rng.random() < 0.4:
                victim = alive.pop(rng.randrange(len(alive)))
                tree.remove(victim)
            else:
                branch = [rng.randrange(3) for _ in range(rng.randrange(1, 5))]
                tree.insert(make_path(f"peer{step}", 0, branch))
                alive.append(f"peer{step}")
            reachable, stack = 0, [0]
            while stack:  # a full scan: every node the root's children reach
                reachable += 1
                stack.extend(tree.children[stack.pop()].values())
            assert tree.router_count == reachable

    @pytest.mark.parametrize("population", [200, 800, 3200, 12800])
    def test_an_insert_touches_exactly_the_paths_routers(self, population):
        """The O(d) registration bound: a newcomer walks its own 5-router
        path, however many peers the trie already holds."""
        tree = synthetic_tree(population)
        for newcomer in synthetic_paths(50, seed=3, prefix="newcomer"):
            tree.insert(newcomer)
            assert tree.last_insert_nodes_touched == 5

    def test_fresh_nodes_shrink_as_the_trie_fills(self):
        """Denser tries share more prefixes: the same newcomers create fewer
        nodes at 12,800 peers than at 200, and never more than they touch."""
        created = {}
        for population in (200, 12800):
            tree = synthetic_tree(population)
            before = tree.total_insert_nodes_created
            for newcomer in synthetic_paths(50, seed=3, prefix="newcomer"):
                tree.insert(newcomer)
            created[population] = tree.total_insert_nodes_created - before
        assert 0 < created[12800] <= created[200] <= 50 * 5

    def test_a_churn_cycle_reinserts_one_path(self):
        """A leave and re-join touches the re-joining path's 5 routers and
        creates at most those."""
        tree = synthetic_tree(400)
        paths = {path.peer_id: path for path in synthetic_paths(400, seed=2)}
        for peer in random.Random(6).sample(tree.peers(), 30):
            path_of_peer = paths[peer]
            tree.remove(peer)
            tree.insert(path_of_peer)
            assert tree.last_insert_nodes_touched == 5
            assert tree.last_insert_nodes_created <= 5
