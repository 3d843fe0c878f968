"""Oracle tests for the ``closest_peers`` query of the path trie.

The query must return exactly what a brute-force ranking over
every peer's ``dtree`` (:func:`~repro.core.path.tree_distance` of the
two reported paths) would (same peers, same distances, same
``(dtree, repr)`` tie-break order), while doing work — index ranges examined
plus row entries scanned, ``last_query_visits`` — that depends on ``k`` and
the origin's depth, not on the population or the size of a tie.  The
random tries are the oracle harness's (``tests/oracle.py::random_trees``),
shared with the path-tree properties.  The two brute-force properties are
:data:`~tests.oracle.PROFILED`: CI's inline oracle entry (``-m oracle``)
runs them at the ``ci-equivalence`` budget, tier-1 at the default one;
neither goes below the floor each pins.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.path import PeerId, tree_distance
from repro.core.path_tree import PathTree

from ..oracle import PROFILED, attached, path, random_trees, reported_path, root_path


def _oracle_ranking(tree: PathTree, origin: PeerId, k: int) -> List[Tuple[PeerId, int]]:
    """Brute-force k-closest: the tree distance to every other peer, ranked."""
    own = reported_path(tree, origin)
    distances: Dict[PeerId, int] = {
        peer: tree_distance(own, reported_path(tree, peer))
        for peer in tree.peers()
        if peer != origin
    }
    ranked = sorted(distances.items(), key=lambda item: (item[1], repr(item[0])))
    return ranked[:k]


@PROFILED
@settings(max_examples=max(60, settings.default.max_examples), deadline=None)
@given(tree=random_trees(25, 7, churn=True), k=st.integers(1, 8))
def test_property_matches_brute_force_oracle(tree, k):
    """closest_peers == the brute-force ranking, byte for byte."""
    if tree.peer_count < 2:
        return
    for origin in tree.peers():
        assert tree.closest_peers(origin, k=k) == _oracle_ranking(tree, origin, k)


@PROFILED
@settings(max_examples=max(30, settings.default.max_examples), deadline=None)
@given(tree=random_trees(25, 7, churn=True), k=st.integers(1, 5), data=st.data())
def test_property_exclude_set_respected_against_oracle(tree, k, data):
    """closest_peers(exclude=...) == the brute-force ranking less the
    excluded peers: up to three, drawn from the peers attached on the
    origin's root path and off it, and in half the examples an id the tree
    does not hold.  That id widens the scan bound (``k + len(excluded)``)
    without hiding a peer, so the other half run at the tight bound."""
    origin = data.draw(st.sampled_from(tree.peers()))
    ancestors = root_path(tree, tree.attachment_node(origin))
    on_chain = [peer for node in ancestors for peer in attached(tree, node) if peer != origin]
    off_chain = [peer for peer in tree.peers() if peer != origin and peer not in on_chain]
    excluded = set()
    for group in (on_chain, off_chain):
        if group and len(excluded) < 3:
            excluded |= data.draw(st.sets(st.sampled_from(group), max_size=3 - len(excluded)))
    if data.draw(st.booleans()):
        excluded.add("absent")
    result = tree.closest_peers(origin, k=k, exclude=excluded)
    oracle = [entry for entry in _oracle_ranking(tree, origin, tree.peer_count) if entry[0] not in excluded]
    assert result == oracle[:k]


class TestVisitInstrumentation:
    def _skewed_tree(self, heavy_peers: int = 400) -> PathTree:
        """Origin on a tiny branch next to one huge, deep sibling chain.

        The sibling subtree is a long spine with one peer per node, so peer
        distances from the origin strictly increase with depth.  The
        pre-optimisation query scanned the entire spine as soon as the walk
        reached the shared ancestor; the count-guided search must stop after
        the handful of closest candidates.
        """
        tree = PathTree(landmark_id="lmk", landmark_router="lmk")
        tree.insert(path("origin", ["o1", "fork", "core", "lmk"]))
        tree.insert(path("buddy", ["o1", "fork", "core", "lmk"]))
        spine = [f"s{index}" for index in range(heavy_peers)]
        for index in range(heavy_peers):
            routers = list(reversed(spine[: index + 1])) + ["fork", "core", "lmk"]
            tree.insert(path(f"deep{index}", routers))
        return tree

    def test_skewed_tree_visits_fraction_of_nodes(self):
        tree = self._skewed_tree()
        total_nodes = tree.router_count
        result = tree.closest_peers("origin", k=3)
        assert len(result) == 3
        assert tree.last_query_visits > 0
        # A subtree scan reads nearly every router of this shape; the index
        # reads the closest few entries off the origin's ancestors' rows.
        assert tree.last_query_visits < total_nodes // 10

    def test_visits_accumulate(self):
        tree = self._skewed_tree(heavy_peers=50)
        tree.closest_peers("origin", k=2)
        first = tree.last_query_visits
        tree.closest_peers("origin", k=2)
        assert tree.last_query_visits == first
        assert tree.total_query_visits >= 2 * first

    def test_exhaustive_query_reads_each_ancestor_row_at_most_once(self):
        """``k`` beyond the population: every hop value of every ancestor
        row is opened once and every entry scanned at most once — work
        bounded by the rows on the origin's root path, not by the trie."""
        tree = self._skewed_tree(heavy_peers=30)
        assert len(tree.closest_peers("origin", k=10_000)) == tree.peer_count - 1
        bound = 0
        node = tree.attachment_node("origin")
        while node >= 0:
            bound += len(tree.rows[node]) + len({hops for hops, _, _ in tree.rows[node]})
            node = tree.parent[node]
        assert 0 < tree.last_query_visits <= bound

    @staticmethod
    def _hierarchy(chain: int, pops: int = 6, accesses: int = 8, per_access: int = 1) -> PathTree:
        """lmk -> ``chain`` unary routers -> core -> pops -> access routers."""
        tree = PathTree(landmark_id="lmk", landmark_router="lmk")
        spine = ["core"] + [f"c{index}" for index in range(chain)] + ["lmk"]
        for pop in range(pops):
            for access in range(accesses):
                for peer in range(per_access):
                    routers = [f"access-{pop}-{access}", f"pop-{pop}", *spine]
                    tree.insert(path(f"peer-{pop}-{access}-{peer}", routers))
        return tree

    def test_unary_chain_and_population_add_no_visits(self):
        """Ancestors that add no peer (a landmark -> core chain) are skipped
        by row length, and a bigger tie at the k-th distance is not walked:
        the count does not move with the chain and stays within ``4k``."""
        counts = []
        for chain, per_access in ((0, 1), (40, 1), (0, 30), (40, 30)):
            tree = self._hierarchy(chain, per_access=per_access)
            answer = tree.closest_peers("peer-3-3-0", k=5)
            assert len(answer) == 5
            counts.append(tree.last_query_visits)
        assert counts[0] == counts[1] and counts[2] == counts[3]
        assert max(counts) <= 4 * 5

    def test_range_mostly_held_by_the_path_child_is_scanned_for_2k_entries(self):
        """The documented worst case: the origin's own access router holds
        most of the pop's hop range and the other candidates sort last.
        The scan skips what the path child holds — fewer than ``k`` eligible
        peers, or the query had ended a distance earlier — then takes what
        it needs: at most ``2k + len(exclude)`` entries per range, however
        many peers the sibling holds."""
        k = 5
        counts = []
        for siblings in (3, 3000):
            tree = PathTree(landmark_id="lmk", landmark_router="lmk")
            for index in range(k):  # the origin and k - 1 co-located peers
                tree.insert(path(f"a{index}", ["own", "pop", "lmk"]))
            for index in range(siblings):
                tree.insert(path(f"z{index}", ["other", "pop", "lmk"]))
            answer = tree.closest_peers("a0", k=k)
            assert [peer for peer, _ in answer] == ["a1", "a2", "a3", "a4", "z0"]
            counts.append(tree.last_query_visits)
        assert counts[0] == counts[1]
        ranges = 2  # hop 3 at ``own`` and at ``pop``
        assert counts[0] <= ranges * (1 + 2 * k + 1)

    def test_empty_subtrees_never_visited(self):
        """Routers left peerless by departures are skipped via the counts."""
        tree = PathTree(landmark_id="lmk", landmark_router="lmk")
        tree.insert(path("a", ["a1", "core", "lmk"]))
        tree.insert(path("b", ["b1", "core", "lmk"]))
        tree.insert(path("c", ["c1", "c2", "core", "lmk"]))
        result = tree.closest_peers("a", k=2)
        assert [peer for peer, _ in result] == ["b", "c"]
        with pytest.raises(Exception):
            tree.closest_peers("ghost", k=1)
