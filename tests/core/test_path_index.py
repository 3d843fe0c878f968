"""The sorted per-node index of the path trie, against brute force.

Every node of a :class:`~repro.core.path_tree.PathTree` keeps one sorted row of
``(hop_count, sort_text, peer)`` entries for the peers at or below it, and
closest-peer queries are read off the rows of the origin's ancestor chain.
The state machine below drives random tries through joins, leaves,
re-registrations, handovers and the pruning they cause, and after every step
compares each row with a sorted listing of the model's subtree — on the live
tree and on a :class:`~repro.core.serving.FlatTrie` patched from the tree's
``dirty`` ids — and ``closest_from_node`` with a brute-force ranking, for
arbitrary ``exclude`` sets and ``k`` beyond the population.

CI's ``sharded-equivalence`` matrix entry runs this file under the
``ci-equivalence`` profile (``-m oracle``; the machine pins no example
budget of its own).
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Tuple

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import DiscoverySnapshot, SnapshotPublisher
from repro.core.path import RouterPath
from repro.core.path_tree import PathTree
from repro.core.serving import FlatTrie

from ..oracle import (
    PROFILED,
    Twin,
    attached,
    audit,
    build_plane,
    live_nodes,
    make_path,
    root_path,
    shared_floats,
)

pytestmark = PROFILED

ROOT = "lmk"


def rooted_routers(draw_branch) -> Tuple[str, ...]:
    """A landmark-first router sequence; level ``n`` has three routers."""
    return (ROOT, *(f"{level}.{branch}" for level, branch in enumerate(draw_branch, start=1)))


branches = st.lists(st.integers(0, 2), min_size=0, max_size=5)
peer_numbers = st.integers(0, 11)


def ranking(model: Dict[str, Tuple[str, ...]], origin: Tuple[str, ...], excluded) -> List[Tuple[str, int]]:
    """Every model peer outside ``excluded`` by ``(dtree from origin, repr)``."""
    ranked = []
    for peer, routers in model.items():
        if peer in excluded:
            continue
        shared = 0
        for a, b in zip(origin, routers):
            if a != b:
                break
            shared += 1
        ranked.append(((len(origin) - shared + 1) + (len(routers) - shared + 1), repr(peer), peer))
    return [(peer, distance) for distance, _, peer in sorted(ranked)]


class IndexedTrie(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tree = PathTree(landmark_id=ROOT, landmark_router=ROOT)
        self.tree.dirty = set()
        self.frozen = FlatTrie(ROOT, self.tree)
        self.model: Dict[str, Tuple[str, ...]] = {}

    # ------------------------------------------------------------------ steps

    @rule(number=peer_numbers, branch=branches)
    def register(self, number, branch):
        """A join, or — for a known peer — a re-registration / handover."""
        peer = f"peer{number}"
        routers = rooted_routers(branch)
        self.tree.insert(RouterPath.from_routers(peer, ROOT, routers[::-1]))
        self.model[peer] = routers

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def reregister_in_place(self, data):
        peer = data.draw(st.sampled_from(sorted(self.model)))
        self.tree.insert(RouterPath.from_routers(peer, ROOT, self.model[peer][::-1]))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def leave(self, data):
        peer = data.draw(st.sampled_from(sorted(self.model)))
        self.tree.remove(peer)
        del self.model[peer]

    @rule(data=st.data())
    def query(self, data):
        origin = data.draw(st.sampled_from(live_nodes(self.tree)))
        k = data.draw(st.integers(0, len(self.model) + 3))
        excluded = data.draw(st.sets(st.sampled_from(sorted(self.model)))) if self.model else set()
        routers = [self.tree.routers[node] for node in root_path(self.tree, origin)]
        expected = ranking(self.model, tuple(routers[::-1]), excluded)[:k]
        live = self.tree.closest_from_node(origin, k, excluded)
        frozen = self.frozen.closest_from_node(origin, k, excluded)
        assert live == expected and frozen == expected
        assert shared_floats(live) and shared_floats(frozen)  # not ranking()'s ints

    # ------------------------------------------------------------- invariants

    def expected_rows(self) -> Dict[Tuple[str, ...], List[Tuple[int, str, str]]]:
        rows: Dict[Tuple[str, ...], List[Tuple[int, str, str]]] = {(ROOT,): []}
        for peer, routers in self.model.items():
            for depth in range(1, len(routers) + 1):
                rows.setdefault(routers[:depth], []).append((len(routers), repr(peer), peer))
        return {prefix: sorted(row) for prefix, row in rows.items()}

    @invariant()
    def every_row_lists_its_subtree(self):
        expected = self.expected_rows()
        tree = self.tree
        live = {}
        for node in live_nodes(tree):
            routers = [tree.routers[index] for index in root_path(tree, node)]
            live[tuple(routers[::-1])] = node
        assert set(live) == set(expected)  # pruned routers are gone
        assert tree.router_count == len(live)
        for prefix, node in live.items():
            assert tree.rows[node] == expected[prefix]
            assert sorted(attached(tree, node)) == sorted(
                peer for peer, routers in self.model.items() if routers == prefix
            )
            assert set(tree.children[node]) == {
                other[len(prefix)] for other in expected if other[: len(prefix)] == prefix and len(other) == len(prefix) + 1
            }

    @invariant()
    def patched_snapshot_rows_equal_the_live_rows(self):
        """Refreezing only the dirty ids gives a fresh freeze; holes hold no row."""
        self.frozen = FlatTrie(ROOT, self.tree, self.frozen, self.tree.dirty)
        self.tree.dirty.clear()
        fresh = FlatTrie(ROOT, self.tree)
        assert self.frozen.rows == fresh.rows
        assert self.frozen.parent == fresh.parent
        assert self.frozen.structure() == fresh.structure()
        for index, router in enumerate(self.tree.routers):
            if router is None:
                assert self.frozen.rows[index] == ()
            else:
                assert self.frozen.rows[index] == tuple(self.tree.rows[index])


TestIndexedTrie = IndexedTrie.TestCase


def test_colliding_reprs_never_compare_peers():
    """Peers tied in ``(hops, repr)`` are placed and found without ``<``.

    Which of them a cut through the tie keeps is unspecified; distances,
    the ``(dtree, repr)`` sequence and the population are not.
    """
    tree = PathTree(landmark_id=ROOT, landmark_router=ROOT)
    twins = [Twin(tag) for tag in range(6)]
    for tag, twin in enumerate(twins):
        access = f"access{tag % 2}"
        tree.insert(RouterPath.from_routers(twin, ROOT, [access, "pop", ROOT]))
    tree.insert(RouterPath.from_routers("origin", ROOT, ["access0", "pop", ROOT]))
    everyone = tree.closest_peers("origin", k=10)
    assert [distance for _, distance in everyone] == [2, 2, 2, 4, 4, 4]
    assert {peer for peer, _ in everyone} == set(twins)
    assert {peer for peer, _ in everyone[:3]} == {twins[0], twins[2], twins[4]}
    cut = tree.closest_peers("origin", k=4)
    assert [distance for _, distance in cut] == [2, 2, 2, 4]
    # Leaving finds the right twin among its ties, in every row of its path.
    tree.remove(twins[2])
    tree.insert(RouterPath.from_routers(twins[0], ROOT, ["access1", "pop", ROOT]))  # handover
    assert {peer: d for peer, d in tree.closest_peers("origin", k=10)} == {
        twins[4]: 2, twins[0]: 4, twins[1]: 4, twins[3]: 4, twins[5]: 4,
    }
    assert len(tree.rows[0]) == tree.peer_count == 6


@pytest.mark.parametrize("shard_count", [None, 2])
def test_colliding_reprs_meet_in_cached_lists_and_fills(shard_count):
    """Twins tied in ``(distance, repr)`` are cached and merged without ``<``.

    Three twins on one path under ``lm1`` tie in each other's cached lists;
    a lone peer under ``lm0`` fills from ``lm1`` and ``lm2`` at one estimate
    (2 + 2 + 3 == 2 + 3 + 2), so its fill ties across two streams.  Joins,
    cold queries and fills go through, and a snapshot answers as the plane.
    """
    plane = build_plane(shard_count, 3)
    publisher = SnapshotPublisher(plane)
    twins = [Twin(tag) for tag in range(5)]
    for twin in twins[:3]:
        plane.register_peer(make_path(twin, 1, (0, 0)))
    plane.register_peers([make_path(twins[3], 2, (0,)), make_path(twins[4], 1, (0, 0))])
    neighbors = plane.register_peer(make_path("solo", 0, (0,)))
    assert [distance for _, distance in neighbors] == [7.0, 7.0, 7.0]
    assert {peer for peer, _ in plane.closest_peers("solo", 5)} == set(twins)
    for peer in plane.peers():
        assert len(plane.closest_peers(peer, 7)) == 5  # cold: the walk, then a fill
    plane.unregister_peer(twins[0])
    audit(publisher.publish(), plane)


@pytest.mark.parametrize("shard_count", [None, 2])
def test_pickled_snapshot_answers_cold_queries(shard_count):
    """The path-child skip matches entries by identity: pickling keeps it."""
    plane = build_plane(shard_count, 2, with_distances=False)
    for index in range(40):
        plane.register_peer(make_path(f"p{index}", int(index % 3 == 0), (0, index % 3, index % 7)))
    clone = pickle.loads(pickle.dumps(DiscoverySnapshot.build(plane)))
    for peer in plane.peers():
        assert clone.closest_peers(peer, 12) == plane.closest_peers(peer, 12)
