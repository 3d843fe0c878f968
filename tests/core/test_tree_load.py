"""``PathTree.load`` against one ``PathTree.insert`` per path.

A batch that only lands in trees holding no peers, and neither
re-registers nor repeats a peer, is loaded: the rows are built with one
sort instead of one bisect and memmove per path.  The differential test
below runs every drawn batch through ``insert_paths`` on one server and
through the per-path route on a twin, and compares everything a load has
to reproduce: the node columns (ids, routers, parents, depths, children
order), every row entry by entry with ``is``, registration order and
attachment, the interner table, the insert counters, ``ServerStats``,
the membership generation and the change record.  Peers whose ``repr``
collides make the newer-first tie rule observable; unary chains make
deep trees; free node ids left by a tree that emptied must be reused in
the same order.  Paths and branches are the oracle harness's
(``tests/oracle.py``).  CI's ``sharded-equivalence`` matrix entry runs the
differential test under the ``ci-equivalence`` profile (``-m oracle``); it
never runs fewer than 150 examples.
"""

from __future__ import annotations

from typing import Dict, List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ManagementServer
from repro.core import DiscoverySnapshot, SnapshotPublisher
from repro.core.path_tree import PathTree
from repro.exceptions import RegistrationError

from ..oracle import PROFILED, Twin, branches, landmark_name, make_path, path

#: Shared across examples: a peer's identity is what the rows must hold.
TWINS = tuple(Twin(tag) for tag in range(3))
NAMES = tuple(f"p{index}" for index in range(8))


@st.composite
def cases(draw):
    publish = draw(st.booleans())
    peers = draw(st.sampled_from((NAMES, TWINS + NAMES[:4])))
    landmarks = draw(st.integers(1, 4))
    spec = st.tuples(st.sampled_from(peers), st.integers(0, landmarks - 1), branches(12))
    before = draw(st.lists(spec, max_size=6))
    if draw(st.booleans()):  # a cold batch: every tree empties first, no peer twice
        leavers = [peer for peer, _, _ in before]
        batch = draw(st.lists(spec, min_size=1, max_size=10, unique_by=lambda spec: spec[0]))
    else:
        leavers = draw(st.lists(st.sampled_from(peers), max_size=6))
        batch = draw(st.lists(spec, min_size=1, max_size=10))
    twins = [spec for spec in batch if isinstance(spec[0], Twin)]
    if twins and draw(st.booleans()):  # twins at one router tie in every row
        _, index, branch = twins[0]
        batch = [
            (peer, index, branch) if isinstance(peer, Twin) else (peer, i, b)
            for peer, i, b in batch
        ]
    return landmarks, before, leavers, batch, publish


def build(landmarks: int, publish: bool):
    plane = ManagementServer(neighbor_set_size=3, maintain_cache=publish)
    for index in range(landmarks):
        plane.register_landmark(landmark_name(index), landmark_name(index))
    return plane, SnapshotPublisher(plane) if publish else None


def prepare(plane, before, leavers) -> None:
    for peer, index, branch in before:
        plane.insert_paths([make_path(peer, index, branch)])
    for peer in leavers:  # some trees empty out and leave free node ids behind
        if plane.has_peer(peer):
            plane.unregister_peer(peer)


def arrive(plane, publisher, batch) -> None:
    paths = [make_path(peer, index, branch) for peer, index, branch in batch]
    if publisher is None:
        plane.insert_paths(paths)
    else:
        publisher.plane.register_peers(paths)


def loadable(plane, batch) -> bool:
    peers = [peer for peer, _, _ in batch]
    return (
        len(set(peers)) == len(peers)
        and not any(plane.has_peer(peer) for peer in peers)
        and not any(plane.tree(landmark_name(index)).peer_count for _, index, _ in batch)
    )


def count_inserts(plane) -> List[int]:
    """Count ``PathTree.insert`` calls on this plane's trees from now on."""
    calls = [0]
    for name in plane.landmarks():
        tree = plane.tree(name)
        real = tree.insert

        def counted(path, _real=real):
            calls[0] += 1
            return _real(path)

        tree.insert = counted
    return calls


def assert_same_tree(tree: PathTree, twin: PathTree) -> None:
    assert len(tree.routers) == len(twin.routers)
    assert tree._free_ids == twin._free_ids
    assert tree.router_count == twin.router_count
    assert (tree.routers, tree.parent, tree.depth) == (twin.routers, twin.parent, twin.depth)
    assert [list(children.items()) for children in tree.children] == [
        list(children.items()) for children in twin.children
    ]
    own_entry: Dict[int, tuple] = {}
    for row, other in zip(tree.rows, twin.rows):
        assert len(row) == len(other)
        for entry, expected in zip(row, other):
            assert entry[:2] == expected[:2] and entry[2] is expected[2]
            # One entry object per peer, shared by every row on its root path.
            assert own_entry.setdefault(id(entry[2]), entry) is entry
    assert list(tree._attachment.items()) == list(twin._attachment.items())
    assert (tree.total_insert_nodes_created, tree.total_insert_nodes_touched) == (
        twin.total_insert_nodes_created, twin.total_insert_nodes_touched
    )
    assert (tree.last_insert_nodes_created, tree.last_insert_nodes_touched) == (
        twin.last_insert_nodes_created, twin.last_insert_nodes_touched
    )


def assert_same_plane(plane, twin) -> None:
    assert plane.peers() == twin.peers()
    for name in plane.landmarks():
        assert_same_tree(plane.tree(name), twin.tree(name))
    assert plane._interner.table() == twin._interner.table()
    assert plane.total_insert_work() == twin.total_insert_work()
    assert plane.stats == twin.stats
    assert plane._cache.membership_generation == twin._cache.membership_generation
    assert plane._cache.lists == twin._cache.lists
    assert (plane.changes is None) == (twin.changes is None)
    if plane.changes is not None:
        assert plane.changes.nodes == twin.changes.nodes
        assert list(plane.changes.peers) == list(twin.changes.peers)
        assert plane.changes.owners == twin.changes.owners


@PROFILED
@settings(max_examples=max(150, settings.default.max_examples), deadline=None, derandomize=True)
@given(case=cases())
@example(case=(1, [], [], [(TWINS[0], 0, [0]), ("p0", 0, [1]), (TWINS[1], 0, [0])], False))
def test_a_load_builds_what_insert_builds(case):
    landmarks, before, leavers, batch, publish = case
    plane, publisher = build(landmarks, publish)
    twin, twin_publisher = build(landmarks, publish)
    twin._load_groups = lambda paths: None  # the twin inserts path by path
    prepare(plane, before, leavers)
    prepare(twin, before, leavers)
    should_load = loadable(plane, batch)

    calls = count_inserts(plane)
    arrive(plane, publisher, batch)
    arrive(twin, twin_publisher, batch)
    assert calls[0] == (0 if should_load else len(batch))
    assert_same_plane(plane, twin)
    if publisher is not None:
        published = publisher.publish()
        assert published == twin_publisher.publish()
        assert published == DiscoverySnapshot.build(plane)


def test_colliding_reprs_load_newest_first():
    """Twins tied in ``(hops, repr)`` sit newest first in every row, as insert puts them."""
    paths = [path(twin, ["access", "pop", "lm"]) for twin in TWINS]
    loaded = PathTree("lm", "lm")
    loaded.load(paths)
    inserted = PathTree("lm", "lm")
    for twin_path in paths:
        inserted.insert(twin_path)
    for node in (0, loaded.attachment_node(TWINS[0])):
        assert [entry[2] for entry in loaded.rows[node]] == list(reversed(TWINS))
    assert_same_tree(loaded, inserted)


class TestInsertCalls:
    """Which batches load and which insert path by path."""

    def populated(self):
        plane = ManagementServer(neighbor_set_size=3)
        for index in range(2):
            plane.register_landmark(landmark_name(index), landmark_name(index))
        plane.register_peer(make_path("old", 0, [0]))
        return plane

    @pytest.mark.parametrize(
        "batch",
        [
            [("p0", 1, [0]), ("old", 1, [1])],  # re-registers a peer
            [("p0", 1, [0]), ("p1", 1, [1]), ("p0", 1, [2])],  # repeats a peer
            [("p0", 1, [0]), ("p1", 0, [1])],  # lands in a tree that holds a peer
        ],
    )
    def test_a_batch_that_cannot_load_inserts_each_path(self, batch):
        plane = self.populated()
        calls = count_inserts(plane)
        plane.register_peers([make_path(*spec) for spec in batch])
        assert calls[0] == len(batch)

    def test_a_cold_batch_makes_no_insert(self):
        plane = self.populated()
        calls = count_inserts(plane)
        plane.register_peers([make_path(f"p{i}", 1, [i % 3, 0]) for i in range(6)])
        assert calls[0] == 0
        assert plane.tree(landmark_name(1)).peer_count == 6


class TestLoadRejects:
    def test_a_tree_that_holds_peers(self):
        tree = PathTree("lm0", "lm0")
        tree.insert(make_path("p0", 0, [0]))
        with pytest.raises(RegistrationError, match="holds 1 peers"):
            tree.load([make_path("p1", 0, [1])])

    def test_a_repeated_peer_or_a_foreign_root_changes_nothing(self):
        tree = PathTree("lm0")
        for batch in (
            [make_path("p0", 0, [0]), make_path("p0", 0, [1])],
            [make_path("p0", 0, [0]), make_path("p1", 1, [1])],
            [make_path("p0", 0, [0]), path("p1", ["a", "lmX"], "lm0")],
        ):
            with pytest.raises(RegistrationError):
                tree.load(batch)
            assert not tree.routers and tree.peer_count == 0
