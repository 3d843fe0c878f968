"""What a registered peer costs a plane, counted in bytes.

The per-peer state (a path in the landmark trie, a cached neighbour list and
its reverse-index edges, the registry entry) is what makes a lookup O(1),
and it is most of a large plane's memory.  These tests pin it with
``tracemalloc`` on a single server at 3,200 synthetic peers, k = 5, built by
registration, and on a cache-less shard rebuilt from its journal.
The bounds are the measured figures plus 10 % headroom, so a representation
that gives back a set per reverse-index target, a float per cached distance,
a dict per path or a duplicate per-peer registry fails here first.  A
sharded plane's cache holds the same shared floats whatever backend
answered its shards, and so do a snapshot's cold answer and a list topped
up by a cross-landmark fill.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro import ManagementServer
from repro.core import ShardedManagementServer, SnapshotPublisher, shard_factory_for
from repro.core.codec import encode_path
from repro.core.neighbor_cache import SHARED_DISTANCES
from repro.core.remote import ShardRequestHandler
from repro.workloads import synthetic_paths

PEERS = 3_200
#: Measured 1,040 bytes per peer at registration (CPython 3.11, 64-bit); an
#: interner that also held a ``(sort_text, compact_index)`` tuple per peer
#: took 1,125, and the representation before lists, shared floats, slotted
#: paths and one registry per layer took 1,793.
REGISTERED_BOUND = 1_150
#: Measured 518 bytes per peer on a cache-less shard that replayed its
#: journal (603 while the interner held a tuple per peer): the path, the
#: trie entry and attachment, the interned key.
RELOADED_SHARD_BOUND = 570
#: Object and dict layouts differ between interpreters, so the byte bounds
#: hold where they were measured; the shared-float case runs everywhere.
measured_interpreter = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bytes per peer are pinned for CPython 3.11",
)


def traced_bytes_per_peer(build):
    """``(result, bytes still allocated per peer)`` of ``build()``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, (after - before) / PEERS


def registered_server(paths) -> ManagementServer:
    server = ManagementServer(neighbor_set_size=5)
    server.register_landmark("lmk", "lmk")
    server.register_peers(paths)
    return server


def cached_distances(server):
    return [entry[0] for entries in server._cache.lists.values() for entry in entries]


@measured_interpreter
def test_a_registered_peer_costs_the_pinned_bytes():
    paths = synthetic_paths(PEERS)  # the caller's objects: built outside the trace
    server, per_peer = traced_bytes_per_peer(lambda: registered_server(paths))
    assert server.peer_count == PEERS
    assert per_peer <= REGISTERED_BOUND, f"{per_peer:.0f} bytes per registered peer"


@measured_interpreter
def test_a_peer_a_shard_reloads_from_its_fold_costs_the_pinned_bytes():
    """What a restart's journal rebuilds: one landmark and
    one ``insert_paths`` of encoded paths, decoded and loaded by the shard's
    request handler."""
    fold = [
        ("register_landmark", ("lmk", "lmk")),
        ("insert_paths", (tuple(encode_path(path) for path in synthetic_paths(PEERS)), False)),
    ]

    def reload() -> ShardRequestHandler:
        handler = ShardRequestHandler(5)
        for op, args in fold:
            handler.handle(1, op, args)
        return handler

    handler, per_peer = traced_bytes_per_peer(reload)
    assert handler.server.peer_count == PEERS
    assert per_peer <= RELOADED_SHARD_BOUND, f"{per_peer:.0f} bytes per reloaded peer"


def test_cached_distances_are_the_shared_floats():
    distances = cached_distances(registered_server(synthetic_paths(PEERS)))
    assert len(distances) == PEERS * 5
    assert all(distance is SHARED_DISTANCES[distance] for distance in distances)
    assert len({id(distance) for distance in distances}) == len(set(distances)) <= 4


@pytest.mark.parametrize("backend", ["inline", "socket"])
def test_a_sharded_planes_cached_distances_are_the_shared_floats(backend):
    """Distances a remote shard sends back are decoded floats, one object
    each, until the client reads them through ``SHARED_DISTANCES``."""
    with ShardedManagementServer(
        2, neighbor_set_size=5, shard_factory=shard_factory_for(backend, 5)
    ) as plane:
        plane.register_landmark("lmk", "lmk")
        plane.register_peers(synthetic_paths(400))
        distances = cached_distances(plane)
        assert len(distances) == 400 * 5
        assert all(distance is SHARED_DISTANCES[distance] for distance in distances)
        assert len({id(distance) for distance in distances}) == len(set(distances)) <= 4


def test_a_snapshots_cold_answers_carry_the_shared_floats():
    """A snapshot's index query reads its distances through
    ``SHARED_DISTANCES``, as the live plane's does: an answer beyond the
    cached lists holds one float object per distance."""
    snapshot = SnapshotPublisher(registered_server(synthetic_paths(400))).publish()
    for peer in snapshot.peers()[::20]:
        distances = [distance for _, distance in snapshot.closest_peers(peer, 10)]
        assert len(distances) == 10
        assert all(distance is SHARED_DISTANCES[distance] for distance in distances)


@pytest.mark.parametrize("backend", [None, "socket"])
def test_a_list_topped_up_by_a_fill_carries_the_shared_floats(backend):
    """A fill's estimates — ``base + hops`` on one server, decoded floats
    from a remote shard — reach a neighbour list as the shared floats."""
    distances = {("lmA", "lmC"): 2.0}
    if backend is None:
        plane = ManagementServer(neighbor_set_size=5, landmark_distances=distances)
    else:
        plane = ShardedManagementServer(
            2,
            neighbor_set_size=5,
            landmark_distances=distances,
            shard_factory=shard_factory_for(backend, 5),
        )
    with plane:
        for landmark in ("lmA", "lmC"):
            plane.register_landmark(landmark, landmark)
        plane.register_peers(synthetic_paths(40, landmark="lmC", prefix="c"))
        plane.register_peers(synthetic_paths(3, landmark="lmA", prefix="a"))
        for peer in ("a0", "a1", "a2"):  # two local neighbours, three filled
            for pairs in (plane.neighbor_list(peer), plane.closest_peers(peer, 8)):
                assert [plane.peer_landmark(other) for other, _ in pairs][2:] == ["lmC"] * (len(pairs) - 2)
                assert all(distance is SHARED_DISTANCES[distance] for _, distance in pairs)
