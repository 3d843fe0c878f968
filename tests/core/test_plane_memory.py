"""What a registered peer costs a plane, counted in bytes.

The per-peer state (a path in the landmark trie, a cached neighbour list and
its reverse-index edges, the registry entry) is what makes a lookup O(1),
and it is most of a large plane's memory.  These tests pin it with
``tracemalloc`` on a single server at 3,200 synthetic peers, k = 5: built by
registration, and rebuilt by ``restore_state``.  The bounds are the measured
figures plus 10 % headroom, so a representation that gives back a set per
reverse-index target, a float per cached distance, a dict per path or a
duplicate per-peer registry fails here first.  A sharded plane's cache
holds the same shared floats whatever backend answered its shards.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro import ManagementServer
from repro.core import ShardedManagementServer, shard_factory_for
from repro.core.neighbor_cache import SHARED_DISTANCES
from repro.workloads import synthetic_paths

PEERS = 3_200
#: Measured 1,172 bytes per peer at registration and 1,148 after a restore
#: (CPython 3.11, 64-bit); the representation before lists, shared floats,
#: slotted paths and one registry per layer took 1,793 and 1,609.
REGISTERED_BOUND = 1_280
RESTORED_BOUND = 1_260
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
def test_a_restored_peer_costs_the_pinned_bytes():
    snapshot = registered_server(synthetic_paths(PEERS)).snapshot_state()

    def restore() -> ManagementServer:
        server = ManagementServer(neighbor_set_size=5)
        server.restore_state(snapshot)
        return server

    server, per_peer = traced_bytes_per_peer(restore)
    assert server.snapshot_state() == snapshot
    assert per_peer <= RESTORED_BOUND, f"{per_peer:.0f} bytes per restored peer"


def test_cached_distances_are_the_shared_floats():
    live = registered_server(synthetic_paths(PEERS))
    restored = ManagementServer(neighbor_set_size=5)
    restored.restore_state(live.snapshot_state())
    for server in (live, restored):
        distances = cached_distances(server)
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
