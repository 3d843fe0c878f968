"""Property-based tests for the management server's end-to-end invariants.

These complement the unit tests with randomly generated peer populations:
whatever paths peers report, the server must keep its answers consistent with
the underlying path trees, symmetric, and stable under arrival order.  The
populations and the server are the oracle harness's (``tests/oracle.py``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.path import tree_distance

from ..oracle import build_plane, landmark_distances, populations

#: Two landmarks, region and pop in 0..2, then an access router or not: a
#: branch is ``(0, region)``, ``(0, region, pop)`` or ``(0, region, pop, 0)``.
POPULATIONS = populations(
    14,
    2,
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).map(
        lambda drawn: (0, drawn[0], drawn[1], 0)[: 2 + drawn[2]]
    ),
)
BETWEEN = landmark_distances(2)[("lm0", "lm1")]


def build_server(paths, neighbor_set_size=3):
    server = build_plane(None, 2, k=neighbor_set_size)
    for path in paths:
        server.register_peer(path)
    return server


@settings(max_examples=40, deadline=None)
@given(paths=POPULATIONS)
def test_property_estimates_symmetric_and_consistent_with_paths(paths):
    """estimate_distance is symmetric and matches the pairwise path formula."""
    server = build_server(paths)
    by_peer = {path.peer_id: path for path in paths}
    peers = list(by_peer)
    for i, peer_a in enumerate(peers):
        for peer_b in peers[i + 1 :]:
            forward = server.estimate_distance(peer_a, peer_b)
            backward = server.estimate_distance(peer_b, peer_a)
            assert forward == backward
            if by_peer[peer_a].landmark_id == by_peer[peer_b].landmark_id:
                expected = tree_distance(by_peer[peer_a], by_peer[peer_b])
                assert forward == expected
            else:
                assert forward == by_peer[peer_a].hop_count + BETWEEN + by_peer[peer_b].hop_count


@settings(max_examples=40, deadline=None)
@given(paths=POPULATIONS, k=st.integers(1, 5))
def test_property_neighbor_answers_are_valid(paths, k):
    """Neighbour lists never contain the peer itself, duplicates, or bad distances."""
    server = build_server(paths, neighbor_set_size=k)
    for path in paths:
        answer = server.closest_peers(path.peer_id, k=k)
        ids = [peer for peer, _ in answer]
        assert path.peer_id not in ids
        assert len(ids) == len(set(ids))
        assert len(ids) <= k
        for peer, distance in answer:
            assert distance >= 2.0
            assert distance == server.estimate_distance(path.peer_id, peer)


@settings(max_examples=25, deadline=None)
@given(paths=POPULATIONS)
def test_property_arrival_order_does_not_change_tree_distances(paths):
    """Registering the same peers in any order yields the same distance estimates."""
    forward_server = build_server(paths)
    reverse_server = build_server(list(reversed(paths)))
    peers = [path.peer_id for path in paths]
    for i, peer_a in enumerate(peers):
        for peer_b in peers[i + 1 :]:
            assert forward_server.estimate_distance(peer_a, peer_b) == reverse_server.estimate_distance(
                peer_a, peer_b
            )


@settings(max_examples=25, deadline=None)
@given(paths=POPULATIONS)
def test_property_unregistering_everyone_empties_the_server(paths):
    """Register-then-unregister leaves no residual state behind."""
    server = build_server(paths)
    for path in paths:
        server.unregister_peer(path.peer_id)
    assert server.peer_count == 0
    for landmark in server.landmarks():
        assert server.tree(landmark).peer_count == 0
        assert not server.tree(landmark).routers or not server.tree(landmark).rows[0]
