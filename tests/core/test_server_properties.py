"""Property-based tests for the management server's end-to-end invariants.

These complement the unit tests with randomly generated peer populations:
whatever paths peers report, the server must keep its answers consistent with
the underlying path trees, symmetric, and stable under arrival order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.management_server import ManagementServer
from repro.core.path import RouterPath, tree_distance


@st.composite
def peer_populations(draw):
    """Random peer populations over a 2-landmark, 3-level access hierarchy."""
    landmark_of = {}
    paths = []
    n_peers = draw(st.integers(2, 14))
    for index in range(n_peers):
        landmark = draw(st.sampled_from(["lmA", "lmB"]))
        region = draw(st.integers(0, 2))
        pop = draw(st.integers(0, 2))
        depth = draw(st.integers(0, 2))
        routers = []
        if depth >= 2:
            routers.append(f"{landmark}-acc-{region}-{pop}")
        if depth >= 1:
            routers.append(f"{landmark}-pop-{region}-{pop}")
        routers.extend([f"{landmark}-region-{region}", f"{landmark}-core", landmark])
        peer_id = f"peer{index}"
        landmark_of[peer_id] = landmark
        paths.append(RouterPath.from_routers(peer_id, landmark, routers))
    return paths, landmark_of


def build_server(paths, neighbor_set_size=3, maintain_cache=True):
    server = ManagementServer(
        neighbor_set_size=neighbor_set_size,
        maintain_cache=maintain_cache,
        landmark_distances={("lmA", "lmB"): 6.0},
    )
    server.register_landmark("lmA", "lmA")
    server.register_landmark("lmB", "lmB")
    for path in paths:
        server.register_peer(path)
    return server


@settings(max_examples=40, deadline=None)
@given(population=peer_populations())
def test_property_estimates_symmetric_and_consistent_with_paths(population):
    """estimate_distance is symmetric and matches the pairwise path formula."""
    paths, landmark_of = population
    server = build_server(paths)
    by_peer = {path.peer_id: path for path in paths}
    peers = list(by_peer)
    for i, peer_a in enumerate(peers):
        for peer_b in peers[i + 1 :]:
            forward = server.estimate_distance(peer_a, peer_b)
            backward = server.estimate_distance(peer_b, peer_a)
            assert forward == backward
            if landmark_of[peer_a] == landmark_of[peer_b]:
                expected = tree_distance(by_peer[peer_a], by_peer[peer_b])
                assert forward == expected
            else:
                assert forward == by_peer[peer_a].hop_count + 6.0 + by_peer[peer_b].hop_count


@settings(max_examples=40, deadline=None)
@given(population=peer_populations(), k=st.integers(1, 5))
def test_property_neighbor_answers_are_valid(population, k):
    """Neighbour lists never contain the peer itself, duplicates, or bad distances."""
    paths, _ = population
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
@given(population=peer_populations())
def test_property_arrival_order_does_not_change_tree_distances(population):
    """Registering the same peers in any order yields the same distance estimates."""
    paths, _ = population
    forward_server = build_server(paths)
    reverse_server = build_server(list(reversed(paths)))
    peers = [path.peer_id for path in paths]
    for i, peer_a in enumerate(peers):
        for peer_b in peers[i + 1 :]:
            assert forward_server.estimate_distance(peer_a, peer_b) == reverse_server.estimate_distance(
                peer_a, peer_b
            )


@settings(max_examples=25, deadline=None)
@given(population=peer_populations())
def test_property_unregistering_everyone_empties_the_server(population):
    """Register-then-unregister leaves no residual state behind."""
    paths, _ = population
    server = build_server(paths)
    for path in paths:
        server.unregister_peer(path.peer_id)
    assert server.peer_count == 0
    for landmark in server.landmarks():
        assert server.tree(landmark).peer_count == 0
        assert server.tree(landmark).root is None or not server.tree(landmark).root.row
