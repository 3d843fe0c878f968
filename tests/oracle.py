"""One harness for every plane oracle: paths, planes, ops, workloads, audit.

The byte-identical oracles — sharded == single server, snapshot == live
plane, arrival engine == brute force, load == insert, cursor kernel ==
bisecting kernel — drive their planes through this module, so they share
one vocabulary:

* **One path shape.** :func:`make_path` names each router by its prefix
  under ``lm<i>`` (one trie per landmark); the 5-router access hierarchy
  ``(region, pop, access)`` is ``branch = (0, region, pop, access)``.
  :func:`path` builds a path from explicit routers.
* **One plane builder.** :func:`build_plane` makes the single server
  (``shard_count=None``) or a sharded coordinator over any shard
  ``backend``: ``inline`` (the default), ``process``, ``socket``, ``chaos`` (process shards on the
  :data:`CHAOS_FAULTS` crash plan) or ``socket-chaos`` (socket shards on
  :data:`SOCKET_CHAOS_FAULTS`).
* **One op vocabulary.** :func:`apply_op` applies ``arrive``, ``batch``,
  ``depart``, ``query``, ``cold``, ``bounce`` and ``publish`` and returns
  an error as a value, so two planes are compared op by op with ``==``.
  :func:`ops` draws op lists for hypothesis, :func:`random_op` draws the
  ops of a fixed seeded workload.
* **One audit.** :func:`audit` compares the read surface two planes share;
  the reference is a :class:`ManagementServer` driven with the same ops, or
  fed the surviving registrations (:func:`reference_for`).

Write a new oracle by drawing :func:`cases`, building its planes with
:func:`build_plane`, applying every op with :func:`apply_op` to both sides
and ending with :func:`audit`.  Mark it :data:`PROFILED` when it takes its
example budget from ``HYPOTHESIS_PROFILE``: CI's inline oracle entry
selects ``-m oracle``.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import pytest
from hypothesis import strategies as st

from repro.core import (
    DegradedResult,
    DiscoverySnapshot,
    ManagementServer,
    ShardedManagementServer,
)
from repro.core.neighbor_cache import SHARED_DISTANCES
from repro.core.path import RouterPath
from repro.core.path_tree import PathTree
from repro.core.remote import BACKENDS, RecoveryPolicy, shard_factory_for

from .chaos import ChaosShardBackend, Fault, FaultPlan

#: The marker CI's inline oracle entry selects (``-m oracle``).
PROFILED = pytest.mark.oracle

#: Every shard backend a plane oracle runs on; the inline one is selected by
#: ``-m oracle`` at the high example budget.
PLANE_BACKENDS = (
    pytest.param("inline", marks=PROFILED),
    *(backend for backend in BACKENDS if backend != "inline"),
    "chaos",
    "socket-chaos",
)

#: Levels below the landmark's core of the 5-router access hierarchy.
SHAPE = (3, 3, 4)

# The scripted fault plan every chaos shard runs: an early crash (hits any
# shard that owns a landmark and then sees traffic — the landmark
# registration itself is op 1), a mid-workload crash-after (the op is
# acknowledged and journaled, then the worker dies: the crash-between-ops
# case), and a late crash deep in the churn so long examples re-kill a shard
# that has already recovered once.  Crash faults only: ``drop_reply``
# deliberately diverges the journal from the caller's view, so it is covered
# by dedicated tests in ``test_chaos.py`` instead of the byte-identity
# oracle.
CHAOS_FAULTS = (
    Fault(at_op=2, kind="crash_before"),
    Fault(at_op=15, kind="crash_after"),
    Fault(at_op=60, kind="crash_before"),
)

# The socket transport's plan adds the network-shaped kinds on top of an
# early crash: a connection reset mid-churn, a truncated frame, and a
# reconnect that first lands on a stale server epoch (one typed rejection,
# then success — needs max_restarts >= 2).  All four converge
# byte-identically under recovery, so they are safe for the byte-identity
# oracle; ``drop_reply`` stays out for the same reason as above.
SOCKET_CHAOS_FAULTS = (
    Fault(at_op=2, kind="crash_before"),
    Fault(at_op=15, kind="conn_reset"),
    Fault(at_op=40, kind="partial_frame"),
    Fault(at_op=60, kind="reconnect_stale_epoch"),
)


# ----------------------------------------------------------------- paths


def landmark_name(index: int) -> str:
    return f"lm{index}"


def make_path(peer, landmark_index: int, branch: Sequence[int]) -> RouterPath:
    """A path whose router names are their prefixes: one trie per landmark."""
    name = landmark_name(landmark_index)
    routers = [name]
    for level, choice in enumerate(branch, start=1):
        routers.append(f"{routers[-1]}/{level}.{choice}")
    return RouterPath.from_routers(peer, name, routers[::-1])


def path(peer, routers: Sequence[str], landmark: Optional[str] = None) -> RouterPath:
    """A path over explicit routers, peer side first; the landmark is the last one."""
    return RouterPath.from_routers(peer, routers[-1] if landmark is None else landmark, routers)


def simple_path(peer, landmark: str, access: str = "a1") -> RouterPath:
    """A 3-router path: ``<landmark>-<access>``, ``<landmark>-core``, the landmark."""
    return path(peer, [f"{landmark}-{access}", f"{landmark}-core", landmark])


def landmark_distances(landmark_count: int) -> Dict[Tuple[str, str], float]:
    return {
        (landmark_name(i), landmark_name(j)): float(1 + j - i)
        for i in range(landmark_count)
        for j in range(i + 1, landmark_count)
    }


class Twin:
    """Distinct, unorderable peers whose ``repr`` collides."""

    def __init__(self, tag: int) -> None:
        self.tag = tag

    def __repr__(self) -> str:
        return "Twin()"


# ---------------------------------------------------------------- planes


def chaos_shard_factory(k: int, transport: str = "process"):
    """A ``shard_factory``: remote shards on a scripted fault plan.

    ``transport`` picks the shard flavour (process workers on the crash
    plan, socket connections on the network-shaped plan).  Recovery is
    fully deterministic — zero backoff, no sleeping — so a failing example
    shrinks and replays identically.
    """
    faults = SOCKET_CHAOS_FAULTS if transport == "socket" else CHAOS_FAULTS

    def factory() -> ChaosShardBackend:
        recovery = RecoveryPolicy(max_restarts=3, backoff_base_s=0.0, sleep=lambda _delay: None)
        inner = shard_factory_for(transport, k, recovery=recovery)()
        return ChaosShardBackend(inner, FaultPlan(faults))

    return factory


def build_plane(
    shard_count: Optional[int],
    landmark_count: int,
    with_distances: bool = True,
    maintain_cache: bool = True,
    k: int = 3,
    backend: str = "inline",
):
    """A plane with landmarks ``lm0 .. lm<landmark_count - 1>`` registered.

    ``shard_count=None`` builds the single :class:`ManagementServer`;
    otherwise a :class:`ShardedManagementServer` over ``backend`` shards.
    The arguments before ``backend`` are a :class:`Case`'s, in its order.
    Its reads go through :func:`closest`, so one that comes back degraded
    fails the oracle.
    """
    distances = landmark_distances(landmark_count) if with_distances else None
    if shard_count is None:
        plane = ManagementServer(
            neighbor_set_size=k, maintain_cache=maintain_cache, landmark_distances=distances
        )
    else:
        plane = ShardedManagementServer(
            shard_count,
            neighbor_set_size=k,
            maintain_cache=maintain_cache,
            landmark_distances=distances,
            shard_factory=(
                chaos_shard_factory(k, "socket" if backend == "socket-chaos" else "process")
                if backend in ("chaos", "socket-chaos")
                else shard_factory_for(backend, k)
            ),
        )
    for index in range(landmark_count):
        # The landmark's attachment router is the landmark-side end of
        # make_path's paths, or every arrival fails root validation.
        plane.register_landmark(landmark_name(index), landmark_name(index))
    return plane


def reference_for(plane) -> ManagementServer:
    """A single server fed ``plane``'s surviving registrations, in order."""
    reference = ManagementServer(
        neighbor_set_size=plane.neighbor_set_size,
        maintain_cache=plane.maintain_cache,
        landmark_distances=dict(plane._landmark_distances),
    )
    for landmark in plane.landmarks():
        reference.register_landmark(landmark, plane.landmark_router(landmark))
    for peer in plane.peers():
        reference.register_peer(plane.peer_path(peer))
    return reference


# ------------------------------------------------------------------- ops


def closest(plane, peer, k):
    """``plane.closest_peers(peer, k)``, which may not come back degraded.

    The oracles demand byte-identity: a read that recovery cannot heal
    (a chaos plane's shard down for good) must fail loudly, never pass as a
    best-effort :class:`~repro.core.DegradedResult` that holds the same
    pairs.  The assertion is no outcome: it propagates through
    :func:`outcome`.
    """
    answer = plane.closest_peers(peer, k)
    assert not isinstance(answer, DegradedResult), (peer, k, answer.shard, answer.reason)
    return answer


def outcome(call, *args):
    """``call(*args)`` as a value: ``("ok", result)`` or the error's type and text.

    An ``AssertionError`` is a harness bug (an unknown op kind), never an
    outcome, so it propagates.
    """
    try:
        return ("ok", call(*args))
    except AssertionError:
        raise
    except Exception as error:  # noqa: BLE001 - errors are part of the contract
        return ("error", type(error).__name__, str(error))


def _apply(plane, op, publisher):
    kind = op[0]
    if kind == "arrive":
        _, peer, landmark_index, branch = op
        return plane.register_peer(make_path(f"p{peer}", landmark_index, branch))
    if kind == "batch":
        return plane.register_peers([make_path(f"p{peer}", *spec) for peer, *spec in op[1]])
    if kind == "publish":
        return publisher.publish()
    peer = f"p{op[1]}"
    if kind == "depart":
        return plane.unregister_peer(peer)
    if kind == "query":
        return closest(plane, peer, op[2])
    if kind == "cold":  # past the cached list: a tree query that rewrites it
        return closest(plane, peer, plane.neighbor_set_size + 2)
    if kind == "bounce":  # leave and re-join on the same path
        known = plane.peer_path(peer)
        plane.unregister_peer(peer)
        return plane.register_peer(known)
    raise AssertionError(f"unknown op {op!r}")


def apply_op(plane, op, publisher=None):
    """Apply one op to ``plane``; the outcome, an error included, is a value.

    ``("arrive", peer, landmark, branch)``, ``("batch", [(peer, landmark,
    branch), ...])``, ``("depart", peer)``, ``("query", peer, k)``,
    ``("cold", peer)``, ``("bounce", peer)`` and ``("publish",)``, which
    asks ``publisher`` for the next epoch.  Peer ``n`` is named ``p<n>``.
    """
    return outcome(_apply, plane, op, publisher)


WRITES = ("arrive", "batch", "depart")


def ops(
    peers: int,
    landmarks: int,
    kinds: Sequence[str] = WRITES,
    shape: Sequence[int] = SHAPE,
    batch_size: int = 6,
    max_ops: int = 30,
):
    """Op lists over peers ``0 .. peers - 1`` and landmarks ``0 .. landmarks - 1``.

    A branch is ``(0, *levels)`` with level ``i`` in ``range(shape[i])``; a
    query asks for ``None``, 1, 2, 3 or 7 peers.
    """
    peer = st.integers(0, peers - 1)
    spec = st.tuples(
        peer,
        st.integers(0, landmarks - 1),
        st.tuples(st.just(0), *(st.integers(0, size - 1) for size in shape)),
    )
    vocabulary = {
        "arrive": spec.map(lambda drawn: ("arrive", *drawn)),
        "batch": st.tuples(st.just("batch"), st.lists(spec, min_size=1, max_size=batch_size)),
        "depart": st.tuples(st.just("depart"), peer),
        "query": st.tuples(st.just("query"), peer, st.sampled_from([None, 1, 2, 3, 7])),
        "bounce": st.tuples(st.just("bounce"), peer),
        "cold": st.tuples(st.just("cold"), peer),
        "publish": st.just(("publish",)),
    }
    return st.lists(
        st.one_of(*(vocabulary[kind] for kind in kinds)), min_size=1, max_size=max_ops
    )


class Case(NamedTuple):
    """A plane's settings, in :func:`build_plane`'s order, and its ops."""

    shard_count: Optional[int]
    landmark_count: int
    with_distances: bool
    maintain_cache: bool
    k: int
    ops: List[tuple]


@st.composite
def cases(
    draw,
    max_landmarks: int,
    shard_counts=st.integers(1, 8),
    caches=st.booleans(),
    unknown_landmark: bool = False,
    **op_options,
) -> Case:
    """One oracle example: a plane's settings and the ops to run on it.

    ``unknown_landmark`` lets ops name ``lm<landmark_count>``, which is
    never registered; ``op_options`` go to :func:`ops`.
    """
    landmark_count = draw(st.integers(1, max_landmarks))
    return Case(
        draw(shard_counts),
        landmark_count,
        draw(st.booleans()),
        draw(caches),
        draw(st.integers(1, 4)),
        draw(ops(landmarks=landmark_count + unknown_landmark, **op_options)),
    )


def random_op(
    rng: random.Random,
    cuts: Tuple[float, float, float],
    peers: int,
    landmarks: int,
    batch_sizes: Tuple[int, int] = (1, 5),
    shape: Sequence[int] = SHAPE,
    arrive: bool = False,
):
    """One op of a fixed seeded workload.

    One ``rng.random()`` picks the kind: an arrival below ``cuts[0]`` (or
    whenever ``arrive``), a batch of ``randrange(*batch_sizes)`` below
    ``cuts[1]``, a departure below ``cuts[2]``, else a query for ``None``,
    1, 3 or 6 peers.
    """

    def spec():
        return (
            rng.randrange(peers),
            rng.randrange(landmarks),
            (0, *(rng.randrange(size) for size in shape)),
        )

    action = rng.random()
    if action < cuts[0] or arrive:
        return ("arrive", *spec())
    if action < cuts[1]:
        return ("batch", [spec() for _ in range(rng.randrange(*batch_sizes))])
    if action < cuts[2]:
        return ("depart", rng.randrange(peers))
    return ("query", rng.randrange(peers), rng.choice([None, 1, 3, 6]))


# ---------------------------------------------------------------- tries


def branches(chain_depth: int, fan_out: int = 0):
    """Up to five levels of three routers, or a unary chain of 1..``chain_depth``
    routers with up to ``fan_out`` binary levels below it."""
    return st.one_of(
        st.lists(st.integers(0, 2), max_size=5),
        st.tuples(st.integers(1, chain_depth), st.lists(st.integers(0, 1), max_size=fan_out)).map(
            lambda chain: [0] * chain[0] + chain[1]
        ),
    )


@st.composite
def populations(draw, max_peers: int, landmarks: int, branch) -> List[RouterPath]:
    """Paths of ``peer0 .. peer<n-1>``, 2 <= n <= ``max_peers``, each under
    one of ``landmarks`` landmarks with a ``branch`` drawn for it."""
    return [
        make_path(f"peer{index}", draw(st.integers(0, landmarks - 1)), draw(branch))
        for index in range(draw(st.integers(2, max_peers)))
    ]


def depth_first(max_depth: int):
    """Branches of 1..``max_depth`` routers, four routers per level."""
    return st.integers(1, max_depth).flatmap(
        lambda depth: st.lists(st.integers(0, 3), min_size=depth, max_size=depth)
    )


def tree_of(paths: Sequence[RouterPath]) -> PathTree:
    """One ``lm0`` trie holding ``paths``."""
    tree = PathTree(landmark_id=landmark_name(0), landmark_router=landmark_name(0))
    for router_path in paths:
        tree.insert(router_path)
    return tree


@st.composite
def random_trees(draw, max_peers: int, max_depth: int, churn: bool = False) -> PathTree:
    """One ``lm0`` trie over a population of 1..``max_depth``-router paths
    with four routers per level; with ``churn`` up to half the peers leave."""
    tree = tree_of(draw(populations(max_peers, 1, depth_first(max_depth))))
    for _ in range(draw(st.integers(0, tree.peer_count // 2)) if churn else 0):
        victims = tree.peers()
        tree.remove(victims[draw(st.integers(0, len(victims) - 1))])
    return tree


def live_nodes(tree) -> List[int]:
    """Ids of ``tree``'s nodes, holes skipped."""
    return [node for node, router in enumerate(tree.routers) if router is not None]


def root_path(trie, node: int) -> List[int]:
    """``node`` and every id above it in a trie's ``parent`` column, the root last."""
    ids = []
    while node >= 0:
        ids.append(node)
        node = trie.parent[node]
    return ids


def reported_path(tree, peer) -> RouterPath:
    """``peer``'s path read back off a trie: its attachment node's routers up
    to the root, what :func:`~repro.core.path.tree_distance` measures."""
    routers = [tree.routers[node] for node in root_path(tree, tree.attachment_node(peer))]
    return path(peer, routers, tree.landmark_id)


def trie_by_route(tree) -> Dict[Tuple, Tuple[int, List]]:
    """Each live node's ``(depth, row)``, keyed by its routers from the root.

    The columns without their numbering: node ids are allocation history (a
    pruned node's id is reused by the next new one), so two tries built by
    different histories of the same peers agree here, not id by id.
    """
    return {
        tuple(tree.routers[node] for node in root_path(tree, live)[::-1]): (
            tree.depth[live],
            tree.rows[live],
        )
        for live in live_nodes(tree)
    }


def attached(tree, node: int) -> List:
    """The peers attached at ``node`` itself: its row's own-hop range."""
    return [peer for hops, _, peer in tree.rows[node] if hops == tree.depth[node] + 1]


# ----------------------------------------------------------------- audit


def cache_snapshot(plane) -> Dict[object, List[Tuple[object, float]]]:
    return {
        owner: [(entry.peer_id, entry.distance) for entry in entries]
        for owner, entries in plane._neighbor_cache.items()
    }


def shared_floats(answer) -> bool:
    """Every distance of a ``(peer, distance)`` answer is the one shared float
    of its value: the shape the walk emits and every plane hands on."""
    return all(distance is SHARED_DISTANCES[distance] for _, distance in answer)


def audit(plane, reference) -> None:
    """Everything a reader of ``plane`` sees equals what ``reference`` shows.

    A :class:`~repro.core.serving.DiscoverySnapshot` serves ``peers`` and
    ``closest_peers``; a live plane also its landmarks, paths, cached lists,
    reverse index and distance estimates.  Read-only comparisons go first:
    a live ``closest_peers`` with ``k`` above the neighbour set refills the
    cache, so those run last, on both sides in the same order.  Every
    answer's distances, on both sides, are the shared floats
    (:func:`shared_floats`): cached, cold and filled, off any backend.
    """
    peers = reference.peers()
    size = reference.neighbor_set_size
    assert plane.peers() == peers
    if not isinstance(plane, DiscoverySnapshot):
        assert plane.landmarks() == reference.landmarks()
        assert plane.peer_count == reference.peer_count
        assert cache_snapshot(plane) == cache_snapshot(reference)
        assert plane._referenced_by == reference._referenced_by
        for peer in peers:
            assert plane.peer_landmark(peer) == reference.peer_landmark(peer)
            assert plane.peer_path(peer) == reference.peer_path(peer)
        for peer_a, peer_b in itertools.product(peers[:10], repeat=2):
            assert outcome(plane.estimate_distance, peer_a, peer_b) == outcome(
                reference.estimate_distance, peer_a, peer_b
            )
    for ks in ((1, size, None), (size + 2, size + 3)):
        for peer in peers:
            for k in ks:
                answer = closest(plane, peer, k)
                expected = reference.closest_peers(peer, k)
                assert answer == expected, (peer, k)
                assert shared_floats(answer) and shared_floats(expected), (peer, k)
    assert outcome(plane.closest_peers, "never-registered") == outcome(
        reference.closest_peers, "never-registered"
    )
