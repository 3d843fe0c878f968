"""Landmark-rooted path tree (the management server's core data structure).

All the paths reported towards one landmark form a tree rooted at that
landmark: paths merge as they approach the network core, and the router where
two paths merge (their lowest common ancestor, the *branch router*) is the
point through which the inferred route between the two peers goes.  The
inferred distance is::

    dtree(p1, p2) = hops(p1 -> branch) + hops(branch -> p2)

The tree is implemented as a trie over the reversed paths (landmark first).
Each trie node corresponds to one router on at least one reported path, knows
its depth (hops from the landmark), the peers attached at that exact router,
and the number of peers in its subtree, so closest-peer queries can stop as
soon as enough candidates have been gathered.

Hot-path representation
-----------------------
Trie nodes are ``__slots__`` objects (a registration allocates up to one per
router on the path, so attribute-dict overhead is pure waste), each node maps
its attached peers to their **interned sort text** (``repr(peer_id)``
computed once per peer by the plane's :class:`~repro.core.interning.
PeerKeyInterner`), and the structural aggregates — ``router_count``,
``max_depth`` — are maintained incrementally on insert/prune instead of by
full-subtree scans.  Both the query and the insert side expose
algorithmic-work counters (``last_query_visits`` / ``last_insert_nodes_*``)
so benchmarks can assert scaling bounds instead of eyeballing wall-clock.

Stable node ids
---------------
Every node carries an ``index`` that is its position in the tree's
node-by-index list: the root is node ``0``, a new node takes the most
recently freed id (or the next unused one), and a pruned node leaves a hole
until its id is reused.  Ids therefore survive churn elsewhere in the tree,
which is what lets the serving plane (:mod:`repro.core.serving`) keep one
row per node id and rewrite only the rows a mutation touched: while
:attr:`PathTree.dirty` is a set, :meth:`PathTree.insert` and
:meth:`PathTree.remove` add the ids on the touched root path (pruned ids
included) to it.  It is ``None`` — one ``is None`` test per insert/remove —
unless a plane is recording changes for a snapshot publisher.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..exceptions import RegistrationError, UnknownPeerError
from .interning import PeerKeyInterner
from .path import LandmarkId, NodeId, PeerId, RouterPath

#: Stable sort key for interned candidate tuples ``(dtree, sort_text, peer)``:
#: ordering by the first two fields only keeps ties in discovery order (the
#: historic ``key=lambda item: (item[1], repr(item[0]))`` semantics) and never
#: falls through to comparing raw peer objects of mixed types.
_CANDIDATE_ORDER = itemgetter(0, 1)


class PathTreeNode:
    """One router on the landmark-rooted path tree.

    ``attached_peers`` maps each peer attached at this exact router to its
    interned sort text, so candidate collection during a query emits
    ready-to-sort tuples without calling ``repr``.  Iterating / ``len`` /
    membership on it behaves like the historic set of peer identifiers.
    """

    __slots__ = (
        "router",
        "depth",
        "parent",
        "index",
        "children",
        "attached_peers",
        "subtree_peer_count",
    )

    def __init__(
        self,
        router: NodeId,
        depth: int,
        parent: Optional["PathTreeNode"] = None,
        index: int = 0,
    ) -> None:
        self.router = router
        self.depth = depth
        self.parent = parent
        #: Position in the owning tree's node-by-index list (root = 0).
        self.index = index
        self.children: Dict[NodeId, "PathTreeNode"] = {}
        self.attached_peers: Dict[PeerId, str] = {}
        self.subtree_peer_count = 0

    def child(self, router: NodeId) -> Optional["PathTreeNode"]:
        """Return the child trie node for ``router`` if it exists."""
        return self.children.get(router)

    def iter_subtree(self) -> Iterator["PathTreeNode"]:
        """Depth-first iteration over this node and all its descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def peers_in_subtree(self) -> Iterator[Tuple[PeerId, int]]:
        """Yield ``(peer_id, attachment_depth)`` for every peer under this node."""
        for node in self.iter_subtree():
            for peer_id in node.attached_peers:
                yield peer_id, node.depth

    def __repr__(self) -> str:
        return (
            f"PathTreeNode(router={self.router!r}, depth={self.depth}, "
            f"peers={len(self.attached_peers)}, subtree={self.subtree_peer_count})"
        )


class PathTree:
    """The set of reported paths towards one landmark, organised as a trie.

    Parameters
    ----------
    landmark_id:
        Identifier of the landmark this tree belongs to.
    landmark_router:
        Router the landmark is attached to; used as the trie root.  If not
        given, the root is created lazily from the first inserted path's
        landmark-side router.
    interner:
        The owning plane's :class:`~repro.core.interning.PeerKeyInterner`;
        a private one is created for standalone trees.  Sharing the plane's
        interner means a peer's sort key is computed once per plane, not
        once per tree.
    """

    def __init__(
        self,
        landmark_id: LandmarkId,
        landmark_router: Optional[NodeId] = None,
        interner: Optional[PeerKeyInterner] = None,
    ) -> None:
        self.landmark_id = landmark_id
        self._interner = interner if interner is not None else PeerKeyInterner()
        self._root: Optional[PathTreeNode] = None
        #: Node-by-index list (``None`` marks a pruned id awaiting reuse).
        self._nodes: List[Optional[PathTreeNode]] = []
        self._free_ids: List[int] = []
        #: Node ids touched since the owning plane last drained its change
        #: record, or ``None`` while nothing records (see the module doc).
        self.dirty: Optional[Set[int]] = None
        self._router_count = 0
        self._depth_counts: Dict[int, int] = {}
        self._max_depth = 0
        if landmark_router is not None:
            self._root = self._add_node(landmark_router, 0, None)
        self._attachment: Dict[PeerId, PathTreeNode] = {}
        self._paths: Dict[PeerId, RouterPath] = {}
        #: Trie nodes examined by the most recent :meth:`closest_peers` call.
        self.last_query_visits: int = 0
        #: Trie nodes examined by all :meth:`closest_peers` calls so far.
        self.total_query_visits: int = 0
        #: Trie nodes created by the most recent :meth:`insert` call.
        self.last_insert_nodes_created: int = 0
        #: Trie nodes traversed by the most recent :meth:`insert` call.
        self.last_insert_nodes_touched: int = 0
        #: Trie nodes created by all :meth:`insert` calls so far.
        self.total_insert_nodes_created: int = 0
        #: Trie nodes traversed by all :meth:`insert` calls so far.
        self.total_insert_nodes_touched: int = 0

    # ------------------------------------------------------------------ state

    @property
    def root(self) -> Optional[PathTreeNode]:
        """The trie root (landmark-side router), or None if still empty."""
        return self._root

    @property
    def peer_count(self) -> int:
        """Number of peers currently registered in this tree."""
        return len(self._attachment)

    @property
    def router_count(self) -> int:
        """Number of distinct routers present in the tree (O(1), incremental)."""
        return self._router_count

    def peers(self) -> List[PeerId]:
        """All registered peer identifiers."""
        return list(self._attachment)

    def has_peer(self, peer_id: PeerId) -> bool:
        """True if ``peer_id`` is registered in this tree."""
        return peer_id in self._attachment

    def path_of(self, peer_id: PeerId) -> RouterPath:
        """The path ``peer_id`` registered with."""
        if peer_id not in self._paths:
            raise UnknownPeerError(peer_id)
        return self._paths[peer_id]

    def attachment_node(self, peer_id: PeerId) -> PathTreeNode:
        """The trie node (access router) the peer is attached to."""
        if peer_id not in self._attachment:
            raise UnknownPeerError(peer_id)
        return self._attachment[peer_id]

    def node_table(self) -> List[Optional[PathTreeNode]]:
        """The node-by-index list (``None`` = free id); read-only for callers."""
        return self._nodes

    def max_depth(self) -> int:
        """Deepest router depth in the tree (0 for an empty/one-node tree).

        Maintained incrementally from a depth histogram, so reading it is
        O(1) instead of a full-subtree scan.
        """
        return self._max_depth

    # ------------------------------------------------- structural bookkeeping

    def _add_node(
        self, router: NodeId, depth: int, parent: Optional[PathTreeNode]
    ) -> PathTreeNode:
        """Create a node under the next free id and count it."""
        if self._free_ids:
            index = self._free_ids.pop()
            node = self._nodes[index] = PathTreeNode(router, depth, parent, index)
        else:
            node = PathTreeNode(router, depth, parent, len(self._nodes))
            self._nodes.append(node)
        self._router_count += 1
        self._depth_counts[depth] = self._depth_counts.get(depth, 0) + 1
        if depth > self._max_depth:
            self._max_depth = depth
        return node

    def _node_removed(self, node: PathTreeNode) -> None:
        """Free a pruned node's id and uncount it."""
        self._nodes[node.index] = None
        self._free_ids.append(node.index)
        depth = node.depth
        self._router_count -= 1
        remaining = self._depth_counts[depth] - 1
        if remaining:
            self._depth_counts[depth] = remaining
        else:
            del self._depth_counts[depth]
            while self._max_depth > 0 and self._max_depth not in self._depth_counts:
                self._max_depth -= 1

    # ----------------------------------------------------------------- insert

    def insert(self, path: RouterPath) -> PathTreeNode:
        """Insert a peer's path; returns the node the peer got attached to.

        The cost is linear in the path length (bounded by the network
        diameter, ~15–30 hops), independent of the number of peers already in
        the tree — this is the cheap "newcomer insertion" the paper claims.
        Re-registering an already-known peer replaces its previous path.

        Each call records the trie nodes traversed / allocated in
        ``last_insert_nodes_touched`` / ``last_insert_nodes_created`` (and
        the ``total_*`` accumulators) so benchmarks can assert the O(path
        length) bound the same way query benchmarks assert visit counts.
        """
        if path.landmark_id != self.landmark_id:
            raise RegistrationError(
                f"path of peer {path.peer_id!r} targets landmark {path.landmark_id!r}, "
                f"but this tree belongs to landmark {self.landmark_id!r}"
            )
        if path.peer_id in self._attachment:
            self.remove(path.peer_id)

        reversed_routers = path.from_landmark()
        created = 0
        if self._root is None:
            self._root = self._add_node(reversed_routers[0], 0, None)
            created += 1
        elif self._root.router != reversed_routers[0]:
            raise RegistrationError(
                f"path of peer {path.peer_id!r} ends at router {reversed_routers[0]!r}, "
                f"but the tree of landmark {self.landmark_id!r} is rooted at "
                f"{self._root.router!r}"
            )

        node = self._root
        for router in reversed_routers[1:]:
            child = node.children.get(router)
            if child is None:
                child = node.children[router] = self._add_node(router, node.depth + 1, node)
                created += 1
            node = child

        node.attached_peers[path.peer_id] = self._interner.sort_text(path.peer_id)
        self._attachment[path.peer_id] = node
        self._paths[path.peer_id] = path
        # Propagate the subtree count up to the root.
        current: Optional[PathTreeNode] = node
        while current is not None:
            current.subtree_peer_count += 1
            current = current.parent
        if self.dirty is not None:
            self._mark_root_path(node)

        self.last_insert_nodes_created = created
        self.last_insert_nodes_touched = len(reversed_routers)
        self.total_insert_nodes_created += created
        self.total_insert_nodes_touched += len(reversed_routers)
        return node

    def remove(self, peer_id: PeerId) -> None:
        """Remove a peer (e.g. on departure); prunes now-empty branches."""
        if peer_id not in self._attachment:
            raise UnknownPeerError(peer_id)
        node = self._attachment.pop(peer_id)
        del self._paths[peer_id]
        node.attached_peers.pop(peer_id, None)

        current: Optional[PathTreeNode] = node
        while current is not None:
            current.subtree_peer_count -= 1
            current = current.parent
        if self.dirty is not None:
            self._mark_root_path(node)  # before pruning: the pruned ids are on it

        # Prune empty leaves so the trie does not grow without bound under churn.
        current = node
        while (
            current is not None
            and current.parent is not None
            and current.subtree_peer_count == 0
            and not current.children
        ):
            parent = current.parent
            del parent.children[current.router]
            self._node_removed(current)
            current = parent

    def _mark_root_path(self, node: PathTreeNode) -> None:
        """Record every id from ``node`` up to the root as touched."""
        mark = self.dirty.add  # type: ignore[union-attr]
        current: Optional[PathTreeNode] = node
        while current is not None:
            mark(current.index)
            current = current.parent

    # ----------------------------------------------------------------- queries

    def lowest_common_ancestor(self, peer_a: PeerId, peer_b: PeerId) -> PathTreeNode:
        """Branch router node of two registered peers."""
        node_a = self.attachment_node(peer_a)
        node_b = self.attachment_node(peer_b)
        while node_a.depth > node_b.depth:
            node_a = node_a.parent  # type: ignore[assignment]
        while node_b.depth > node_a.depth:
            node_b = node_b.parent  # type: ignore[assignment]
        while node_a is not node_b:
            node_a = node_a.parent  # type: ignore[assignment]
            node_b = node_b.parent  # type: ignore[assignment]
        return node_a

    def tree_distance(self, peer_a: PeerId, peer_b: PeerId) -> int:
        """Inferred hop distance ``dtree`` between two registered peers.

        Each peer is one hop away from its attachment (access) router, hence
        the ``+ 1`` per side.
        """
        if peer_a == peer_b:
            return 0
        node_a = self.attachment_node(peer_a)
        node_b = self.attachment_node(peer_b)
        lca = self.lowest_common_ancestor(peer_a, peer_b)
        hops_a = node_a.depth - lca.depth + 1
        hops_b = node_b.depth - lca.depth + 1
        return hops_a + hops_b

    def closest_peers(
        self,
        peer_id: PeerId,
        k: int,
        exclude: Optional[Set[PeerId]] = None,
    ) -> List[Tuple[PeerId, int]]:
        """Return up to ``k`` peers closest to ``peer_id`` by tree distance.

        Delegates to :meth:`closest_from_node` from the peer's attachment
        node, excluding the peer itself — a peer's view of the tree is fully
        determined by the router it attaches at, which is what lets a batch
        of co-arriving peers at one access router share a single frontier
        walk (see ``ManagementServer._compute_neighbors_batch``).

        Returns a list of ``(peer_id, dtree)`` sorted by ``dtree`` then peer
        sort text.
        """
        self.last_query_visits = 0
        if k <= 0:
            return []
        origin = self.attachment_node(peer_id)
        excluded = {peer_id}
        if exclude:
            excluded |= set(exclude)
        return self.closest_from_node(origin, k, exclude=excluded)

    def closest_from_node(
        self,
        origin: PathTreeNode,
        k: int,
        exclude: Iterable[PeerId] = (),
    ) -> List[Tuple[PeerId, int]]:
        """Up to ``k`` closest peers as seen from a trie node (the engine).

        Best-first frontier search guided by ``subtree_peer_count``.  The
        frontier holds two kinds of entries, each keyed by a lower bound on
        the ``dtree`` of any peer reachable through it:

        * *ancestor* entries — the next node on the origin's root path.  A
          peer whose branch point is that ancestor is at least
          ``(origin.depth - ancestor.depth) + 2`` away;
        * *subtree* entries — a node hanging off an already-expanded ancestor
          (the lowest common ancestor of its whole subtree with the origin).
          Peers attached at the node are exactly ``bound`` away, deeper peers
          strictly farther.

        Because a popped entry's bound equals the exact ``dtree`` of the
        peers attached at its node, peers are discovered in non-decreasing
        ``dtree`` order; the walk stops once the frontier's best bound
        exceeds the ``k``-th best distance found.  Empty subtrees
        (``subtree_peer_count == 0``) are never pushed, and subtrees whose
        bound already exceeds the ``k``-th best are pruned at push time, so
        the visit count is O(k + depth + branching) instead of the size of
        every sibling subtree.

        Candidates are collected as ``(dtree, interned_sort_text, peer)``
        tuples and sorted by the first two fields at C speed — no ``repr``
        call anywhere on the walk, and byte-identical ordering to the
        historic ``(dtree, repr(peer))`` sort (ties in both fields keep
        discovery order, exactly like the stable sort they replace).

        The frontier is **level-synchronous**: every entry spawned by a
        bound-``b`` entry has bound exactly ``b + 1`` (a child subtree adds
        one hop; the next ancestor adds one hop to the origin side), so the
        best-first priority queue degenerates into plain per-level lists —
        same pop order as a ``(bound, push-order)`` heap, none of the heap's
        per-entry cost.

        Each call records the number of trie nodes examined in
        ``last_query_visits`` (and accumulates ``total_query_visits``) so
        benchmarks can assert the sub-linear behaviour.
        """
        self.last_query_visits = 0
        if k <= 0:
            return []
        excluded = exclude if isinstance(exclude, (set, frozenset)) else set(exclude)

        # Level entries: (node, lca_depth, skip_child).  Ancestor entries
        # satisfy node.depth == lca_depth and carry the child subtree already
        # explored in ``skip_child``; subtree entries satisfy node.depth >
        # lca_depth and never skip anything.  ``bound`` — the exact dtree of
        # peers attached at the level's nodes — starts at 2 (origin) and
        # grows by one per level.
        level: List[Tuple[PathTreeNode, int, Optional[PathTreeNode]]] = [
            (origin, origin.depth, None)
        ]
        bound = 2
        results: List[Tuple[int, str, PeerId]] = []
        append = results.append
        kth_found = False
        visits = 0

        while level:
            next_level: List[Tuple[PathTreeNode, int, Optional[PathTreeNode]]] = []
            push = next_level.append
            for node, lca_depth, skip_child in level:
                visits += 1
                for candidate, sort_text in node.attached_peers.items():
                    if candidate not in excluded:
                        append((bound, sort_text, candidate))
                if kth_found:
                    # The k-th best distance equals this level's bound, so
                    # deeper levels cannot contribute; keep draining this
                    # level (exact-distance ties) without growing the next.
                    continue
                if len(results) >= k:
                    kth_found = True
                    continue
                if node.depth == lca_depth:
                    # Ancestor entry: fan out into unexplored child subtrees
                    # and continue up the root path.
                    for child in node.children.values():
                        if child is not skip_child and child.subtree_peer_count > 0:
                            push((child, lca_depth, None))
                    parent = node.parent
                    if parent is not None:
                        push((parent, parent.depth, node))
                else:
                    # Subtree entry: descend, one extra hop per level.
                    for child in node.children.values():
                        if child.subtree_peer_count > 0:
                            push((child, lca_depth, None))
            if kth_found:
                break
            level = next_level
            bound += 1

        self.last_query_visits = visits
        self.total_query_visits += visits
        results.sort(key=_CANDIDATE_ORDER)
        del results[k:]
        return [(candidate, bound) for bound, _, candidate in results]

    def all_pairs_tree_distance(self) -> Dict[Tuple[PeerId, PeerId], int]:
        """Exhaustive dtree for every unordered pair (small populations only)."""
        peers = self.peers()
        result: Dict[Tuple[PeerId, PeerId], int] = {}
        for i, peer_a in enumerate(peers):
            for peer_b in peers[i + 1 :]:
                result[(peer_a, peer_b)] = self.tree_distance(peer_a, peer_b)
        return result

    def __contains__(self, peer_id: PeerId) -> bool:
        return peer_id in self._attachment

    def __len__(self) -> int:
        return len(self._attachment)

    def __repr__(self) -> str:
        return (
            f"PathTree(landmark={self.landmark_id!r}, peers={self.peer_count}, "
            f"routers={self.router_count})"
        )
