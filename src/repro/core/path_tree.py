"""Landmark-rooted path tree (the management server's core data structure).

All the paths reported towards one landmark form a tree rooted at that
landmark: paths merge as they approach the network core, and the router where
two paths merge (their lowest common ancestor, the *branch router*) is the
point through which the inferred route between the two peers goes.  The
inferred distance is::

    dtree(p1, p2) = hops(p1 -> branch) + hops(branch -> p2)

It has one definition, :func:`~repro.core.path.tree_distance`, read off
the two reported paths alone (the planes' ``estimate_distance`` calls it);
the tree never computes one pair's ``dtree``.  What the tree adds is the
*ranking*: every peer's ``dtree`` from one origin, closest first, without
visiting the peers that do not make the answer.

The tree is implemented as a trie over the reversed paths (landmark first).
Each trie node corresponds to one router on at least one reported path; its
depth (hops from the landmark) and the peers at or below it are entries of
the tree's node columns (see "Stable node ids" below).

The sorted per-node index
-------------------------
Every node holds one **row**: the ``(hop_count, sort_text, peer)`` entries of
the peers at or below it, sorted.  A peer has one entry tuple, shared by the
rows of the ``depth + 1`` nodes on its root path; ``sort_text`` is the
``repr(peer_id)`` the plane's :class:`~repro.core.interning.PeerKeyInterner`
computed once.  The row is the node's whole peer bookkeeping: the peers
attached at the router itself are its lowest hop value (``depth + 1``),
``len(row)`` is the subtree's population,
and the root's row is the landmark's min-hop ordering that cross-landmark
fills merge (:func:`fill_in_rows`).

Seen from an origin node of hop value ``h0`` (depth + 1), a peer of hop
value ``h`` whose branch router is the origin's ``i``-th ancestor is at
``dtree = h + 2i + 2 - h0``.  So the peers at one distance are, per
ancestor, *one hop value of its row minus the same hop value of the row of
its child on the origin's path* — two sorted ranges that share entry
objects.  :func:`closest_in_rows` reads candidates off the ancestor chain in
``(dtree, sort_text)`` order that way and stops at ``k``; it never visits a
sibling subtree, so a query costs the same whether five or five thousand
peers tie at the k-th distance.  Its answer — ``(peer, dtree)`` pairs,
``dtree`` the shared float of :data:`~repro.core.neighbor_cache.
SHARED_DISTANCES` — is the very list every plane returns, caches and ships.

Costs, with ``d`` the depth and ``n`` the peers under a node: insert and
remove are ``d`` bisects of O(log n) plus the list insert's memmove (8 bytes
per entry behind the slot — 100 KB at the root of a 12,800-peer tree); a
query examines O(d²) ranges and scans at most ``k + len(excluded)`` entries
in each it reads, with no row bisected: a stream's next range, and its
path child's range at the same hop value, start where the previous ones
ended.  The streams wait in one list sorted by next distance, so a distance
level costs the streams due at it — usually one — plus an ``insort`` of
each that steps, comparing distances and shifts only (see
:func:`closest_in_rows`).  Memory is one 3-tuple per peer plus
one pointer per peer per level, in place of a dict per node.

Ties beyond ``(hop_count, sort_text)`` — distinct peers whose ``repr``
collides — are never resolved by comparing the peers: the newer entry goes
first in every row and cached list, and fills merge ties in stream order.
Identifiers with injective ``repr`` (strings, ints) are unaffected.

Loading a tree that holds no peers
----------------------------------
:meth:`PathTree.load` builds the same tree from a batch without a bisect or
a memmove: it interns the batch's peers and creates nodes in input order
(so node ids are what one :meth:`PathTree.insert` per path would assign),
sorts the batch's entries once by ``(hop_count, sort_text)`` over the
newest-first order — the stable sort keeps the newer-first rule for
colliding ``repr``s — and appends each entry to every row on its root
path, which leaves every row sorted.  It runs only on a tree with no peers
and a batch that repeats no peer.  The management server loads a batch
when every path lands in a tree that holds no peers as the batch starts and
no path re-registers or repeats a peer — a cold start, or the journal
a restart replays onto an empty shard; any other batch, and every single
join, inserts path by path.

Stable node ids
---------------
A :class:`PathTree` is its node columns, parallel lists indexed by node id:
``routers``, ``parent`` (the parent's id, ``-1`` at the root), ``depth``,
``rows`` and ``children`` (router -> child id; one shared empty mapping
until a node gets its first child).  The root is node ``0``, a new node
takes the most recently freed id (or the next unused one), and a pruned node
leaves a hole until its id is reused: ``None`` router, parent and depth
``-1``, an empty row and no children.  A peer is attached to a node id.  Ids
therefore survive churn elsewhere in the tree, which is what lets the
serving plane (:mod:`repro.core.serving`) freeze the same columns into
tuples and refreeze only the rows a mutation touched: while
:attr:`PathTree.dirty` is a set, :meth:`PathTree.insert` and
:meth:`PathTree.remove` add the ids on the touched root path (pruned ids
included) to it.  It is ``None`` — one ``is None`` test per insert/remove —
unless a plane is recording changes for a snapshot publisher.  One walk,
:func:`closest_from`, reads a query off ``parent`` and ``rows``, the live
lists or their frozen tuples alike.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import merge
from itertools import islice
from operator import itemgetter
from types import MappingProxyType
from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..exceptions import RegistrationError, UnknownPeerError
from .interning import PeerKeyInterner
from .neighbor_cache import SHARED_DISTANCES
from .path import LandmarkId, NodeId, PeerId, RouterPath

#: One peer in a row: ``(hop_count, sort_text, peer)``.
Entry = Tuple[int, str, PeerId]

_BY_SORT_TEXT = itemgetter(1)
RANK = itemgetter(0, 1)  # (hops or estimate, sort text): entries never compare peers
#: ``children`` of a node that has none; a dict is allocated on the first child.
_NO_CHILDREN: Mapping[NodeId, int] = MappingProxyType({})


def closest_in_rows(
    chain: Iterable[Sequence[Entry]], origin_hops: int, k: int, excluded: Collection[PeerId]
) -> Tuple[List[Tuple[PeerId, float]], int]:
    """The ``k`` closest peers read off an ancestor chain of rows.

    ``chain`` holds the rows of the origin node and of each ancestor up to
    the root; ``origin_hops`` is the hop value of a peer attached at the
    origin (its depth + 1).  Returns at most ``k`` ``(peer, dtree)`` pairs in
    ``(dtree, sort_text)`` order, ``dtree`` a shared float (one lookup per
    distance), and the work done: ranges examined plus entries scanned, the
    figure ``PathTree.last_query_visits`` reports.

    Each ancestor is a stream of its row's hop values in increasing order,
    hence of increasing distance.  The streams wait in one list sorted by
    ``(next distance, shift)``; the shifts differ, so the order is distance,
    then chain order, and no row is compared.  The streams due at the
    smallest pending distance lead the list.  Each gives up its first
    ``k - found`` candidates — the range at that hop value, skipping the
    entries the path child's row holds at the same value (both in row order,
    same objects) and the excluded peers.  A lone due stream appends its
    candidates to the answer as it meets them; the shares of several due
    streams are gathered, stably sorted by sort text and cut.  A stream that
    has stepped goes back into the list by bisection, one that is exhausted
    leaves it, and one whose row is as long as its path child's (a unary
    chain) adds no peer and never enters it.

    A stream step bisects no row.  Its range starts where its previous one
    ended, and the child's range at the same hop value starts at a cursor
    where the child's previous one ended: the child's row is a subsequence
    of the row, so it skips every hop value the row skips.  The scan that
    reads the range finds its end and passes the child's entries by
    identity, advancing the cursor; a range that turns out to be all the
    child's counts as examined, its entries as not scanned.  No scan reads
    more than ``k + len(excluded)`` entries: every eligible peer the child
    holds at that hop value was on offer at a smaller distance, so it is
    among those found, and the scan meets at most ``k - need`` of them, the
    excluded peers and the ``need`` it takes.
    """
    # [next distance, distance - hop value, row, path child's row, range start, cursor]
    streams = []
    below: Sequence[Entry] = ()
    shift = 2 - origin_hops
    for row in chain:
        if len(row) > len(below):
            streams.append([row[0][0] + shift, shift, row, below, 0, 0])
        below = row
        shift += 2
    streams.sort()  # the shifts differ: no row is compared
    found: List[Tuple[PeerId, float]] = []
    visits = 0
    reach = k + len(excluded)
    while streams and len(found) < k:
        distance = streams[0][0]
        if len(streams) == 1 or streams[1][0] != distance:  # one stream is due
            stream = streams.pop(0)
            _, shift, row, below, low, cursor = stream
            hops = distance - shift
            shared = SHARED_DISTANCES[distance]
            skip = cursor
            owned = below[skip] if skip < len(below) else None
            high = low
            for entry in row[low : low + reach]:  # the scan ends within the slice
                if entry[0] != hops:
                    break
                high += 1
                if entry is owned:
                    skip += 1
                    owned = below[skip] if skip < len(below) else None
                elif entry[2] not in excluded:
                    found.append((entry[2], shared))
                    if len(found) == k:
                        break  # the query ends at this distance
            visits += 1 if high - low == skip - cursor else 1 + high - low
            if high < len(row):
                stream[0] = row[high][0] + shift
                stream[4] = high
                stream[5] = skip
                insort(streams, stream)
            continue
        due = 2
        while due < len(streams) and streams[due][0] == distance:
            due += 1
        tying = streams[:due]
        del streams[:due]  # one cut short goes back in at this distance: the query ends here
        need = k - len(found)
        tied: List[Entry] = []
        for stream in tying:
            _, shift, row, below, low, cursor = stream
            hops = distance - shift
            enough = len(tied) + need
            skip = cursor
            owned = below[skip] if skip < len(below) else None
            high = low
            for entry in row[low : low + reach]:
                if entry[0] != hops:
                    break
                high += 1
                if entry is owned:
                    skip += 1
                    owned = below[skip] if skip < len(below) else None
                elif entry[2] not in excluded:
                    tied.append(entry)
                    if len(tied) == enough:
                        break  # this stream's share is taken
            visits += 1 if high - low == skip - cursor else 1 + high - low
            if high < len(row):
                stream[0] = row[high][0] + shift
                stream[4] = high
                stream[5] = skip
                insort(streams, stream)
        tied.sort(key=_BY_SORT_TEXT)
        shared = SHARED_DISTANCES[distance]
        for entry in tied[:need]:  # a loop: a comprehension would be a frame per distance
            found.append((entry[2], shared))
    return found, visits


def closest_from(
    parent: Sequence[int],
    rows: Sequence[Sequence[Entry]],
    origin: int,
    k: int,
    excluded: Collection[PeerId],
) -> Tuple[List[Tuple[PeerId, float]], int]:
    """:func:`closest_in_rows` over the chain from node ``origin`` to the root.

    ``parent`` and ``rows`` are a trie's node columns, the live tree's lists
    or a snapshot's tuples alike.  The chain has one row per router, so its
    length is the origin's depth + 1: the hop value of a peer attached there.
    The answer is the kernel's, shared-float ``(peer, dtree)`` pairs.
    """
    chain = []
    while origin >= 0:
        chain.append(rows[origin])
        origin = parent[origin]
    return closest_in_rows(chain, len(chain), k, excluded)


def fill_in_rows(
    orderings: Iterable[Tuple[Sequence[Entry], float]], limit: int
) -> List[Tuple[float, str, PeerId]]:
    """The first ``limit`` candidates of a cross-landmark fill.

    ``orderings`` holds, per foreign landmark, its min-hop ordering (the
    root's row) and the constant part of the detour estimate for the
    querying peer.  Each ordering shifted by its base is a sorted stream of
    ``(estimate, sort_text, peer)``; the streams are heap-merged lazily on
    ``(estimate, sort_text)`` — equal candidates in the order the streams
    are given, never by comparing peers — and cut at ``limit``.  Estimates
    are the shared floats of :data:`~repro.core.neighbor_cache.SHARED_DISTANCES`.

    Cutting is exact: the first ``limit`` items of a merge are made of a
    prefix of each stream, at most ``limit`` long, so merging several
    callers' cut lists again yields the same first ``limit`` items.
    """

    def shifted(row: Sequence[Entry], base: float) -> Iterator[Tuple[float, str, PeerId]]:
        for hops, text, peer in row:
            yield (SHARED_DISTANCES[base + hops], text, peer)

    return list(islice(merge(*[shifted(row, base) for row, base in orderings], key=RANK), limit))


class PathTree:
    """The set of reported paths towards one landmark, organised as a trie.

    Its nodes are the columns ``routers``, ``parent``, ``depth``, ``rows``
    and ``children``, indexed by node id (see "Stable node ids" in the
    module doc).  Callers read them; only the tree writes them.

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
        self.routers: List[Optional[NodeId]] = []
        self.parent: List[int] = []
        self.depth: List[int] = []
        self.rows: List[List[Entry]] = []
        self.children: List[Mapping[NodeId, int]] = []
        self._free_ids: List[int] = []
        #: Node ids touched since the owning plane last drained its change
        #: record, or ``None`` while nothing records (see the module doc).
        self.dirty: Optional[Set[int]] = None
        if landmark_router is not None:
            self._add_node(landmark_router, -1)
        #: The tree's one registry: peer -> the node id it is attached to.  A
        #: peer's hop count is that node's depth + 1, so no path is kept.
        self._attachment: Dict[PeerId, int] = {}
        #: Index ranges examined plus row entries scanned by the most recent
        #: :meth:`closest_peers` call.
        self.last_query_visits: int = 0
        #: The same, summed over all :meth:`closest_peers` calls so far.
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
    def peer_count(self) -> int:
        """Number of peers currently registered in this tree."""
        return len(self._attachment)

    @property
    def router_count(self) -> int:
        """Number of distinct routers present in the tree: the live ids."""
        return len(self.routers) - len(self._free_ids)

    def peers(self) -> List[PeerId]:
        """All registered peer identifiers."""
        return list(self._attachment)

    def attachment_node(self, peer_id: PeerId) -> int:
        """The id of the node (access router) the peer is attached to."""
        if peer_id not in self._attachment:
            raise UnknownPeerError(peer_id)
        return self._attachment[peer_id]

    # ------------------------------------------------- structural bookkeeping

    def _add_node(self, router: NodeId, parent: int) -> int:
        """Create a node under the next free id and hang it under ``parent``."""
        depth = self.depth[parent] + 1 if parent >= 0 else 0
        if self._free_ids:
            node = self._free_ids.pop()  # its row is empty, it has no child
            self.routers[node] = router
            self.parent[node] = parent
            self.depth[node] = depth
        else:
            node = len(self.routers)
            self.routers.append(router)
            self.parent.append(parent)
            self.depth.append(depth)
            self.rows.append([])
            self.children.append(_NO_CHILDREN)
        if parent >= 0:
            children = self.children[parent]
            if not children:
                children = self.children[parent] = {}
            children[router] = node  # type: ignore[index]
        return node

    def _prune(self, node: int, parent: int) -> None:
        """Unhang an emptied node from ``parent`` and free its id."""
        children = self.children[parent]
        del children[self.routers[node]]  # type: ignore[attr-defined]
        if not children:
            self.children[parent] = _NO_CHILDREN
        self.routers[node] = None
        self.parent[node] = self.depth[node] = -1
        self._free_ids.append(node)

    # ----------------------------------------------------------------- insert

    def insert(self, path: RouterPath) -> int:
        """Insert a peer's path; returns the id of the node it got attached to.

        One sorted-row insertion per router on the path (bounded by the
        network diameter, ~15–30 hops): O(log n) comparisons each plus the
        list insert's memmove — the cheap "newcomer insertion" the paper
        claims.  Re-registering an already-known peer replaces its previous
        path; a rejected path leaves the tree as it was.

        Each call records the trie nodes traversed / allocated in
        ``last_insert_nodes_touched`` / ``last_insert_nodes_created`` (and
        the ``total_*`` accumulators) so benchmarks can assert the O(path
        length) bound the same way query benchmarks assert visit counts.
        """
        routers = path.routers
        root = self.routers[0] if self.routers else None
        if path.landmark_id != self.landmark_id or (root is not None and root != routers[-1]):
            self._reject(path, root)
        if path.peer_id in self._attachment:
            self.remove(path.peer_id)

        created = 0
        if root is None:
            self._add_node(routers[-1], -1)
            created += 1
        node = 0
        children = self.children
        for router in routers[-2::-1]:  # landmark side first, root skipped
            child = children[node].get(router)
            if child is None:
                child = self._add_node(router, node)
                created += 1
            node = child

        # Ahead of any entry equal in (hops, sort text), in every row alike.
        # A row holds its path child's entries in the same order, so the slot
        # lies within (entries the child lacks) of the child's slot.
        key = (len(routers), self._interner.key(path.peer_id))
        entry = (*key, path.peer_id)
        index = below = 0
        rows, parent = self.rows, self.parent
        current = node
        while current >= 0:
            row = rows[current]
            index = bisect_left(row, key, index, index + len(row) - below)
            below = len(row)
            row.insert(index, entry)
            current = parent[current]
        self._attachment[path.peer_id] = node
        if self.dirty is not None:
            self._mark_root_path(node)

        self.last_insert_nodes_created = created
        self.last_insert_nodes_touched = len(routers)
        self.total_insert_nodes_created += created
        self.total_insert_nodes_touched += len(routers)
        return node

    def load(self, paths: Sequence[RouterPath]) -> None:
        """Build a tree that holds no peers from a batch of distinct peers' paths.

        The result is the tree one :meth:`insert` per path, in input order,
        would build — node ids, rows entry by entry, interned keys, the
        insert counters and the ``dirty`` marks — without a bisect or a
        memmove (see the module doc).  Raises ``RegistrationError`` before
        changing anything if the tree holds a peer, the batch repeats a peer
        or a path cannot hang under this tree's root.
        """
        if not paths:
            return
        if self._attachment:
            raise RegistrationError(
                f"cannot load the tree of landmark {self.landmark_id!r}: "
                f"it holds {len(self._attachment)} peers"
            )
        root_router = self.routers[0] if self.routers else paths[0].routers[-1]
        for path in paths:
            if path.landmark_id != self.landmark_id or path.routers[-1] != root_router:
                self._reject(path, root_router)
        if len({path.peer_id for path in paths}) != len(paths):
            raise RegistrationError(
                f"cannot load the tree of landmark {self.landmark_id!r}: a peer repeats"
            )

        created = before = touched = 0
        if not self.routers:
            self._add_node(root_router, -1)
            created = 1
        add_node, key, children = self._add_node, self._interner.key, self.children
        attachment = self._attachment
        entries = []
        for path in paths:
            node = 0
            routers = path.routers
            for router in routers[-2::-1]:  # landmark side first, root skipped
                child = children[node].get(router)
                if child is None:
                    child = add_node(router, node)
                    created += 1
                node = child
            peer_id = path.peer_id
            attachment[peer_id] = node
            entries.append((len(routers), key(peer_id), peer_id))
            touched += len(routers)
            self.last_insert_nodes_created = created - before
            before = created

        # Newest first, then a stable sort: colliding reprs keep insert()'s
        # newer-first order.  Each row receives a subsequence of this order.
        entries.reverse()
        entries.sort(key=RANK)
        rows, parent = self.rows, self.parent
        for entry in entries:
            node = attachment[entry[2]]
            while node >= 0:
                rows[node].append(entry)
                node = parent[node]
        if self.dirty is not None:
            self.dirty.update(
                node for node, router in enumerate(self.routers) if router is not None
            )

        self.last_insert_nodes_touched = len(paths[-1].routers)
        self.total_insert_nodes_created += created
        self.total_insert_nodes_touched += touched

    def _reject(self, path: RouterPath, root_router: Optional[NodeId]) -> NoReturn:
        """Raise why ``path`` cannot hang under a root at ``root_router``."""
        if path.landmark_id != self.landmark_id:
            raise RegistrationError(
                f"path of peer {path.peer_id!r} targets landmark {path.landmark_id!r}, "
                f"but this tree belongs to landmark {self.landmark_id!r}"
            )
        raise RegistrationError(
            f"path of peer {path.peer_id!r} ends at router {path.routers[-1]!r}, "
            f"but the tree of landmark {self.landmark_id!r} is rooted at "
            f"{root_router!r}"
        )

    def remove(self, peer_id: PeerId) -> None:
        """Remove a peer (e.g. on departure); prunes now-empty branches."""
        if peer_id not in self._attachment:
            raise UnknownPeerError(peer_id)
        node = self._attachment.pop(peer_id)
        key = (self.depth[node] + 1, self._interner.key(peer_id))
        if self.dirty is not None:
            self._mark_root_path(node)  # before pruning: the pruned ids are on it

        index = below = 0
        rows, parent = self.rows, self.parent
        current = node
        while current >= 0:
            row = rows[current]  # the slot is bounded as in insert()
            index = bisect_left(row, key, index, index + len(row) - below)
            while row[index][2] != peer_id:  # entries equal in (hops, sort text)
                index += 1
            below = len(row)
            del row[index]
            up = parent[current]
            if not row and up >= 0:
                # Nothing at or below: prune, so churn does not grow the trie.
                self._prune(current, up)
            current = up

    def _mark_root_path(self, node: int) -> None:
        """Record every id from ``node`` up to the root as touched."""
        mark = self.dirty.add  # type: ignore[union-attr]
        parent = self.parent
        while node >= 0:
            mark(node)
            node = parent[node]

    # ----------------------------------------------------------------- queries

    def closest_peers(
        self,
        peer_id: PeerId,
        k: int,
        exclude: Optional[Collection[PeerId]] = None,
    ) -> List[Tuple[PeerId, float]]:
        """Return up to ``k`` peers closest to ``peer_id`` by tree distance.

        Delegates to :meth:`closest_from_node` from the peer's attachment
        node, excluding the peer itself — a peer's view of the tree is fully
        determined by the router it attaches at.

        Returns a list of ``(peer_id, dtree)`` sorted by ``dtree`` then peer
        sort text, ``dtree`` a shared float: the list the planes hand on.
        """
        origin = self.attachment_node(peer_id)
        excluded = {peer_id, *exclude} if exclude else (peer_id,)
        return self.closest_from_node(origin, k, excluded)

    def closest_from_node(
        self,
        origin: int,
        k: int,
        exclude: Collection[PeerId] = (),
    ) -> List[Tuple[PeerId, float]]:
        """Up to ``k`` closest peers as seen from a trie node (the engine).

        :func:`closest_from` over the live columns, ``exclude`` a set or a
        tuple of a peer or two: shared-float ``(peer, dtree)`` pairs in
        ``(dtree, sort_text)`` order — byte-identical to ranking every peer
        of the tree by ``(dtree, repr(peer))``, since that is a total order.

        Each call records its work in ``last_query_visits`` (and accumulates
        ``total_query_visits``): index ranges examined plus row entries
        scanned.  It does not grow with the population, nor with the number
        of peers tied at the ``k``-th distance.
        """
        found, visits = closest_from(self.parent, self.rows, origin, k, exclude)
        self.last_query_visits = visits
        self.total_query_visits += visits
        return found

    def __repr__(self) -> str:
        return (
            f"PathTree(landmark={self.landmark_id!r}, peers={self.peer_count}, "
            f"routers={self.router_count})"
        )
