"""Direct tests of :class:`~repro.core.neighbor_cache.NeighborCache`.

Every plane ends its arrivals and departures in this cache, but until now it
was only exercised through them.  The unit tests pin the bookkeeping rules
one at a time; the differential drives random op sequences through the cache
and through a naive model (lists rebuilt by ``sorted``, reverse index
recomputed from scratch) and compares everything observable after each step.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.management_plane import ServerStats
from repro.core.neighbor_cache import NeighborCache, NeighborEntry


def make_cache(k: int = 3, tracking: bool = True) -> NeighborCache:
    cache = NeighborCache(k, ServerStats())
    if tracking:
        cache.dirty = set()
    return cache


def listed(cache: NeighborCache, owner) -> list:
    return [(peer, distance) for distance, _, peer in cache.lists[owner]]


def index_of(cache: NeighborCache) -> dict:
    """The reverse index as sets: which referrers, not the order they are held in."""
    return {target: set(referrers) for target, referrers in cache.referenced_by.items()}


def reverse_index_of(lists) -> dict:
    index: dict = {}
    for owner, entries in lists.items():
        for entry in entries:
            index.setdefault(entry[2], set()).add(owner)
    return index


class TestEntries:
    def test_named_shape_is_the_sort_order(self):
        entry = NeighborEntry(distance=2.0, sort_text="'b'", peer_id="b")
        assert entry == (2.0, "'b'", "b")
        assert (entry.distance, entry.sort_text, entry.peer_id) == tuple(entry)
        shuffled = [
            NeighborEntry(2.0, "'b'", "b"),
            NeighborEntry(2.0, "'a'", "a"),
            NeighborEntry(1.0, "'z'", "z"),
        ]
        assert sorted(shuffled) == [(1.0, "'z'", "z"), (2.0, "'a'", "a"), (2.0, "'b'", "b")]

    def test_lists_hold_exact_tuples_and_get_names_their_fields(self):
        cache = make_cache()
        cache.store("o", [("a", 1.0), ("b", 2.0)])
        assert cache.lists["o"] == [(1.0, "'a'", "a"), (2.0, "'b'", "b")]
        assert all(type(entry) is tuple for entry in cache.lists["o"])  # exact: C fast paths
        assert cache.lists["o"][0][1] is cache.interner.key("a")
        named = cache.get("o")
        assert named == cache.lists["o"] and named is not cache.lists["o"]
        assert [(entry.peer_id, entry.distance, entry.sort_text) for entry in named] == [
            ("a", 1.0, "'a'"),
            ("b", 2.0, "'b'"),
        ]
        assert cache.get("nobody") is None


class TestStore:
    def test_store_replaces_the_list_and_its_reverse_edges(self):
        cache = make_cache()
        cache.store("o", [("a", 1.0), ("b", 2.0)])
        cache.store("o", [("b", 2.0), ("c", 3.0)])
        assert listed(cache, "o") == [("b", 2.0), ("c", 3.0)]
        assert index_of(cache) == {"b": {"o"}, "c": {"o"}}  # "a" left no empty entry behind
        assert cache.dirty == {"o"}

    def test_restoring_an_equal_list_writes_nothing(self):
        cache = make_cache()
        cache.store("o", [("a", 1.0), ("b", 2.0)])
        cache.store("p", [("a", 4.0)])
        entries = cache.lists["o"]
        first_entries = list(entries)
        referrers = cache.referenced_by["a"]
        cache.dirty.clear()
        cache.store("o", [("a", 1.0), ("b", 2.0)])
        cache.store("o", (("a", 1.0), ("b", 2.0)))  # any sequence of pairs
        assert cache.lists["o"] is entries
        assert all(now is before for now, before in zip(entries, first_entries))
        assert cache.referenced_by["a"] is referrers and set(referrers) == {"o", "p"}
        assert cache.dirty == set()

    def test_equal_list_still_refreshes_a_changed_completeness_stamp(self):
        cache = make_cache()
        cache.store("o", [("a", 1.0)], complete=True)
        entries = cache.lists["o"]
        cache.note_membership_change()
        assert not cache.is_complete("o")
        cache.dirty.clear()
        cache.store("o", [("a", 1.0)], complete=True)
        assert cache.is_complete("o") and cache.completeness_stamp("o") == 1
        assert cache.lists["o"] is entries
        assert cache.dirty == {"o"}  # a snapshot freezes the stamp with the list
        cache.dirty.clear()
        cache.store("o", [("a", 1.0)], complete=True)  # same list, same stamp
        assert cache.dirty == set()
        cache.store("o", [("a", 1.0)])  # same list, the mark goes
        assert cache.completeness_stamp("o") is None and cache.dirty == {"o"}

    def test_a_re_store_that_swaps_one_peer_rewrites_only_that_peer(self):
        cache = make_cache(k=4)
        cache.store("o", [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 3.0)])
        cache.store("p", [("b", 1.0)])
        before = {entry[2]: entry for entry in cache.lists["o"]}
        edges = {peer: cache.referenced_by[peer] for peer in "abcd"}
        cache.dirty.clear()
        # "c" leaves, "e" comes in, "d" moves closer: "a" and "b" stay as they were.
        cache.store("o", [("a", 1.0), ("b", 2.0), ("d", 2.0), ("e", 4.0)])
        assert listed(cache, "o") == [("a", 1.0), ("b", 2.0), ("d", 2.0), ("e", 4.0)]
        now = {entry[2]: entry for entry in cache.lists["o"]}
        assert now["a"] is before["a"] and now["b"] is before["b"]
        assert now["d"] is not before["d"] and now["d"][1] is before["d"][1]
        assert all(cache.referenced_by[peer] is edges[peer] for peer in "abd")
        assert cache.referenced_by["b"] == ["o", "p"]  # the kept edge did not move
        assert cache.referenced_by["e"] == ["o"] and "c" not in cache.referenced_by
        assert index_of(cache) == {"a": {"o"}, "b": {"o", "p"}, "d": {"o"}, "e": {"o"}}
        assert cache.dirty == {"o"}

    def test_an_empty_first_list_is_a_change(self):
        cache = make_cache()
        cache.store("o", [], complete=True)
        assert cache.lists["o"] == [] and cache.is_complete("o") and cache.dirty == {"o"}

    def test_store_works_without_a_change_record(self):
        cache = make_cache(tracking=False)
        cache.store("o", [("a", 1.0)])
        cache.store("o", [("a", 1.0)])
        assert cache.dirty is None and listed(cache, "o") == [("a", 1.0)]


class TestPropagateNewcomer:
    def test_ordered_insert_evicts_the_last_entry(self):
        cache = make_cache(k=3)
        cache.store("o", [("a", 1.0), ("b", 2.0), ("c", 3.0)])
        cache.dirty.clear()
        cache.propagate_newcomer("n", [("o", 1.5), ("ghost", 1.0)])  # "ghost" has no list
        assert listed(cache, "o") == [("a", 1.0), ("n", 1.5), ("b", 2.0)]
        assert index_of(cache) == {"a": {"o"}, "b": {"o"}, "n": {"o"}}  # "c" evicted, entry gone
        assert cache.stats.cache_updates == 1
        assert cache.dirty == {"o"}

    def test_tie_at_the_kth_distance_is_not_admitted(self):
        cache = make_cache(k=2)
        cache.store("o", [("b", 1.0), ("c", 2.0)])
        cache.dirty.clear()
        cache.propagate_newcomer("a", [("o", 2.0)])  # sorts before "c" on text, still a tie
        assert listed(cache, "o") == [("b", 1.0), ("c", 2.0)]
        assert "a" not in cache.referenced_by
        assert cache.stats.cache_updates == 0 and cache.dirty == set()

    def test_a_short_list_admits_any_distance_in_order(self):
        cache = make_cache(k=3)
        cache.store("o", [("b", 2.0)])
        cache.propagate_newcomer("c", [("o", 2.0)])
        cache.propagate_newcomer("a", [("o", 2.0)])
        assert listed(cache, "o") == [("a", 2.0), ("b", 2.0), ("c", 2.0)]

    def test_a_list_that_already_names_the_newcomer_is_left_alone(self):
        cache = make_cache(k=3)
        cache.store("o", [("n", 1.0), ("a", 2.0)])
        cache.store("p", [("a", 1.0)])
        cache.dirty.clear()
        cache.propagate_newcomer("n", [("o", 1.0), ("p", 3.0)])
        assert listed(cache, "o") == [("n", 1.0), ("a", 2.0)]  # not listed twice
        assert listed(cache, "p") == [("a", 1.0), ("n", 3.0)]
        assert set(cache.referenced_by["n"]) == {"o", "p"}
        assert cache.stats.cache_updates == 1 and cache.dirty == {"p"}


class TestDropPeer:
    def test_drop_repairs_exactly_the_referring_lists(self):
        cache = make_cache(k=2)
        cache.store("o", [("a", 1.0), ("x", 2.0)], complete=True)
        cache.store("p", [("x", 1.0)])
        cache.store("q", [("a", 5.0)])
        cache.store("x", [("o", 2.0), ("a", 3.0)])
        untouched = cache.lists["q"]
        cache.dirty.clear()
        cache.drop_peer("x")
        assert "x" not in cache.lists and cache.lists["q"] is untouched
        assert listed(cache, "o") == [("a", 1.0)] and listed(cache, "p") == []
        # x's own edges and the edges to x are both gone.
        assert index_of(cache) == {"a": {"o", "q"}}
        assert cache.is_complete("o")  # a complete list minus a leaver is still complete
        assert cache.stats.departure_updates == 2
        assert cache.dirty == {"o", "p"}

    def test_a_departure_repairs_each_referrer_in_place(self):
        cache = make_cache(k=3)
        cache.store("o", [("a", 1.0), ("x", 2.0), ("b", 3.0)])
        cache.store("p", [("x", 1.0)])
        held = {owner: cache.lists[owner] for owner in ("o", "p")}
        kept = list(held["o"])
        cache.drop_peer("x")
        assert all(cache.lists[owner] is entries for owner, entries in held.items())
        assert cache.lists["o"] == [kept[0], kept[2]] and cache.lists["p"] == []
        assert cache.lists["o"][0] is kept[0] and cache.lists["o"][1] is kept[2]

    def test_dropping_an_unknown_peer_is_a_no_op(self):
        cache = make_cache()
        cache.store("o", [("a", 1.0)])
        cache.drop_peer("ghost")
        assert listed(cache, "o") == [("a", 1.0)] and cache.stats.departure_updates == 0


# ------------------------------------------------------------- differential


class NaiveCache:
    """What the cache means, with no bookkeeping: sort, filter, recompute."""

    def __init__(self, k: int) -> None:
        self.k, self.generation = k, 0
        self.lists: dict = {}
        self.complete: dict = {}
        self.dirty: set = set()
        self.cache_updates = self.departure_updates = 0

    def store(self, owner, pairs, complete) -> None:
        entries = [(distance, repr(peer), peer) for peer, distance in pairs]
        stamp = self.generation if complete else None
        if entries != self.lists.get(owner) or stamp != self.complete.get(owner):
            self.dirty.add(owner)
        self.lists[owner] = entries
        self.complete[owner] = stamp

    def propagate(self, newcomer, neighbors) -> None:
        for peer, distance in neighbors:
            entries = self.lists.get(peer)
            if entries is None or any(entry[2] == newcomer for entry in entries):
                continue
            if len(entries) >= self.k and distance >= entries[-1][0]:
                continue
            self.lists[peer] = sorted(entries + [(distance, repr(newcomer), newcomer)])[: self.k]
            self.cache_updates += 1
            self.dirty.add(peer)

    def drop(self, peer) -> None:
        self.lists.pop(peer, None)
        self.complete.pop(peer, None)
        for owner, entries in self.lists.items():
            if any(entry[2] == peer for entry in entries):
                self.lists[owner] = [entry for entry in entries if entry[2] != peer]
                self.departure_updates += 1
                self.dirty.add(owner)


PEERS = [f"p{index}" for index in range(7)]
DISTANCES = st.sampled_from([1.0, 2.0, 2.0, 3.0, 4.0])  # ties on purpose


@st.composite
def neighbor_pairs(draw, owner, limit):
    candidates = [peer for peer in PEERS if peer != owner]
    others = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=limit))
    pairs = [(peer, draw(DISTANCES)) for peer in others]
    return sorted(pairs, key=lambda pair: (pair[1], repr(pair[0])))  # the order planes compute


#: A refill's one change to the list it finds: (what, which entry, which
#: newcomer, what distance), the indexes taken modulo what is there.
REFILL_EDITS = st.tuples(
    st.sampled_from(["drop", "add", "add", "move", "move"]),
    st.integers(0, 6),
    st.integers(0, 6),
    DISTANCES,
)


def refilled(pairs, owner, k, edit):
    """The owner's current pairs with one entry dropped, added (a full list
    swaps one out for it, an empty one can only gain one) or moved in
    distance, in the order planes compute."""
    what, position, pick, distance = edit
    pairs = list(pairs)
    at = position % len(pairs) if pairs else 0
    if pairs and what == "move":
        pairs[at] = (pairs[at][0], distance)
    elif pairs and (what == "drop" or len(pairs) >= k):
        del pairs[at]
    if what == "add" or not pairs:
        held = {peer for peer, _ in pairs}
        newcomers = [peer for peer in PEERS if peer != owner and peer not in held]
        if newcomers:
            pairs.append((newcomers[pick % len(newcomers)], distance))
    return sorted(pairs, key=lambda pair: (pair[1], repr(pair[0])))


@st.composite
def cache_ops(draw):
    k = draw(st.integers(1, 3))
    ops = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(
            st.sampled_from(
                ["store", "refill", "refill", "refill", "arrive", "propagate", "drop", "bump", "drain"]
            )
        )
        peer = draw(st.sampled_from(PEERS))
        if kind in ("store", "arrive"):
            ops.append((kind, peer, draw(neighbor_pairs(peer, k)), draw(st.booleans())))
        elif kind == "refill":
            ops.append((kind, peer, draw(REFILL_EDITS), draw(st.booleans())))
        elif kind == "propagate":
            ops.append((kind, peer, draw(neighbor_pairs(peer, len(PEERS)))))
        else:
            ops.append((kind, peer))
    return k, ops


@settings(max_examples=120, deadline=None)
@given(cache_ops())
def test_cache_matches_the_naive_model_after_every_step(case):
    k, ops = case
    cache, model = make_cache(k), NaiveCache(k)
    for kind, peer, *args in ops:
        if kind in ("store", "arrive"):
            pairs, complete = args
            cache.store(peer, pairs, complete=complete)
            model.store(peer, pairs, complete)
            if kind == "arrive":  # what ends a join: store, then tell the neighbours
                cache.propagate_newcomer(peer, pairs)
                model.propagate(peer, pairs)
        elif kind == "refill":  # aimed at a non-empty list, if the cache holds one
            edit, complete = args
            owners = sorted(owner for owner, entries in cache.lists.items() if entries)
            owner = owners[PEERS.index(peer) % len(owners)] if owners else peer
            pairs = refilled(listed(cache, owner) if owners else [], owner, k, edit)
            cache.store(owner, pairs, complete=complete)
            model.store(owner, pairs, complete)
        elif kind == "propagate":
            cache.propagate_newcomer(peer, args[0])
            model.propagate(peer, args[0])
        elif kind == "drop":
            cache.drop_peer(peer)
            model.drop(peer)
        elif kind == "bump":
            cache.note_membership_change()
            model.generation += 1
        else:
            assert cache.dirty == model.dirty
            cache.dirty.clear()
            model.dirty.clear()
        assert cache.lists == model.lists
        assert index_of(cache) == reverse_index_of(model.lists)
        # Lists, not sets: nothing but the cache's own bookkeeping keeps a
        # referrer from being held twice.
        assert all(len(set(held)) == len(held) for held in cache.referenced_by.values())
        for owner in PEERS:
            assert cache.is_complete(owner) == (
                owner in model.lists and model.complete.get(owner) == model.generation
            )
        assert cache.dirty == model.dirty
        assert cache.stats.cache_updates == model.cache_updates
        assert cache.stats.departure_updates == model.departure_updates
