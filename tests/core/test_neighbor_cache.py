"""Direct tests of :class:`~repro.core.neighbor_cache.NeighborCache`.

Every plane ends its arrivals and departures in this cache, but until now it
was only exercised through them.  The unit tests pin the bookkeeping rules
one at a time; the differential drives random op sequences through the cache
and through a naive model (lists rebuilt by ``sorted``, reverse index
recomputed from scratch) and compares everything observable after each step.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.interning import PeerKeyInterner
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


def registered_in(state) -> set:
    """Every owner and listed peer of an exported cache: the peers a plane
    restoring it would have registered."""
    _, lists, _ = state
    return {owner for owner, _ in lists} | {peer for _, pairs in lists for peer, _ in pairs}


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
        assert cache.lists["o"][0][1] is cache.interner.key("a")[0]
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
        assert cache.referenced_by["a"] is referrers and cache.referencing("a") == {"o", "p"}
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
        assert cache.referencing("n") == {"o", "p"}
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

    def test_dropping_an_unknown_peer_is_a_no_op(self):
        cache = make_cache()
        cache.store("o", [("a", 1.0)])
        cache.drop_peer("ghost")
        assert listed(cache, "o") == [("a", 1.0)] and cache.stats.departure_updates == 0


class TestStateRoundTrip:
    def test_imported_cache_equals_the_source_entry_for_entry(self):
        source = make_cache(k=3)
        source.store("o", [("a", 1.0), ("b", 2.0)], complete=True)
        source.store("a", [("o", 1.0), ("b", 1.0), ("c", 4.0)])
        source.store("b", [])
        source.propagate_newcomer("n", [("o", 1.5), ("a", 0.5)])
        source.note_membership_change()
        source.store("c", [("a", 4.0)], complete=True)
        target = make_cache(k=3)
        target.store("stale", [("o", 1.0)])
        state = source.export_state()
        target.import_state(state, registered_in(state))
        # Entries compare sort_text too: a restore that interned differently shows here.
        assert target.lists == source.lists
        assert list(target.lists) == list(source.lists)
        assert index_of(target) == index_of(source)
        assert target.membership_generation == source.membership_generation
        for owner in source.lists:
            assert target.completeness_stamp(owner) == source.completeness_stamp(owner)
            assert target.is_complete(owner) == source.is_complete(owner)

    def test_referrer_order_is_not_part_of_the_round_trip(self):
        """A restore rebuilds each target's referrers in owner order, which a
        history of re-stores need not have left behind: the index means the
        same, and the caches keep behaving the same."""
        source = make_cache(k=2)
        source.store("a", [("x", 1.0)])
        source.store("b", [("x", 1.0)])
        source.store("a", [("x", 2.0)])  # "a" re-listed: now the newer referrer of "x"
        target = make_cache(k=2)
        state = source.export_state()
        target.import_state(state, registered_in(state))
        assert source.referenced_by["x"] == ["b", "a"]
        assert target.referenced_by["x"] == ["a", "b"]
        assert index_of(target) == index_of(source)
        assert target.referencing("x") == source.referencing("x") == {"a", "b"}
        for cache in (source, target):
            cache.drop_peer("x")
            cache.propagate_newcomer("y", [("b", 1.0), ("a", 3.0)])
        assert target.lists == source.lists
        assert index_of(target) == index_of(source) == {"y": {"a", "b"}}

    def test_import_of_12800_lists_is_one_key_call_per_pair(self):
        """The work of a restore's cache import, counted instead of timed."""

        class CountingInterner(PeerKeyInterner):
            __slots__ = ("calls",)

            def key(self, peer_id):
                self.calls += 1
                return super().key(peer_id)

        peers, k = 12_800, 5
        lists = tuple(
            (owner, tuple(((owner + step) % peers, float(step)) for step in range(1, k + 1)))
            for owner in range(peers)
        )
        interner = CountingInterner()
        interner.calls = 0
        cache = NeighborCache(k, ServerStats(), interner)
        cache.import_state((7, lists, ((0, 7),)), range(peers))
        assert interner.calls == peers * k
        assert len(cache.lists) == peers
        assert all(len(referrers) == k for referrers in cache.referenced_by.values())
        last = [(12_799 + step) % peers for step in range(1, k + 1)]
        assert cache.lists[12_799] == [
            (float(step), repr(peer), peer) for step, peer in enumerate(last, start=1)
        ]
        assert cache.is_complete(0) and not cache.is_complete(1)
        assert cache.export_state() == (7, lists, ((0, 7),))


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


@st.composite
def cache_ops(draw):
    k = draw(st.integers(1, 3))
    ops = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(
            st.sampled_from(["store", "store", "arrive", "propagate", "drop", "bump", "drain"])
        )
        peer = draw(st.sampled_from(PEERS))
        if kind in ("store", "arrive"):
            ops.append((kind, peer, draw(neighbor_pairs(peer, k)), draw(st.booleans())))
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
