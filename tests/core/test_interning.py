"""Direct tests of :class:`~repro.core.interning.PeerKeyInterner`.

A peer's key is its sort text, ``repr(peer_id)``, computed once per plane:
the same string object for every later consumer until the peer departs.
"""

from __future__ import annotations

import pytest

from repro.core.interning import PeerKeyInterner

from ..oracle import Twin


class CountedRepr:
    """A peer id that counts how often its ``repr`` runs."""

    calls = 0

    def __repr__(self) -> str:
        CountedRepr.calls += 1
        return "CountedRepr()"


@pytest.mark.parametrize("peer", ["p0", 7, ("lmA", 3), Twin(0)], ids=["str", "int", "tuple", "object"])
def test_a_key_is_the_peers_repr(peer):
    assert PeerKeyInterner().key(peer) == repr(peer)


def test_a_peer_is_interned_once():
    interner, peer = PeerKeyInterner(), CountedRepr()
    CountedRepr.calls = 0
    first = interner.key(peer)
    assert all(interner.key(peer) is first for _ in range(5))
    assert CountedRepr.calls == 1


def test_a_departed_peer_is_interned_again_on_return():
    interner, peer = PeerKeyInterner(), CountedRepr()
    CountedRepr.calls = 0
    interner.key(peer)
    interner.discard(peer)
    assert peer not in interner.table()
    assert interner.key(peer) == "CountedRepr()"
    assert CountedRepr.calls == 2


def test_discarding_a_peer_never_interned_does_nothing():
    interner = PeerKeyInterner()
    interner.key("p0")
    interner.discard("ghost")
    assert interner.table() == {"p0": "'p0'"}


def test_the_table_is_a_copy_of_the_live_keys():
    interner = PeerKeyInterner()
    for peer in ("p0", "p1"):
        interner.key(peer)
    table = interner.table()
    table["p9"] = "'p9'"
    del table["p0"]
    assert interner.table() == {"p0": "'p0'", "p1": "'p1'"}


def test_peers_whose_reprs_collide_keep_one_entry_each():
    interner = PeerKeyInterner()
    twins = [Twin(tag) for tag in range(3)]
    assert {interner.key(twin) for twin in twins} == {"Twin()"}
    assert len(interner.table()) == 3
    interner.discard(twins[0])
    assert list(interner.table()) == twins[1:]


def test_repr_counts_the_live_peers():
    interner = PeerKeyInterner()
    for peer in range(4):
        interner.key(peer)
    interner.discard(2)
    assert repr(interner) == "PeerKeyInterner(peers=3)"
