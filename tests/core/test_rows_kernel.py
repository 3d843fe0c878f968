"""The cursor kernel against the bisecting kernel it replaced.

:func:`repro.core.path_tree.closest_in_rows` reads each hop range of an
ancestor chain by cursor: a range starts where the stream's previous one
ended, and the path child's entries are passed by identity as the scan
meets them.  Its streams wait in one list sorted by next distance: a lone
due stream appends to the answer as it scans, several due streams are
gathered, sorted by sort text and cut.  ``reference_rows.closest_in_rows``
is the kernel as it stood before, bisecting both rows at every step.  For
random trees — unary chains, peers whose ``repr`` collides, handovers and
departures — both kernels must return the same ``(found, visits)`` from
every drawn origin, over the live rows and over a
:class:`~repro.core.serving.FlatTrie`'s frozen tuples, for ``k`` of 0, 1
and beyond the population and for excluded peers attached on the origin's
chain, off it, and unknown to the tree.  The reference emits int
distances, which compare equal to the live kernel's; the live and frozen
walks must emit the shared floats themselves.

The drawn trees already tie streams, so no hand-built tie test is needed:
one tier-1 run of this module met 80 levels where two streams were due and
36 where three were (with ``test_closest_peers_oracle.py`` and
``test_path_index.py``, 1,407 and 49), and dropping the tie path's sort or
its cut fails it.

The trees are the oracle harness's paths (``tests/oracle.py``): routers
named by their prefix under ``lm0``.  CI's ``sharded-equivalence`` matrix
entry runs this file under the ``ci-equivalence`` profile (``-m oracle``;
the test pins no example budget of its own).
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.path_tree import PathTree, closest_in_rows
from repro.core.serving import FlatTrie

from ..oracle import (
    PROFILED,
    Twin,
    attached,
    branches,
    landmark_name,
    live_nodes,
    make_path,
    root_path,
    shared_floats,
)
from .reference_rows import closest_in_rows as bisecting_closest_in_rows

pytestmark = PROFILED

ROOT = landmark_name(0)
#: Shared across examples: rows are matched by entry identity.
TWINS = tuple(Twin(tag) for tag in range(3))
PEERS = TWINS + tuple(f"p{index}" for index in range(9))


@st.composite
def trees(draw) -> PathTree:
    tree = PathTree(landmark_id=ROOT, landmark_router=ROOT)
    for peer, branch in draw(
        st.lists(st.tuples(st.sampled_from(PEERS), branches(8, fan_out=2)), max_size=16)
    ):
        tree.insert(make_path(peer, 0, branch))  # a known peer hands over
    for peer in draw(st.lists(st.sampled_from(PEERS), max_size=4)):
        if peer in tree:
            tree.remove(peer)
    return tree


@given(tree=trees(), data=st.data())
def test_cursor_kernel_matches_the_bisecting_kernel(tree, data):
    frozen = FlatTrie(ROOT, tree)
    for origin in data.draw(st.lists(st.sampled_from(live_nodes(tree)), min_size=1, max_size=4)):
        ancestors = root_path(tree, origin)
        chain = [tree.rows[node] for node in ancestors]
        on_chain = [peer for node in ancestors for peer in attached(tree, node)]
        off_chain = [peer for peer in tree.peers() if peer not in on_chain]
        excluded = set()
        for group in (on_chain, off_chain, ["absent"]):
            if group:
                excluded |= data.draw(st.sets(st.sampled_from(group), max_size=3))
        k = data.draw(
            st.one_of(st.sampled_from((0, 1)), st.integers(2, tree.peer_count + 3))
        )
        hops = tree.depth[origin] + 1
        expected = bisecting_closest_in_rows(chain, hops, k, excluded)
        live = closest_in_rows(chain, hops, k, excluded)
        assert live == expected
        frozen_chain = [frozen.rows[node] for node in ancestors]
        assert closest_in_rows(frozen_chain, hops, k, excluded) == expected
        assert tree.closest_from_node(origin, k, excluded) == expected[0]
        assert tree.last_query_visits == expected[1]
        # The reference emits int distances; the kernel, the shared floats.
        snapshot = frozen.closest_from_node(origin, k, excluded)
        assert shared_floats(live[0]) and shared_floats(snapshot)
