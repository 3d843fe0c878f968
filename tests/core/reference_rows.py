"""The trie's closest-peer kernel as it stood before it read ranges by cursor.

:func:`closest_in_rows` here is the bisecting version of
:func:`repro.core.path_tree.closest_in_rows`, kept verbatim as an oracle:
each stream step bisects its own row for the range's end and its path
child's row for the child's range at that hop value (three bisects a step).
``test_rows_kernel.py`` asserts that both kernels return the same
``(found, visits)``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import itemgetter
from typing import Collection, Iterable, List, Sequence, Tuple

from repro.core.path import PeerId
from repro.core.path_tree import Entry

_BY_SORT_TEXT = itemgetter(1)
_EXHAUSTED = float("inf")


def closest_in_rows(
    chain: Iterable[Sequence[Entry]], origin_hops: int, k: int, excluded: Collection[PeerId]
) -> Tuple[List[Tuple[PeerId, int]], int]:
    """The ``k`` closest peers read off an ancestor chain of rows.

    ``chain`` holds the rows of the origin node and of each ancestor up to
    the root; ``origin_hops`` is the hop value of a peer attached at the
    origin (its depth + 1).  Returns ``(peer, dtree)`` pairs in ``(dtree,
    sort_text)`` order and the work done: ranges examined plus entries
    scanned, the figure ``PathTree.last_query_visits`` reports.

    Each ancestor is a stream of its row's hop values in increasing order,
    hence of increasing distance.  The streams due at the smallest pending
    distance each give up their first ``k - found`` candidates — the range
    at that hop value, skipping the entries the path child's row holds at
    the same value (both in row order, same objects) and the excluded peers
    — and the few taken are merged by sort text.  An ancestor whose row is
    as long as its path child's (a unary chain) adds no peer and no stream;
    a range as long as the child's is skipped after the bisects.

    A range is scanned for at most ``2k + len(excluded)`` entries: whatever
    the path child holds at that hop value was on offer at a smaller
    distance, so had it held ``k`` eligible peers the query would be over.
    """
    # [next distance, distance - hop value, row, path child's row, range start]
    streams = []
    below: Sequence[Entry] = ()
    shift = 2 - origin_hops
    for row in chain:
        if len(row) > len(below):
            streams.append([row[0][0] + shift, shift, row, below, 0])
        below = row
        shift += 2
    found: List[Tuple[PeerId, int]] = []
    visits = 0
    while len(found) < k and streams:
        distance = min([stream[0] for stream in streams])
        if distance == _EXHAUSTED:
            break
        need = k - len(found)
        tied: List[Entry] = []
        merge = False
        for stream in streams:
            if stream[0] != distance:
                continue
            _, shift, row, below, low = stream
            after = (distance - shift + 1,)
            high = bisect_left(row, after, low)
            stream[0] = row[high][0] + shift if high < len(row) else _EXHAUSTED
            stream[4] = high
            skip = bisect_left(below, (after[0] - 1,))
            skip_end = bisect_left(below, after, skip)
            visits += 1
            if high - low == skip_end - skip:
                continue
            merge = bool(tied)  # a second stream's share: sort them together
            enough = len(tied) + need
            for entry in islice(row, low, high):
                visits += 1
                if skip < skip_end and entry is below[skip]:
                    skip += 1
                elif entry[2] not in excluded:
                    tied.append(entry)
                    if len(tied) == enough:
                        break
        if merge:
            tied.sort(key=_BY_SORT_TEXT)
            del tied[need:]
        found.extend([(entry[2], distance) for entry in tied])
    return found, visits
