"""Seeded input generators for the benchmark workloads.

``--seed`` is the only source of randomness in a run: every generator here
is a pure function of its arguments, returns plain data (strings, tuples,
ints) and imports nothing from the program under test, so the program sees
only the generated inputs.  ``plane-churn-inline`` and ``plane-churn-socket``
build their population and op stream from the same calls with the same
seed, which is what makes their answer digests comparable.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

#: Operation kinds of the churn stream.
QUERY, COLD_QUERY, LEAVE, JOIN = range(4)
OP_NAMES = ("query", "cold_query", "leave", "join")

#: The stationary mix of the ``plane-churn-*`` workloads.
CHURN_MIX = (0.60, 0.15, 0.125, 0.125)

#: Access-hierarchy fan-out per landmark (regions x PoPs x access routers):
#: the three-level shape real landmark trees have.
REGIONS, POPS, ACCESS = 12, 30, 60


class PathSpec(NamedTuple):
    """One peer-to-landmark path as plain data (peer side first)."""

    peer_id: str
    landmark_id: str
    routers: Tuple[str, ...]


def _derive(seed: int, label: str) -> random.Random:
    """An independent stream per (seed, purpose), stable across processes."""
    return random.Random(f"{seed}:{label}")


def landmark_ids(count: int) -> List[str]:
    return [f"lmk{index}" for index in range(count)]


def landmark_distances(count: int) -> Dict[Tuple[str, str], float]:
    """Deterministic pairwise hop distances between the synthetic landmarks."""
    names = landmark_ids(count)
    return {
        (names[i], names[j]): float(2 + abs(i - j))
        for i in range(count)
        for j in range(i + 1, count)
    }


def synthetic_paths(
    seed: int, count: int, landmark_count: int, shared_core: bool = False
) -> List[PathSpec]:
    """``count`` peer paths over per-landmark three-level access hierarchies.

    Each landmark owns a disjoint hierarchy, so the per-landmark tries are
    independent.  With ``shared_core`` every path instead crosses one
    ``core`` router (single-landmark populations only): the topology the
    paths imply is then connected, which the protocol simulation needs.
    """
    if shared_core and landmark_count != 1:
        raise ValueError("a shared core needs exactly one landmark")
    rng = _derive(seed, "paths")
    names = landmark_ids(landmark_count)
    paths = []
    for index in range(count):
        landmark = names[rng.randrange(landmark_count)]
        region, pop, access = rng.randrange(REGIONS), rng.randrange(POPS), rng.randrange(ACCESS)
        stem = "" if shared_core else f"{landmark}-"
        routers = (
            f"{stem}access-{region}-{pop}-{access}",
            f"{stem}pop-{region}-{pop}",
            f"{stem}region-{region}",
            f"{stem}core",
            landmark,
        )
        paths.append(PathSpec(f"peer{index}", landmark, routers))
    return paths


class ChurnStream:
    """A stationary op stream over a live set and an absent reserve.

    Peers are indices into the population's path list.  A leave moves a
    random live peer to the reserve and a join moves a random reserved peer
    back, so the live population hovers at its initial size; when the
    reserve runs empty (or doubles) the stream turns the offending join
    (or leave) into its opposite, which keeps every generated op valid.
    """

    def __init__(self, seed: int, live: int, reserve: int) -> None:
        self._rng = _derive(seed, "ops")
        self.live = list(range(live))
        self.absent = list(range(live, live + reserve))
        self._reserve_cap = 2 * reserve

    def take(self, count: int, mix: Sequence[float] = CHURN_MIX) -> List[Tuple[int, int]]:
        """The next ``count`` ops as ``(kind, peer_index)`` pairs."""
        rng, live, absent = self._rng, self.live, self.absent
        query_below = mix[0]
        cold_below = query_below + mix[1]
        leave_below = cold_below + mix[2]
        ops = []
        for _ in range(count):
            draw = rng.random()
            if draw < query_below:
                ops.append((QUERY, live[rng.randrange(len(live))]))
                continue
            if draw < cold_below:
                ops.append((COLD_QUERY, live[rng.randrange(len(live))]))
                continue
            leave = draw < leave_below
            if leave and len(absent) >= self._reserve_cap:
                leave = False
            elif not leave and not absent:
                leave = True
            source, target = (live, absent) if leave else (absent, live)
            position = rng.randrange(len(source))
            peer = source[position]
            source[position] = source[-1]
            source.pop()
            target.append(peer)
            ops.append((LEAVE if leave else JOIN, peer))
        return ops


class ProtocolScript(NamedTuple):
    """Inputs of one ``protocol-lossy`` run."""

    paths: List[PathSpec]
    handovers: List[Tuple[int, float, int]]
    """``(peer_index, at_ms, donor_index)``: the peer adopts the donor's routers."""
    stops: List[Tuple[int, float]]
    """``(peer_index, at_ms)``: the peer falls silent."""


def protocol_script(
    seed: int, peers: int, duration_ms: float, handover_share: float, stop_share: float
) -> ProtocolScript:
    """Paths plus scripted handovers and silent stops for the beaconing sim.

    Handover targets are other peers' router sequences, so every
    post-handover path already exists in the topology the paths imply.
    Stops fall early enough for the host's TTL sweep to expire the peer
    before the run ends.
    """
    paths = synthetic_paths(seed, peers, landmark_count=1, shared_core=True)
    rng = _derive(seed, "script")
    movers = rng.sample(range(peers), int(peers * (handover_share + stop_share)))
    handover_count = int(peers * handover_share)
    handovers = [
        (peer, rng.uniform(0.2, 0.8) * duration_ms, rng.randrange(peers))
        for peer in movers[:handover_count]
    ]
    stops = [(peer, rng.uniform(0.2, 0.35) * duration_ms) for peer in movers[handover_count:]]
    return ProtocolScript(paths, handovers, stops)
