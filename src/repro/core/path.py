"""Router paths reported by peers to the management server.

A :class:`RouterPath` is the unit of information the whole scheme runs on: the
ordered list of routers a peer's traceroute recorded between itself and its
chosen landmark, together with the measured landmark RTT.  Paths are ordered
**from the peer towards the landmark**, i.e. ``routers[0]`` is the peer's
first-hop (access) router and ``routers[-1]`` is the landmark's attachment
router (or the landmark host itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Optional, Sequence, Tuple

from ..exceptions import RegistrationError
from ..routing.path_inference import CleanedPath

NodeId = Hashable
PeerId = Hashable
LandmarkId = Hashable


@dataclass(frozen=True, slots=True)
class RouterPath:
    """An immutable peer-to-landmark router path.

    Attributes
    ----------
    peer_id:
        Identifier of the reporting peer.
    landmark_id:
        Identifier of the landmark the path leads to.
    routers:
        Ordered router identifiers, peer side first, landmark side last.
        Must be non-empty and contain no duplicates (a routed path never
        visits the same router twice).  Any sequence is stored as a tuple,
        so equal routes compare and hash equal whatever they were built from.
    rtt_ms:
        Round-trip time to the landmark measured during the probe, if known.
    """

    peer_id: PeerId
    landmark_id: LandmarkId
    routers: Tuple[NodeId, ...]
    rtt_ms: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "routers", tuple(self.routers))
        if len(self.routers) == 0:
            raise RegistrationError(
                f"peer {self.peer_id!r} reported an empty path to landmark {self.landmark_id!r}"
            )
        if len(set(self.routers)) != len(self.routers):
            raise RegistrationError(
                f"peer {self.peer_id!r} reported a path with repeated routers: {self.routers!r}"
            )

    @classmethod
    def from_routers(
        cls,
        peer_id: PeerId,
        landmark_id: LandmarkId,
        routers: Sequence[NodeId],
        rtt_ms: Optional[float] = None,
    ) -> "RouterPath":
        """Build a path from any router sequence (copied into a tuple)."""
        return cls(peer_id, landmark_id, routers, rtt_ms)  # type: ignore[arg-type]

    @classmethod
    def from_cleaned(
        cls,
        peer_id: PeerId,
        landmark_id: LandmarkId,
        cleaned: CleanedPath,
        rtt_ms: Optional[float] = None,
    ) -> "RouterPath":
        """Build a path from a :class:`~repro.routing.path_inference.CleanedPath`."""
        return cls.from_routers(peer_id, landmark_id, cleaned.routers, rtt_ms=rtt_ms)

    # ------------------------------------------------------------------ views

    @property
    def access_router(self) -> NodeId:
        """The peer-side (first-hop) router."""
        return self.routers[0]

    @property
    def landmark_router(self) -> NodeId:
        """The landmark-side (final) router."""
        return self.routers[-1]

    @property
    def hop_count(self) -> int:
        """Hops from the peer to the landmark (host-to-access-router included)."""
        return len(self.routers)

    def from_landmark(self) -> Tuple[NodeId, ...]:
        """Routers ordered landmark → peer (the order the path tree walks).

        A new tuple per call: a path keeps no reversed copy (one tuple per
        registered peer), and the plane's hot paths read ``routers[-1]`` or
        walk ``routers[-2::-1]`` instead of calling this.
        """
        return self.routers[::-1]

    def depth_of(self, router: NodeId) -> int:
        """Distance (in hops along the path) from the landmark side to ``router``.

        The landmark-side router has depth 0, the access router has depth
        ``hop_count - 1``.
        """
        for depth, candidate in enumerate(reversed(self.routers)):
            if candidate == router:
                return depth
        raise RegistrationError(f"router {router!r} is not on the path of peer {self.peer_id!r}")

    def __len__(self) -> int:
        return len(self.routers)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.routers)


def shared_suffix_length(path_a: RouterPath, path_b: RouterPath) -> int:
    """Number of routers shared at the landmark end of two paths."""
    shared = 0
    for a, b in zip(reversed(path_a.routers), reversed(path_b.routers)):
        if a != b:
            break
        shared += 1
    return shared


def tree_distance(path_a: RouterPath, path_b: RouterPath) -> Optional[int]:
    """Inferred distance ``dtree`` between the two paths' peers.

    ``dtree(p1, p2) = hops(p1 → branch) + hops(branch → p2)`` where *branch*
    is the router closest to the peers that both recorded paths traverse
    (their lowest common ancestor in the landmark-rooted tree).  One extra hop
    per peer accounts for the host-to-access-router link.

    Returns ``None`` when the two paths share no router at all (e.g. they
    lead to different landmarks), in which case the caller must fall back to
    a cross-landmark estimate.
    """
    if path_a.peer_id == path_b.peer_id:
        return 0
    shared = shared_suffix_length(path_a, path_b)
    if shared == 0:
        return None
    hops_a = path_a.hop_count - shared + 1
    hops_b = path_b.hop_count - shared + 1
    return hops_a + hops_b
