"""Turning raw traceroute output into the router paths the server stores.

A real traceroute towards a landmark can contain anonymous hops (``None``)
and may stop before the destination.  The management server, however, needs a
clean ordered list of router identifiers ending at the landmark.  This module
provides the cleaning / repair strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List

from .._validation import require_one_of
from ..exceptions import TracerouteError
from .traceroute import TracerouteResult

NodeId = Hashable

GapPolicy = str
GAP_DROP = "drop"
GAP_PLACEHOLDER = "placeholder"
GAP_TRUNCATE = "truncate"
GAP_POLICIES = (GAP_DROP, GAP_PLACEHOLDER, GAP_TRUNCATE)


@dataclass
class CleanedPath:
    """A cleaned router path plus provenance information.

    Attributes
    ----------
    routers:
        Ordered router identifiers from the first hop after the source up to
        and including the landmark.  Placeholder entries (for the
        ``placeholder`` gap policy) are strings of the form
        ``"anon:<source>:<ttl>"`` and are unique per source so they never
        merge with other peers' paths.
    anonymous_hops:
        Number of hops that did not respond in the raw trace.
    truncated:
        True if the raw trace did not reach the landmark.
    """

    source: NodeId
    destination: NodeId
    routers: List[NodeId]
    anonymous_hops: int
    truncated: bool


def clean_traceroute(
    result: TracerouteResult,
    gap_policy: GapPolicy = GAP_DROP,
    require_reached: bool = True,
) -> CleanedPath:
    """Convert a :class:`TracerouteResult` into a :class:`CleanedPath`.

    Parameters
    ----------
    gap_policy:
        ``drop`` (default) removes anonymous hops — hop distances along the
        path shrink slightly but the path stays usable; ``placeholder``
        replaces each anonymous hop with a unique marker (keeps hop counts
        exact, prevents false merges); ``truncate`` cuts the path at the first
        anonymous hop (most conservative).
    require_reached:
        If True (default) a trace that never reached the landmark raises
        :class:`~repro.exceptions.TracerouteError`; if False the truncated
        path is returned with ``truncated=True``.
    """
    require_one_of(gap_policy, GAP_POLICIES, "gap_policy")
    if require_reached and not result.reached:
        raise TracerouteError(
            f"traceroute from {result.source!r} did not reach {result.destination!r}"
        )

    routers: List[NodeId] = []
    anonymous = 0
    for hop in result.hops:
        if hop.router is not None:
            routers.append(hop.router)
            continue
        anonymous += 1
        if gap_policy == GAP_DROP:
            continue
        if gap_policy == GAP_PLACEHOLDER:
            routers.append(f"anon:{result.source}:{hop.ttl}")
            continue
        # GAP_TRUNCATE: stop at the first gap.
        break

    truncated = not result.reached
    if gap_policy == GAP_TRUNCATE and anonymous > 0:
        truncated = truncated or (not routers or routers[-1] != result.destination)

    return CleanedPath(
        source=result.source,
        destination=result.destination,
        routers=routers,
        anonymous_hops=anonymous,
        truncated=truncated,
    )
