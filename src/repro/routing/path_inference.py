"""Turning raw traceroute output into the router paths the server stores.

A real traceroute towards a landmark can contain anonymous hops (``None``)
and may stop before the destination.  The management server, however, needs a
clean ordered list of router identifiers ending at the landmark: the cleaner
drops the anonymous hops (hop distances along the path shrink slightly, but
the path stays usable) and refuses a trace that never reached the landmark.
"""

from __future__ import annotations

from typing import Hashable, List

from ..exceptions import TracerouteError
from .traceroute import TracerouteResult

NodeId = Hashable


def clean_traceroute(result: TracerouteResult) -> List[NodeId]:
    """The responding routers of a trace, first hop after the source to the landmark.

    Raises :class:`~repro.exceptions.TracerouteError` when the trace did not
    reach its destination.
    """
    if not result.reached:
        raise TracerouteError(
            f"traceroute from {result.source!r} did not reach {result.destination!r}"
        )
    return [hop.router for hop in result.hops if hop.router is not None]
