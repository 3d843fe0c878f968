"""Simulated traceroute over a routed topology.

The paper's newcomer runs "a traceroute-like tool" towards its closest
landmark and uploads the recorded router list to the management server.  The
paper also notes the tool "could be a decreased version of the original one
because we are only interested with some routers along the path".

This module simulates the probe process with the imperfections real
traceroutes exhibit, so the management-server code is exercised on realistic
(possibly gappy) paths:

* **anonymous routers** — some routers do not answer TTL-expired probes; the
  corresponding hop is recorded as unknown (``None``) and later repaired or
  skipped by :mod:`repro.routing.path_inference`;
* **probe loss** — each per-hop probe can be lost and retried a configurable
  number of times before the hop is declared anonymous;
* **max TTL** — long routes are truncated, as with the real tool;
* **per-hop RTT** — cumulative latency along the routed path plus jitter.

Finding the closest landmark does not take a traceroute:
:meth:`TracerouteSimulator.ping` is one echo along the same routed path (the
RTT a trace's last hop would report, for one jitter draw), which is what the
newcomer sends to every landmark before it traces the winner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence

from .._validation import (
    coerce_seed,
    require_non_negative_float,
    require_positive_int,
    require_probability,
)
from ..exceptions import TracerouteError
from ..topology.graph import Graph
from .route_table import RouteTable

NodeId = Hashable


@dataclass
class TracerouteConfig:
    """Behavioural knobs of the simulated traceroute tool."""

    anonymous_router_probability: float = 0.0
    """Probability that a given router never answers probes."""

    probe_loss_probability: float = 0.0
    """Probability that an individual probe packet is lost."""

    probes_per_hop: int = 3
    """Number of probes sent per hop before giving up (standard tool default)."""

    max_ttl: int = 64
    """Hops after which the probe is abandoned."""

    rtt_jitter_ms: float = 0.5
    """Uniform jitter added to each hop's measured RTT."""

    seed: Optional[int] = None
    """Seed for the probe-loss / anonymity RNG."""

    def __post_init__(self) -> None:
        require_probability(self.anonymous_router_probability, "anonymous_router_probability")
        require_probability(self.probe_loss_probability, "probe_loss_probability")
        require_positive_int(self.probes_per_hop, "probes_per_hop")
        require_positive_int(self.max_ttl, "max_ttl")
        require_non_negative_float(self.rtt_jitter_ms, "rtt_jitter_ms")
        coerce_seed(self.seed)


@dataclass
class TracerouteHop:
    """One hop of a traceroute result."""

    ttl: int
    router: Optional[NodeId]
    """Router that answered, or ``None`` if the hop stayed anonymous."""

    rtt_ms: Optional[float]
    """Measured cumulative RTT at this hop, or ``None`` if unanswered."""

    @property
    def responded(self) -> bool:
        """True if a router answered at this TTL."""
        return self.router is not None


@dataclass
class TracerouteResult:
    """Full result of one simulated traceroute."""

    source: NodeId
    destination: NodeId
    hops: List[TracerouteHop] = field(default_factory=list)
    reached: bool = False

    def responding_routers(self) -> List[NodeId]:
        """Routers that answered, in path order (gaps dropped)."""
        return [hop.router for hop in self.hops if hop.router is not None]

    def raw_routers(self) -> List[Optional[NodeId]]:
        """Routers in path order with ``None`` marking anonymous hops."""
        return [hop.router for hop in self.hops]

    def destination_rtt_ms(self) -> Optional[float]:
        """RTT measured at the destination hop, if it was reached."""
        if not self.reached or not self.hops:
            return None
        return self.hops[-1].rtt_ms

    @property
    def hop_count(self) -> int:
        """Number of hops probed."""
        return len(self.hops)


class TracerouteSimulator:
    """Simulates traceroute probes over routes provided by a :class:`RouteTable`.

    Parameters
    ----------
    graph:
        The router topology (needed for per-link latencies).
    route_table:
        Forwarding state; destinations are added lazily as they are probed.
    config:
        Probe behaviour; the default config is a perfect tool (no loss, no
        anonymous routers), which matches the paper's idealised assumption.
    """

    def __init__(
        self,
        graph: Graph,
        route_table: Optional[RouteTable] = None,
        config: Optional[TracerouteConfig] = None,
    ) -> None:
        self.graph = graph
        self.route_table = route_table or RouteTable(graph=graph)
        self.config = config or TracerouteConfig()
        self._rng = random.Random(self.config.seed)
        # Anonymity is a property of the router, not of the probe: decide once.
        self._anonymous: set = set()
        self._anonymity_decided: set = set()

    def _is_anonymous(self, router: NodeId) -> bool:
        if router not in self._anonymity_decided:
            self._anonymity_decided.add(router)
            if self._rng.random() < self.config.anonymous_router_probability:
                self._anonymous.add(router)
        return router in self._anonymous

    def _hop_responds(self, router: NodeId) -> bool:
        """Decide whether any of the per-hop probes gets an answer."""
        if self._is_anonymous(router):
            return False
        for _ in range(self.config.probes_per_hop):
            if self._rng.random() >= self.config.probe_loss_probability:
                return True
        return False

    def trace(self, source: NodeId, destination: NodeId) -> TracerouteResult:
        """Run one traceroute from ``source`` towards ``destination``.

        The source host itself is not part of the recorded hops (as with the
        real tool); the destination appears as the final hop when reached.
        """
        if source == destination:
            return TracerouteResult(source=source, destination=destination, hops=[], reached=True)

        routed_path = self.route_table.route(source, destination)
        if len(routed_path) < 2:
            raise TracerouteError(f"degenerate route from {source!r} to {destination!r}")

        result = TracerouteResult(source=source, destination=destination)
        # One source of routed latency for trace and ping: what is still to
        # go from a router is read off the route's latency column, so the
        # last hop's RTT is exactly what a ping along the same route measures.
        tree = self.route_table.add_destination(destination)
        latency, index = tree.latency, tree.index
        total_latency = latency[index[source]]
        # routed_path = [source, r1, r2, ..., destination]; probe r1 onwards.
        for ttl, router in enumerate(routed_path[1:], start=1):
            if ttl > self.config.max_ttl:
                break
            is_destination = router == destination
            # The destination answers the final probe even if configured
            # anonymous: it is a landmark host we control, not a router.
            responds = self._hop_responds(router) or is_destination
            if responds:
                cumulative_latency = total_latency - latency[index[router]]
                jitter = self._rng.uniform(0.0, self.config.rtt_jitter_ms)
                rtt = 2.0 * cumulative_latency + jitter
                result.hops.append(TracerouteHop(ttl=ttl, router=router, rtt_ms=rtt))
            else:
                result.hops.append(TracerouteHop(ttl=ttl, router=None, rtt_ms=None))
            if is_destination:
                result.reached = True
                break
        return result

    def ping(self, source: NodeId, destination: NodeId) -> Optional[float]:
        """One echo RTT from ``source`` to ``destination``, or ``None`` past ``max_ttl``.

        The echo travels the same routed path :meth:`trace` walks, so with no
        jitter it equals the RTT of that trace's last hop; it costs one
        jitter draw from the simulator's RNG instead of a probe per hop.  An
        echo has no TTL games to play, so anonymous routers and per-hop probe
        loss do not apply.
        """
        if source == destination:
            return 0.0
        tree = self.route_table.add_destination(destination)
        position = tree.position(source)
        if tree.hops[position] > self.config.max_ttl:
            return None
        jitter = self._rng.uniform(0.0, self.config.rtt_jitter_ms)
        return 2.0 * tree.latency[position] + jitter

    def trace_many(self, source: NodeId, destinations: Sequence[NodeId]) -> List[TracerouteResult]:
        """Trace from ``source`` towards each destination in order."""
        return [self.trace(source, destination) for destination in destinations]
