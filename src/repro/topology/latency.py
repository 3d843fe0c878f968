"""Link-latency models for generated topologies.

The paper's metric is hop distance, but two parts of the system need
latencies: the newcomer must pick its *closest landmark* "in terms of
latency", and the simulated wire delivers messages after realistic RTTs.
Real per-link latency data is not available for a synthetic map, so
:class:`TieredLatencyModel` (the router map's model) synthesises it from the
tiers of a link's endpoints; :class:`ConstantLatencyModel` gives every link
the same latency.  A model writes the latency (in milliseconds) into the edge
attribute ``latency`` (:data:`repro.topology.graph.DEFAULT_WEIGHT_KEY`),
which the routing layer uses as its default weight.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional

from .._validation import coerce_seed, require_non_negative_float, require_positive_float
from .graph import DEFAULT_WEIGHT_KEY, Graph


class LatencyModel(ABC):
    """Base class: assigns a latency to every edge of a graph."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = coerce_seed(seed)
        self._rng = random.Random(self._seed)

    @abstractmethod
    def edge_latency(self, graph: Graph, u, v) -> float:
        """Return the latency (ms) to assign to edge ``(u, v)``."""

    def assign(self, graph: Graph, key: str = DEFAULT_WEIGHT_KEY) -> None:
        """Write a latency into every edge's ``key`` attribute."""
        for u, v in graph.edges():
            graph.set_edge_attribute(u, v, key, self.edge_latency(graph, u, v))


class ConstantLatencyModel(LatencyModel):
    """Every link has the same latency (hop count scaled by a constant)."""

    def __init__(self, latency_ms: float = 1.0, seed: Optional[int] = None) -> None:
        super().__init__(seed)
        self.latency_ms = require_positive_float(latency_ms, "latency_ms")

    def edge_latency(self, graph: Graph, u, v) -> float:
        return self.latency_ms


class TieredLatencyModel(LatencyModel):
    """Latency depends on the tiers of the link endpoints.

    Core–core links model long-haul backbone links (higher propagation
    delay), access links (stub–anything) are short, and everything else sits
    in between.  A small multiplicative jitter keeps ties rare.  This is the
    default model used by :func:`repro.topology.internet_mapper.generate_router_map`.
    """

    def __init__(
        self,
        core_core_ms: float = 12.0,
        core_transit_ms: float = 6.0,
        transit_transit_ms: float = 4.0,
        access_ms: float = 2.0,
        jitter_fraction: float = 0.3,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(seed)
        self.core_core_ms = require_positive_float(core_core_ms, "core_core_ms")
        self.core_transit_ms = require_positive_float(core_transit_ms, "core_transit_ms")
        self.transit_transit_ms = require_positive_float(transit_transit_ms, "transit_transit_ms")
        self.access_ms = require_positive_float(access_ms, "access_ms")
        self.jitter_fraction = require_non_negative_float(jitter_fraction, "jitter_fraction")
        # The backbone pairs with their own latency; any other pair without a
        # stub end, an unknown tier included, is transit–transit.
        self._backbone_ms = {
            ("core", "core"): self.core_core_ms,
            ("core", "transit"): self.core_transit_ms,
            ("transit", "core"): self.core_transit_ms,
        }

    def _base_latency(self, tier_u: str, tier_v: str) -> float:
        """The link's latency before jitter: a link with a stub end is an access link."""
        if tier_u == "stub" or tier_v == "stub":
            return self.access_ms
        return self._backbone_ms.get((tier_u, tier_v), self.transit_transit_ms)

    def edge_latency(self, graph: Graph, u, v) -> float:
        base = self._base_latency(
            graph.node_attributes(u).get("tier", "transit"),
            graph.node_attributes(v).get("tier", "transit"),
        )
        jitter = 1.0 + self._rng.uniform(-self.jitter_fraction, self.jitter_fraction)
        return max(0.05, base * jitter)
