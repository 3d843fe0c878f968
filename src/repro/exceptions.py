"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses are provided per
subsystem so that tests and applications can react to the precise failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """Raised for malformed or inconsistent network topologies."""


class NodeNotFoundError(TopologyError):
    """Raised when a router or host id is not present in the topology."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"node {node_id!r} is not part of the topology")
        self.node_id = node_id


class EdgeNotFoundError(TopologyError):
    """Raised when an edge is requested between two unconnected nodes."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"no edge between {u!r} and {v!r}")
        self.u = u
        self.v = v


class DisconnectedGraphError(TopologyError):
    """Raised when an operation requires a connected graph but it is not."""


class GeneratorError(TopologyError):
    """Raised when a topology generator receives invalid parameters."""


class RoutingError(ReproError):
    """Raised for routing failures (no route, bad routing table, ...)."""


class NoRouteError(RoutingError):
    """Raised when no route exists between a source and a destination."""

    def __init__(self, source: object, destination: object) -> None:
        super().__init__(f"no route from {source!r} to {destination!r}")
        self.source = source
        self.destination = destination


class TracerouteError(RoutingError):
    """Raised when a simulated traceroute cannot produce a usable path."""


class SimulationError(ReproError):
    """Raised by the discrete-event simulation engine."""


class ClockError(SimulationError):
    """Raised when an event is scheduled in the past."""


class ProtocolError(ReproError):
    """Raised when the join protocol receives an unexpected message."""


class RegistrationError(ProtocolError):
    """Raised when a peer registration at the management server is invalid."""


class UnknownPeerError(ProtocolError):
    """Raised when an operation references a peer the server does not know."""

    def __init__(self, peer_id: object) -> None:
        super().__init__(f"peer {peer_id!r} is not registered")
        self.peer_id = peer_id


class LandmarkError(ReproError):
    """Raised for landmark placement or lookup problems."""


class WireProtocolError(ReproError):
    """Raised when the shard wire protocol is violated.

    Covers malformed or truncated frames and unknown operations —
    transport-level corruption, deliberately distinct from
    :class:`ProtocolError` (the peer-facing *join* protocol) so handlers of
    registration errors never swallow a corrupt channel.  Client code
    normally sees these wrapped in :class:`ShardUnavailableError`.
    """


class ShardUnavailableError(ReproError):
    """Raised when a management-plane shard backend cannot serve a request.

    Carries the shard's name so operators (and fault-injection tests) can
    tell *which* shard failed, and a reason describing how it failed
    (crashed worker, closed channel, timeout, protocol violation).
    """

    def __init__(self, shard: object, reason: str) -> None:
        super().__init__(f"shard {shard!r} is unavailable: {reason}")
        self.shard = shard
        self.reason = reason


class ConfigurationError(ReproError):
    """Raised when an experiment or scenario configuration is invalid."""


class MetricError(ReproError):
    """Raised when a metric cannot be computed from the provided data."""
