"""Discrete-event simulation substrate (the reproduction's PeerSim stand-in)."""

from .engine import Engine
from .events import Event, EventCallback, TimerHandle
from .network import DeliveryRecord, MessageHandler, SimulatedNetwork
from .rng import RandomStreams, derive_seed
from .trace import SeriesSummary, TraceCollector, summarize_values

__all__ = [
    "Engine",
    "Event",
    "EventCallback",
    "TimerHandle",
    "DeliveryRecord",
    "MessageHandler",
    "SimulatedNetwork",
    "RandomStreams",
    "derive_seed",
    "SeriesSummary",
    "TraceCollector",
    "summarize_values",
]
