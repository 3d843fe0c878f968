"""Discrete-event simulation substrate (the reproduction's PeerSim stand-in)."""

from .engine import Engine
from .events import EventCallback, TimerHandle
from .network import DeliveryRecord, MessageHandler, SimulatedNetwork
from .rng import RandomStreams, derive_seed

__all__ = [
    "Engine",
    "EventCallback",
    "TimerHandle",
    "DeliveryRecord",
    "MessageHandler",
    "SimulatedNetwork",
    "RandomStreams",
    "derive_seed",
]
