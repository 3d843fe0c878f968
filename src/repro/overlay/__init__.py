"""Overlay layer: peers, neighbour bookkeeping, selection strategies, churn."""

from .peer import Peer
from .overlay import Overlay
from .neighbor_selection import (
    NeighborSelectionStrategy,
    OracleStrategy,
    PathTreeSelection,
    RandomStrategy,
    build_overlay_with_strategy,
)
from .churn import (
    EVENT_CRASH,
    EVENT_JOIN,
    EVENT_LEAVE,
    ChurnEvent,
    ChurnModel,
    churn_statistics,
)

__all__ = [
    "Peer",
    "Overlay",
    "NeighborSelectionStrategy",
    "OracleStrategy",
    "PathTreeSelection",
    "RandomStrategy",
    "build_overlay_with_strategy",
    "EVENT_CRASH",
    "EVENT_JOIN",
    "EVENT_LEAVE",
    "ChurnEvent",
    "ChurnModel",
    "churn_statistics",
]
