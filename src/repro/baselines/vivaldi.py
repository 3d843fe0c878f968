"""Vivaldi decentralised network coordinates (Dabek et al., SIGCOMM 2004).

Vivaldi is the coordinate system the paper cites as accurate but *slow to
converge* — a newcomer needs many RTT samples before its coordinate is good
enough to rank peers by proximity.  The reproduction implements the standard
height-vector variant so the convergence benchmark (motivation M1) can show
how many samples Vivaldi needs to match the path-tree scheme's immediate
answer.

The implementation is intentionally faithful to the published algorithm:
each node keeps a Euclidean coordinate plus a height, an error estimate, and
applies the adaptive-timestep update rule on every RTT observation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from .._validation import (
    coerce_seed,
    require_positive_int,
    require_probability,
)
from ..exceptions import ConfigurationError

PeerId = Hashable
RttFunction = Callable[[PeerId, PeerId], float]


@dataclass
class VivaldiCoordinate:
    """A Euclidean coordinate with a height component."""

    vector: Tuple[float, ...]
    height: float = 0.0

    def distance_to(self, other: "VivaldiCoordinate") -> float:
        """Predicted RTT between two coordinates (Euclidean part + heights)."""
        euclidean = math.sqrt(
            sum((a - b) ** 2 for a, b in zip(self.vector, other.vector))
        )
        return euclidean + self.height + other.height

    def displaced(self, direction: Sequence[float], magnitude: float, height_delta: float) -> "VivaldiCoordinate":
        """Return a new coordinate moved by ``magnitude`` along ``direction``."""
        new_vector = tuple(a + magnitude * d for a, d in zip(self.vector, direction))
        new_height = max(0.0, self.height + height_delta)
        return VivaldiCoordinate(vector=new_vector, height=new_height)


@dataclass
class VivaldiNode:
    """Per-peer Vivaldi state."""

    peer_id: PeerId
    coordinate: VivaldiCoordinate
    error: float = 1.0
    samples_observed: int = 0


class VivaldiSystem:
    """A population of Vivaldi nodes updated from pairwise RTT observations.

    Parameters
    ----------
    rtt:
        Callable returning the measured RTT (any consistent distance unit)
        between two peers; in the reproduction this is backed by the router
        topology's latency- or hop-distances.
    dimensions:
        Dimensionality of the Euclidean part (the paper-recommended 2 or 3).
    ce, cc:
        The adaptive-timestep constants (error weight and movement weight).
    use_height:
        Whether to use the height-vector variant (recommended).
    """

    name = "vivaldi"

    def __init__(
        self,
        rtt: RttFunction,
        dimensions: int = 2,
        ce: float = 0.25,
        cc: float = 0.25,
        use_height: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        self.rtt = rtt
        self.dimensions = require_positive_int(dimensions, "dimensions")
        self.ce = require_probability(ce, "ce")
        self.cc = require_probability(cc, "cc")
        self.use_height = use_height
        self._rng = random.Random(coerce_seed(seed))
        self.nodes: Dict[PeerId, VivaldiNode] = {}

    # ------------------------------------------------------------------ nodes

    def add_peer(self, peer_id: PeerId) -> VivaldiNode:
        """Add a peer at the origin (with a tiny random offset to break symmetry)."""
        if peer_id in self.nodes:
            return self.nodes[peer_id]
        vector = tuple(self._rng.uniform(-0.01, 0.01) for _ in range(self.dimensions))
        node = VivaldiNode(
            peer_id=peer_id,
            coordinate=VivaldiCoordinate(vector=vector, height=0.0 if not self.use_height else 0.1),
        )
        self.nodes[peer_id] = node
        return node

    def remove_peer(self, peer_id: PeerId) -> None:
        """Forget a departed peer."""
        self.nodes.pop(peer_id, None)

    def peers(self) -> List[PeerId]:
        """All peers currently in the system."""
        return list(self.nodes)

    # ---------------------------------------------------------------- updates

    def observe(self, peer_id: PeerId, other_id: PeerId) -> None:
        """Apply one Vivaldi update at ``peer_id`` using a measurement to ``other_id``."""
        if peer_id == other_id:
            return
        node = self.nodes.get(peer_id)
        other = self.nodes.get(other_id)
        if node is None or other is None:
            raise ConfigurationError("both peers must be added before observing an RTT")

        measured = float(self.rtt(peer_id, other_id))
        predicted = node.coordinate.distance_to(other.coordinate)

        # Relative error of this sample.
        if measured <= 0:
            measured = 1e-6
        sample_error = abs(predicted - measured) / measured

        # Weight of this sample based on the two nodes' confidence.
        total_error = node.error + other.error
        weight = node.error / total_error if total_error > 0 else 0.5

        # Update the local error estimate (exponentially weighted).
        node.error = sample_error * self.ce * weight + node.error * (1.0 - self.ce * weight)
        node.error = min(max(node.error, 0.0), 2.0)

        # Move towards/away from the other coordinate.
        delta = self.cc * weight
        direction = self._unit_vector(node.coordinate, other.coordinate)
        displacement = delta * (measured - predicted)
        height_delta = 0.0
        if self.use_height:
            height_delta = delta * (measured - predicted) * 0.1
        node.coordinate = node.coordinate.displaced(direction, displacement, height_delta)
        node.samples_observed += 1

    def _unit_vector(
        self, origin: VivaldiCoordinate, target: VivaldiCoordinate
    ) -> Tuple[float, ...]:
        """Unit vector from ``target`` towards ``origin`` (push-away direction)."""
        difference = [a - b for a, b in zip(origin.vector, target.vector)]
        norm = math.sqrt(sum(d * d for d in difference))
        if norm < 1e-12:
            # Coincident points: pick a random direction.
            random_direction = [self._rng.gauss(0.0, 1.0) for _ in range(self.dimensions)]
            norm = math.sqrt(sum(d * d for d in random_direction)) or 1.0
            return tuple(d / norm for d in random_direction)
        return tuple(d / norm for d in difference)

    def run_round(self, samples_per_peer: int = 1) -> None:
        """One gossip round: every peer measures ``samples_per_peer`` random others."""
        require_positive_int(samples_per_peer, "samples_per_peer")
        peer_list = self.peers()
        if len(peer_list) < 2:
            return
        for peer_id in peer_list:
            for _ in range(samples_per_peer):
                other_id = peer_id
                while other_id == peer_id:
                    other_id = self._rng.choice(peer_list)
                self.observe(peer_id, other_id)

    def run(self, rounds: int, samples_per_peer: int = 1) -> None:
        """Run ``rounds`` gossip rounds."""
        require_positive_int(rounds, "rounds")
        for _ in range(rounds):
            self.run_round(samples_per_peer=samples_per_peer)

    # ---------------------------------------------------------------- queries

    def estimate_distance(self, peer_a: PeerId, peer_b: PeerId) -> float:
        """Predicted RTT between two peers from their coordinates."""
        if peer_a == peer_b:
            return 0.0
        node_a = self.nodes.get(peer_a)
        node_b = self.nodes.get(peer_b)
        if node_a is None or node_b is None:
            raise ConfigurationError("both peers must be in the system to estimate a distance")
        return node_a.coordinate.distance_to(node_b.coordinate)

    def select_neighbors(
        self,
        peer_id: PeerId,
        population: Optional[Sequence[PeerId]] = None,
        k: int = 5,
        exclude: Optional[Set[PeerId]] = None,
    ) -> List[PeerId]:
        """Rank peers by coordinate distance and return the closest ``k``."""
        require_positive_int(k, "k")
        excluded = {peer_id}
        if exclude:
            excluded |= set(exclude)
        candidates = population if population is not None else self.peers()
        ranked = sorted(
            (
                (self.estimate_distance(peer_id, candidate), repr(candidate), candidate)
                for candidate in candidates
                if candidate not in excluded and candidate in self.nodes
            ),
        )
        return [candidate for _, _, candidate in ranked[:k]]

    def mean_error(self) -> float:
        """Average per-node error estimate (a convergence indicator)."""
        if not self.nodes:
            return 0.0
        return sum(node.error for node in self.nodes.values()) / len(self.nodes)

    def total_samples(self) -> int:
        """Total number of RTT observations applied so far."""
        return sum(node.samples_observed for node in self.nodes.values())
