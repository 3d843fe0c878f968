"""The paper's neighbour-quality metric and its ratios.

For a peer ``p`` with neighbour set ``N``, the paper computes
``D = sum of hop distances between p and the members of N`` and reports the
ratios ``D / D_closest`` (proposed scheme vs brute-force optimum) and
``D_random / D_closest`` (random selection vs optimum) as the population
grows.  This module computes those quantities given any distance function,
which in the experiments is the true hop distance from the brute-force
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from ..exceptions import MetricError

PeerId = Hashable
DistanceFunction = Callable[[PeerId, PeerId], float]


def neighbor_cost(
    peer_id: PeerId, neighbors: Sequence[PeerId], distance: DistanceFunction
) -> float:
    """``D`` for one peer: sum of distances to its neighbours."""
    if not neighbors:
        raise MetricError(f"peer {peer_id!r} has no neighbours; D is undefined")
    return float(sum(distance(peer_id, neighbor) for neighbor in neighbors))


def population_cost(
    neighbor_sets: Mapping[PeerId, Sequence[PeerId]], distance: DistanceFunction
) -> float:
    """Sum of ``D`` over a whole population."""
    if not neighbor_sets:
        raise MetricError("cannot compute a population cost over zero peers")
    return sum(
        neighbor_cost(peer_id, neighbors, distance)
        for peer_id, neighbors in neighbor_sets.items()
    )


@dataclass
class ProximityComparison:
    """The paper's figure datapoint for one population size.

    Attributes mirror the figure's two curves plus the raw sums they are
    computed from.
    """

    peers: int
    neighbor_set_size: int
    cost_scheme: float
    cost_closest: float
    cost_random: float

    @property
    def scheme_ratio(self) -> float:
        """``D / D_closest`` — the proposed scheme's curve."""
        if self.cost_closest == 0:
            raise MetricError("D_closest is zero; ratio undefined")
        return self.cost_scheme / self.cost_closest

    @property
    def random_ratio(self) -> float:
        """``D_random / D_closest`` — the random baseline's curve."""
        if self.cost_closest == 0:
            raise MetricError("D_closest is zero; ratio undefined")
        return self.cost_random / self.cost_closest


def compare_strategies(
    scheme_sets: Mapping[PeerId, Sequence[PeerId]],
    closest_sets: Mapping[PeerId, Sequence[PeerId]],
    random_sets: Mapping[PeerId, Sequence[PeerId]],
    distance: DistanceFunction,
    neighbor_set_size: int,
) -> ProximityComparison:
    """Build a :class:`ProximityComparison` from three strategies' neighbour sets.

    All three mappings must cover the same peers (the comparison is
    per-population, not per-peer).
    """
    peers = set(scheme_sets)
    if set(closest_sets) != peers or set(random_sets) != peers:
        raise MetricError("the three strategies must cover the same peer population")
    return ProximityComparison(
        peers=len(peers),
        neighbor_set_size=neighbor_set_size,
        cost_scheme=population_cost(scheme_sets, distance),
        cost_closest=population_cost(closest_sets, distance),
        cost_random=population_cost(random_sets, distance),
    )

