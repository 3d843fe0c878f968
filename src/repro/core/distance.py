"""Comparing inferred tree distances against true network distances.

The paper's correctness argument is statistical: because most shortest paths
traverse the high-centrality core, the route inferred through the landmark
tree (``dtree``) is usually equal — or very close — to the true shortest-path
distance ``d``.  This module scores an estimator against the true distances
(:meth:`~repro.baselines.brute_force.BruteForceOracle.peer_distance` supplies
them) and provides the accuracy report behind the C3 study
(:func:`repro.experiments.ablations.tree_accuracy_study`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .._validation import coerce_seed, require_positive_int
from ..exceptions import MetricError
from .path import PeerId


@dataclass
class PairAccuracy:
    """Accuracy record for one peer pair."""

    peer_a: PeerId
    peer_b: PeerId
    true_distance: float
    estimated_distance: float

    @property
    def absolute_error(self) -> float:
        """``|estimate - true|``."""
        return abs(self.estimated_distance - self.true_distance)

    @property
    def stretch(self) -> float:
        """``estimate / true`` (1.0 means exact; > 1 means over-estimate)."""
        if self.true_distance == 0:
            return 1.0 if self.estimated_distance == 0 else float("inf")
        return self.estimated_distance / self.true_distance


@dataclass
class AccuracyReport:
    """Aggregate accuracy of an estimator over a set of peer pairs."""

    pairs: int
    exact_fraction: float
    mean_absolute_error: float
    median_absolute_error: float
    mean_stretch: float
    p90_stretch: float
    max_absolute_error: float

    @classmethod
    def from_records(cls, records: Sequence[PairAccuracy]) -> "AccuracyReport":
        """Build the aggregate report from per-pair records."""
        if not records:
            raise MetricError("cannot build an accuracy report from zero pairs")
        errors = sorted(record.absolute_error for record in records)
        stretches = sorted(record.stretch for record in records)
        count = len(records)
        exact = sum(1 for record in records if record.absolute_error == 0)
        return cls(
            pairs=count,
            exact_fraction=exact / count,
            mean_absolute_error=sum(errors) / count,
            median_absolute_error=errors[count // 2],
            mean_stretch=sum(stretches) / count,
            p90_stretch=stretches[min(count - 1, int(count * 0.9))],
            max_absolute_error=errors[-1],
        )


def evaluate_estimator(
    estimator: Any,
    true_distances: Dict[Tuple[PeerId, PeerId], float],
) -> AccuracyReport:
    """Compare an estimator against a dict of true pairwise distances.

    ``estimator`` is anything with ``estimate_distance(peer_a, peer_b)``: a
    management plane (the tree distance) or the brute-force oracle.
    """
    records = [
        PairAccuracy(
            peer_a=peer_a,
            peer_b=peer_b,
            true_distance=true,
            estimated_distance=float(estimator.estimate_distance(peer_a, peer_b)),
        )
        for (peer_a, peer_b), true in true_distances.items()
    ]
    return AccuracyReport.from_records(records)


def sample_peer_pairs(
    peers: Sequence[PeerId],
    samples: int,
    seed: Optional[int] = None,
) -> List[Tuple[PeerId, PeerId]]:
    """Sample ``samples`` distinct unordered peer pairs (without replacement if possible)."""
    require_positive_int(samples, "samples")
    if len(peers) < 2:
        raise MetricError("need at least two peers to sample pairs")
    rng = random.Random(coerce_seed(seed))
    pool = list(peers)
    count = len(pool)
    seen = set()
    pairs: List[Tuple[PeerId, PeerId]] = []
    max_pairs = count * (count - 1) // 2
    target = min(samples, max_pairs)
    attempts = 0
    # Rejection sampling over index pairs: the pool is materialised once, and
    # drawing two distinct indices (rather than two members) keeps the retry
    # loop from spinning when the input contains long duplicate-id streaks.
    while len(pairs) < target and attempts < 50 * target + 100:
        attempts += 1
        first = rng.randrange(count)
        second = rng.randrange(count - 1)
        if second >= first:
            second += 1
        peer_a, peer_b = pool[first], pool[second]
        if peer_a == peer_b:  # duplicate ids at distinct indices
            continue
        key = (peer_a, peer_b) if repr(peer_a) <= repr(peer_b) else (peer_b, peer_a)
        if key in seen:
            continue
        seen.add(key)
        pairs.append(key)
    return pairs
