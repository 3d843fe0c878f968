"""What the runner needs from a workload."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..harness import RoundSample


@dataclass
class Check:
    """One output check: what was compared, over how many ops, and the verdict."""

    name: str
    ops: int
    passed: bool
    detail: str = ""


@dataclass
class Finish:
    """What a workload reports once its rounds are over."""

    checks: List[Check] = field(default_factory=list)
    values: Dict[str, float] = field(default_factory=dict)
    """Workload-specific metric values (counts, simulated times, qualities)."""
    timings_ms: Dict[str, List[float]] = field(default_factory=dict)
    """Raw wall-clock samples taken during the checks (the runner normalises them)."""
    digest: str = ""
    """Digest of the first answers, comparable across planes fed the same stream."""


class Workload:
    """One closed loop, one client.

    ``setup`` builds the population the loop runs against (the runner times
    it), ``round`` runs one round of the loop, ``finish`` runs the untimed
    output checks, ``teardown`` releases everything ``setup`` acquired.
    """

    name = ""

    def __init__(self, seed: int, params: Dict[str, float]) -> None:
        self.seed = seed
        self.params = params

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> RoundSample:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative public counters of the program (read between phases)."""
        return {}

    def finish(self) -> Finish:
        raise NotImplementedError


def answers_digest(answers: List[Tuple[str, object]]) -> str:
    """Order-sensitive digest of ``(op, answer)`` pairs."""
    digest = hashlib.sha256()
    for item in answers:
        digest.update(repr(item).encode("utf-8"))
    return digest.hexdigest()


def well_formed(answer: object, k: int, asker: object) -> bool:
    """A neighbour list: at most ``k`` distinct ``(peer, distance >= 0)`` pairs, never the asker."""
    if not isinstance(answer, list) or len(answer) > k:
        return False
    seen = {asker}
    for pair in answer:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        peer, distance = pair
        if peer in seen or not isinstance(distance, float) or distance < 0.0:
            return False
        seen.add(peer)
    return True
