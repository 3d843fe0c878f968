"""Measurement harness: reference kernel, rounds, normalisation, summaries.

The noise model
---------------
On the shared 2-core boxes this benchmark runs on, machine speed itself
drifts by up to 2x over tens of seconds (CPU time tracks wall time, so it is
not preemption), and a raw wall clock cannot repeat within a tenth.  Every
round is therefore bracketed by a fixed pure-Python *reference kernel*
(:class:`RefKernel`): a round's timings are multiplied by
``REF_NOMINAL_MS / ref_ms`` where ``ref_ms`` is the mean of the kernel
timings just before and just after the round, so a metric reads as "time on
a machine on which the kernel takes ``REF_NOMINAL_MS``".  A round whose
reference is more than :data:`DISTURBED_FACTOR` times the run's fastest is
*disturbed* (speed changed under it) and is left out while enough others
remain; each metric is the median over the kept rounds of the per-round
statistic.  Raw wall time stays visible as ``harness.raw_wall_s``.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: What the reference kernel takes on the machine the metrics are quoted for.
REF_NOMINAL_MS = 50.0

#: A round whose reference exceeds the run's fastest by this factor is disturbed.
DISTURBED_FACTOR = 1.25

#: Never summarise fewer rounds than this (the least disturbed fill the gap).
MIN_KEPT_ROUNDS = 8

#: A tail percentile is quoted only with this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10

_now = time.perf_counter_ns


class RefKernel:
    """Fixed dict / tuple / sort work over a population-sized heap.

    It mirrors what the planes' inner loops do — string-keyed dict lookups,
    tuple construction and comparison, list growth, a sort — over enough
    live objects that it slows down with the workloads when the machine's
    caches or clock do.
    """

    def __init__(self, size: int) -> None:
        rng = random.Random(0xC0FFEE)
        self._keys = [f"peer{index}" for index in range(size)]
        self._table = {
            key: (rng.randrange(64), key, index) for index, key in enumerate(self._keys)
        }
        self._order = [rng.randrange(size) for _ in range(size * 10)]

    def run(self) -> float:
        """One pass; returns its wall time in milliseconds."""
        table, keys = self._table, self._keys
        started = _now()
        picked = []
        total = 0
        for index in self._order:
            weight, key, slot = table[keys[index]]
            total += weight
            if weight < 16:
                picked.append((weight, key, slot + total))
        picked.sort()
        buckets: Dict[int, List[int]] = {}
        for weight, _, slot in picked:
            buckets.setdefault(weight, []).append(slot)
        return (_now() - started) / 1e6


@dataclass
class RoundSample:
    """What one closed-loop round of a workload measured (raw, unnormalised)."""

    ops: int
    wall_ns: int
    latencies_ns: Dict[str, List[int]]
    """Per op class, one latency per op (unsorted)."""
    headline: str
    """The op class a client of this workload waits on (``op_p50_us`` / ``op_p99_us``)."""
    failed: int = 0
    setup_s: Optional[float] = None
    """Wall time of set-up work the round itself had to do (fresh scenario)."""


@dataclass
class RoundResult:
    """One round, normalised to the reference machine."""

    sample: RoundSample
    ref_ms: float
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def factor(self) -> float:
        return REF_NOMINAL_MS / self.ref_ms


def percentile(ordered: Sequence[int], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return float(ordered[min(len(ordered) - 1, int(fraction * len(ordered)))])


def tail_fraction(samples: int) -> float:
    """0.99, or the highest percentile that still has ten samples beyond it."""
    return max(0.5, min(0.99, 1.0 - TAIL_SAMPLES_BEYOND / samples))


def summarise_round(sample: RoundSample, ref_ms: float) -> RoundResult:
    """Per-round statistics, scaled by the round's reference factor."""
    result = RoundResult(sample=sample, ref_ms=ref_ms)
    factor = result.factor
    stats = result.stats
    stats["ops_per_s"] = sample.ops / (sample.wall_ns / 1e9) / factor
    for name, values in sample.latencies_ns.items():
        if not values:
            continue
        ordered = sorted(values)
        stats[f"{name}_p50_us"] = percentile(ordered, 0.50) / 1e3 * factor
        stats[f"{name}_p99_us"] = percentile(ordered, tail_fraction(len(ordered))) / 1e3 * factor
        stats[f"{name}_samples"] = float(len(ordered))
    for suffix in ("p50_us", "p99_us", "samples"):
        stats[f"op_{suffix}"] = stats[f"{sample.headline}_{suffix}"]
    if sample.setup_s is not None:
        stats["setup_s"] = sample.setup_s * factor
    return result


@dataclass
class Measurement:
    """All rounds of one measured phase, with the kept / disturbed split."""

    rounds: List[RoundResult]
    kept: List[RoundResult]
    wall_s: float

    @property
    def disturbed(self) -> int:
        return len(self.rounds) - len(self.kept)

    @property
    def ops(self) -> int:
        return sum(r.sample.ops for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.sample.failed for r in self.rounds)

    def median(self, stat: str) -> Optional[float]:
        """Median over kept rounds of a per-round statistic (None if absent)."""
        values = [r.stats[stat] for r in self.kept if stat in r.stats]
        return statistics.median(values) if values else None

    def ref_ms(self) -> float:
        return statistics.median(r.ref_ms for r in self.kept)

    def ns_per_op(self) -> float:
        """Normalised wall nanoseconds per op over the kept rounds."""
        wall = sum(r.sample.wall_ns * r.factor for r in self.kept)
        return wall / max(1, sum(r.sample.ops for r in self.kept))


def _undisturbed(rounds: Sequence[RoundResult]) -> List[RoundResult]:
    fastest = min(r.ref_ms for r in rounds)
    return [r for r in rounds if r.ref_ms <= DISTURBED_FACTOR * fastest]


def keep_undisturbed(rounds: Sequence[RoundResult]) -> List[RoundResult]:
    """Rounds within :data:`DISTURBED_FACTOR` of the fastest reference.

    When fewer than :data:`MIN_KEPT_ROUNDS` qualify, the least disturbed of
    the rest fill the gap: a median over too few rounds is worse than one
    over slightly slow ones.
    """
    quiet = _undisturbed(rounds)
    wanted = min(MIN_KEPT_ROUNDS, len(rounds))
    if len(quiet) >= wanted:
        return quiet
    return sorted(rounds, key=lambda r: r.ref_ms)[:wanted]


def _phase_over(
    results: Sequence[RoundResult], elapsed: float, seconds: Optional[float], rounds: Optional[int]
) -> bool:
    if rounds is not None:
        return len(results) >= rounds
    if elapsed < seconds or not results:
        return False
    return len(_undisturbed(results)) >= MIN_KEPT_ROUNDS or elapsed >= 1.5 * seconds


def measure(
    run_round: Callable[[int], RoundSample],
    ref: RefKernel,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
    first_index: int = 0,
) -> Measurement:
    """Run reference-bracketed rounds for ``seconds`` (or exactly ``rounds``).

    Timed by ``seconds``, the phase still runs until :data:`MIN_KEPT_ROUNDS`
    undisturbed rounds exist, spending at most half as long again on it.
    The cyclic collector is paused for the whole phase and run by hand
    between rounds and reference passes, so a collection does not land on
    whichever op (or reference pass) it interrupts.  Callers ``gc.freeze()``
    the population first, which keeps those hand-run collections cheap.
    """
    results: List[RoundResult] = []
    started = time.perf_counter()
    gc.disable()
    try:
        gc.collect()
        before = ref.run()
        while not _phase_over(results, time.perf_counter() - started, seconds, rounds):
            gc.collect()
            sample = run_round(first_index + len(results))
            gc.collect()
            after = ref.run()
            results.append(summarise_round(sample, (before + after) / 2.0))
            before = after
    finally:
        gc.enable()
    return Measurement(
        rounds=results, kept=keep_undisturbed(results), wall_s=time.perf_counter() - started
    )


def timed_setups(
    build: Callable[[], None],
    teardown: Callable[[], None],
    ref: RefKernel,
    repeats: int,
) -> List[float]:
    """Normalised wall seconds of ``repeats`` set-ups; the last one is kept built."""
    samples = []
    before = ref.run()
    for attempt in range(repeats):
        if attempt:
            teardown()
        gc.collect()
        started = time.perf_counter()
        build()
        elapsed = time.perf_counter() - started
        after = ref.run()
        samples.append(elapsed * REF_NOMINAL_MS / ((before + after) / 2.0))
        before = after
    return samples


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
