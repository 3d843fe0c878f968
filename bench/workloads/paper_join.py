"""``paper-join``: the paper's own claim through the real client stack.

Figure 1 conditions: a ~4,000-router map, peers on degree-1 routers, ten
landmarks on medium-degree routers, ``k = 5``.  Every round builds a fresh
scenario (its own map, landmarks and peer attachment) and joins each peer
with ``Scenario.join_one``: probe every landmark, traceroute to the
closest, report the path, receive the neighbour list.  After the rounds one
more scenario is joined untimed and its neighbour lists are priced against
the brute-force oracle at three population sizes.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List

from repro import RouterMapConfig, Scenario, ScenarioConfig, build_scenario, generate_router_map

from ..harness import RoundSample
from .base import Check, Finish, Workload

_now = time.perf_counter_ns

#: The band the paper's Figure 1 puts ``D / D_closest`` in.
SCHEME_RATIO_BAND = (1.0, 1.4)


class PaperJoin(Workload):
    name = "paper-join"

    def __init__(self, seed: int, params: Dict[str, float]) -> None:
        super().__init__(seed, params)
        self.k = int(params["k"])
        self.scenario: Scenario

    # ------------------------------------------------------------ lifecycle

    def _build(self, label: str) -> Scenario:
        """A fresh scenario whose every random choice derives from (seed, label)."""
        rng = random.Random(f"{self.seed}:{label}")
        map_config = RouterMapConfig(
            seed=rng.getrandbits(32), **(self.params["router_map"] or {})
        )
        return build_scenario(
            ScenarioConfig(
                peer_count=int(self.params["peers"]),
                landmark_count=int(self.params["landmarks"]),
                neighbor_set_size=self.k,
                seed=rng.getrandbits(32),
            ),
            router_map=generate_router_map(map_config),
        )

    def setup(self) -> None:
        self.scenario = self._build("setup")

    def teardown(self) -> None:
        self.scenario.close()

    # ---------------------------------------------------------------- rounds

    def round(self, index: int) -> RoundSample:
        started = time.perf_counter()
        scenario = self._build(f"round-{index}")
        setup_s = time.perf_counter() - started
        join_one = scenario.join_one
        latencies: List[int] = []
        results = []
        failed = 0
        loop_started = _now()
        for peer in scenario.peer_ids:
            try:
                started_ns = _now()
                result = join_one(peer)
                latencies.append(_now() - started_ns)
            except Exception:  # noqa: BLE001 - a raising join is a counted failure
                failed += 1
                continue
            results.append(result)
        wall = _now() - loop_started
        failed += self._malformed(results)
        scenario.close()
        return RoundSample(
            ops=len(latencies) + failed,
            wall_ns=wall,
            latencies_ns={"join": latencies},
            headline="join",
            failed=failed,
            setup_s=setup_s,
        )

    def _malformed(self, results) -> int:
        """Joins whose list is over-long, repeats a peer or names a later joiner."""
        bad = 0
        joined = set()
        for result in results:
            ids = result.neighbor_ids()
            if (
                len(ids) > self.k
                or len(set(ids)) != len(ids)
                or any(peer not in joined for peer in ids)
                or len(ids) < min(self.k, len(joined))
            ):
                bad += 1
            joined.add(result.peer_id)
        return bad

    # ---------------------------------------------------------------- finish

    def finish(self) -> Finish:
        """Quality against the oracle at three sizes of one untimed scenario."""
        finish = Finish()
        scenario = self._build("quality")
        rng = random.Random(f"{self.seed}:quality-sample")
        peers = scenario.peer_ids
        oracle = scenario.oracle
        scheme_ratios, random_ratios, delays = [], [], []
        oracle_s = 0.0
        joined: List[str] = []
        for size in self.params["quality_sizes"]:
            for peer in peers[len(joined) : int(size)]:
                delays.append(scenario.join_one(peer).transcript.setup_delay)
                joined.append(peer)
            sample = rng.sample(joined, min(int(self.params["quality_samples"]), len(joined)))
            cost_scheme = cost_closest = cost_random = 0.0
            for peer in sample:
                scheme = [other for other, _ in scenario.server.closest_peers(peer, self.k)]
                started = time.perf_counter()
                closest = oracle.select_neighbors(peer, population=joined, k=self.k)
                oracle_s += time.perf_counter() - started
                others = rng.sample(joined, self.k + 1)
                chance = [other for other in others if other != peer][: self.k]
                cost_scheme += oracle.neighbor_cost(peer, scheme)
                cost_closest += oracle.neighbor_cost(peer, closest)
                cost_random += oracle.neighbor_cost(peer, chance)
            scheme_ratios.append(cost_scheme / cost_closest)
            random_ratios.append(cost_random / cost_closest)
        scenario.close()
        scheme_ratio = statistics.mean(scheme_ratios)
        random_ratio = statistics.mean(random_ratios)
        finish.values.update(
            {
                "quality.scheme_ratio": scheme_ratio,
                "quality.random_ratio": random_ratio,
                "sim.join_delay_p50_ms": statistics.median(delays),
            }
        )
        finish.timings_ms["quality.oracle"] = [oracle_s * 1e3]
        low, high = SCHEME_RATIO_BAND
        finish.checks.append(
            Check(
                f"D/D_closest in [{low}, {high}] and below random",
                len(joined),
                low <= scheme_ratio <= high and scheme_ratio < random_ratio,
                f"scheme {scheme_ratio:.4f}, random {random_ratio:.4f}",
            )
        )
        return finish
