"""Property tests for :class:`ConsistentHashRing` placement stability.

The sharded management plane promises that landmark placement is a pure
function of the landmark id — stable across processes, machines and Python
hash randomisation — because the process backend relies on every
coordinator (and every restarted worker's journal replay) agreeing on which
shard owns which landmark.  These tests pin that promise down:

* a **golden snapshot** of ``node_for`` placements guards the SHA-1-derived
  ring against accidental re-derivations (changing the point format, the
  digest slice or the replica count silently remaps every deployment);
* a subprocess run under a different ``PYTHONHASHSEED`` proves placement
  does not leak Python's per-process string hashing;
* a hypothesis sweep bounds the per-node key spread at the ring's 64
  replicas per node.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsistentHashRing

# Golden node_for placements at 64 replicas per node.  These values are part of the
# operational contract (a remap moves peers between shards on every running
# deployment), so a failure here means the ring algorithm changed — bump
# deliberately, never casually.
GOLDEN_KEYS = [f"lm{i}" for i in range(12)] + [
    "landmark-0",
    "landmark-41",
    "eu-west",
    "ap-south",
    7,
    ("a", 1),
]

GOLDEN_PLACEMENTS = {
    2: [0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0],
    3: [0, 0, 1, 2, 2, 0, 2, 2, 1, 0, 1, 2, 0, 0, 0, 2, 2, 2],
    5: [0, 0, 1, 3, 3, 4, 2, 3, 1, 0, 1, 2, 0, 3, 0, 2, 3, 2],
    8: [0, 0, 1, 7, 3, 5, 6, 3, 7, 5, 1, 6, 0, 5, 5, 6, 3, 6],
}


class TestGoldenSnapshot:
    def test_node_for_matches_golden_placements(self):
        for node_count, expected in GOLDEN_PLACEMENTS.items():
            ring = ConsistentHashRing(node_count)
            assert [ring.node_for(key) for key in GOLDEN_KEYS] == expected, node_count

    @pytest.mark.parametrize("node_count", [1, 2, 5])
    def test_every_node_projects_64_points(self, node_count):
        ring = ConsistentHashRing(node_count)
        assert Counter(ring._nodes) == {node: 64 for node in range(node_count)}
        assert ring._hashes == sorted(ring._hashes)

    def test_placement_is_stable_across_python_processes(self):
        """A fresh interpreter with a different hash seed places identically."""
        script = (
            "from repro.core import ConsistentHashRing\n"
            "ring = ConsistentHashRing(8)\n"
            "print([ring.node_for(f'lm{i}') for i in range(12)])\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (os.path.abspath("src"), env.get("PYTHONPATH")) if part
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == str(GOLDEN_PLACEMENTS[8][:12])


class TestSpreadBounds:
    @settings(deadline=None, max_examples=40)
    @given(
        node_count=st.integers(2, 8),
        prefix=st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=0,
            max_size=8,
        ),
    )
    def test_per_node_spread_is_bounded_at_default_replicas(self, node_count, prefix):
        """With 64 replicas per node, no node gets starved or swamped.

        Consistent hashing is only near-uniform, so the bound is loose —
        every node owns between 1/4 and 4x its fair share of a 1024-key
        population — but tight enough to catch a degenerate ring (one node
        owning everything, or a node owning nothing at all).
        """
        assert ConsistentHashRing.REPLICAS == 64
        ring = ConsistentHashRing(node_count)
        keys = [f"{prefix}:key-{index}" for index in range(1024)]
        counts = Counter(ring.node_for(key) for key in keys)
        fair_share = len(keys) / node_count
        assert set(counts) == set(range(node_count))
        assert min(counts.values()) >= fair_share / 4
        assert max(counts.values()) <= fair_share * 4

    @settings(deadline=None, max_examples=20)
    @given(node_count=st.integers(1, 7))
    def test_growth_relocates_a_bounded_fraction(self, node_count):
        """n -> n+1 growth moves well under half the keys (vs ~n/(n+1) for modulo)."""
        before = ConsistentHashRing(node_count)
        after = ConsistentHashRing(node_count + 1)
        keys = [f"grow-key-{index}" for index in range(600)]
        moved = sum(1 for key in keys if before.node_for(key) != after.node_for(key))
        assert moved <= len(keys) // 2
