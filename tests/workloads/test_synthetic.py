"""Tests for the synthetic three-level access hierarchy."""

from __future__ import annotations

import re

import pytest

import repro.workloads
from repro.core.path_tree import PathTree
from repro.workloads import synthetic_paths

ACCESS = re.compile(r"access-(\d+)-(\d+)-(\d+)")


class TestDraws:
    @pytest.mark.parametrize(
        "seed, access_routers",
        [
            (3, ["access-3-18-34", "access-2-11-58", "access-9-15-40"]),
            (11, ["access-7-27-35", "access-7-14-32", "access-9-6-11"]),
        ],
    )
    def test_the_first_draws_are_pinned(self, seed, access_routers):
        """The protocol experiment's tables depend on these exact draws."""
        assert [path.routers[0] for path in synthetic_paths(3, seed=seed)] == access_routers

    def test_the_same_seed_draws_the_same_paths(self):
        assert synthetic_paths(50, seed=5) == synthetic_paths(50, seed=5)

    def test_another_seed_draws_other_paths(self):
        assert synthetic_paths(50, seed=5) != synthetic_paths(50, seed=6)

    def test_a_shorter_run_is_a_prefix_of_a_longer_one(self):
        assert synthetic_paths(20, seed=4) == synthetic_paths(80, seed=4)[:20]

    def test_names_do_not_move_the_draws(self):
        plain = synthetic_paths(30, seed=8)
        renamed = synthetic_paths(30, seed=8, landmark="lmB", prefix="x")
        assert [path.routers[:4] for path in renamed] == [path.routers[:4] for path in plain]

    def test_zero_paths(self):
        assert synthetic_paths(0) == []


class TestShape:
    @pytest.mark.parametrize("landmark", ["lmk", "lmA"])
    def test_every_path_climbs_access_pop_region_core_landmark(self, landmark):
        for path in synthetic_paths(200, seed=2, landmark=landmark):
            assert path.landmark_id == landmark
            region, pop, access = map(int, ACCESS.fullmatch(path.routers[0]).groups())
            assert region < 12 and pop < 30 and access < 60
            assert path.routers[1:] == (f"pop-{region}-{pop}", f"region-{region}", "core", landmark)

    @pytest.mark.parametrize("prefix", ["peer", "newcomer-"])
    def test_peer_ids_are_the_prefix_and_the_index(self, prefix):
        paths = synthetic_paths(25, prefix=prefix)
        assert [path.peer_id for path in paths] == [f"{prefix}{index}" for index in range(25)]

    def test_the_hierarchy_fans_out_to_every_region(self):
        paths = synthetic_paths(3000, seed=1)
        assert {path.routers[2] for path in paths} == {f"region-{r}" for r in range(12)}
        assert len({path.routers[1] for path in paths}) > 300

    def test_a_trie_holds_one_node_per_distinct_router(self):
        paths = synthetic_paths(500, seed=7)
        tree = PathTree(landmark_id="lmk", landmark_router="lmk")
        tree.load(paths)
        assert tree.peer_count == 500
        assert tree.router_count == len({router for path in paths for router in path.routers})

    def test_exported_from_the_workloads_package(self):
        assert "synthetic_paths" in repro.workloads.__all__
        assert repro.workloads.synthetic.synthetic_paths is synthetic_paths
