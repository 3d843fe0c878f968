"""Tests for RouterPath and the pairwise tree-distance helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import decode_path, encode_path
from repro.core.path import RouterPath, shared_suffix_length, tree_distance
from repro.exceptions import RegistrationError

from ..oracle import path


class TestConstruction:
    def test_basic_fields(self):
        route = RouterPath.from_routers("p1", "lmk", ["r1", "r2", "lmk"], rtt_ms=12.5)
        assert route.access_router == "r1"
        assert route.landmark_router == "lmk"
        assert route.hop_count == 3
        assert route.rtt_ms == 12.5
        assert list(route.routers) == ["r1", "r2", "lmk"]

    def test_empty_path_rejected(self):
        with pytest.raises(RegistrationError):
            path("p1", [], "lmk")

    def test_duplicate_routers_rejected(self):
        with pytest.raises(RegistrationError):
            path("p1", ["r1", "r2", "r1"])

    def test_immutability(self):
        route = path("p1", ["r1", "lmk"])
        with pytest.raises(Exception):
            route.routers = ("x",)  # type: ignore[misc]

    def test_a_path_built_from_a_list_is_its_tuple_twin(self):
        """The constructor stores any router sequence as a tuple: a kept list
        made the path unhashable and unequal to the same route as a tuple."""
        listed = RouterPath("p", "lmk", ["a", "b", "lmk"])  # type: ignore[arg-type]
        twin = RouterPath.from_routers("p", "lmk", ("a", "b", "lmk"))
        assert type(listed.routers) is tuple and listed.routers == ("a", "b", "lmk")
        assert listed == twin and hash(listed) == hash(twin)
        assert decode_path(encode_path(listed)) == listed

    def test_a_path_is_slotted(self):
        """No per-instance dict and no memo beside the fields."""
        route = path("p1", ["r1", "r2", "lmk"])
        assert not hasattr(route, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(route, "_from_landmark_cache", ())


class TestViews:
    def test_orderings(self):
        route = path("p1", ["r1", "r2", "r3"])
        assert route.routers == ("r1", "r2", "r3")  # stored peer → landmark
        assert (route.access_router, route.landmark_router) == ("r1", "r3")


class TestSharedSuffix:
    def test_partial_overlap(self):
        path_a = path("p1", ["a1", "a2", "core", "lmk"])
        path_b = path("p2", ["b1", "core", "lmk"])
        assert shared_suffix_length(path_a, path_b) == 2

    def test_identical_routes(self):
        path_a = path("p1", ["r1", "r2", "lmk"])
        path_b = path("p2", ["r1", "r2", "lmk"])
        assert shared_suffix_length(path_a, path_b) == 3

    def test_disjoint_routes(self):
        path_a = path("p1", ["a", "b"])
        path_b = path("p2", ["c", "d"])
        assert shared_suffix_length(path_a, path_b) == 0


class TestTreeDistance:
    def test_same_peer_distance_zero(self):
        route = path("p1", ["r1", "lmk"])
        assert tree_distance(route, route) == 0

    def test_same_access_router(self):
        path_a = path("p1", ["r1", "r2", "lmk"])
        path_b = path("p2", ["r1", "r2", "lmk"])
        assert tree_distance(path_a, path_b) == 2

    def test_branch_at_core(self):
        path_a = path("p1", ["a1", "a2", "core", "lmk"])
        path_b = path("p2", ["b1", "core", "lmk"])
        # p1 -> a1 -> a2 -> core = 3 hops, core -> b1 -> p2 = 2 hops.
        assert tree_distance(path_a, path_b) == 5

    def test_disjoint_paths_return_none(self):
        path_a = path("p1", ["a", "b"], landmark="lm1")
        path_b = path("p2", ["c", "d"], landmark="lm2")
        assert tree_distance(path_a, path_b) is None

    def test_symmetry(self):
        path_a = path("p1", ["a1", "core", "lmk"])
        path_b = path("p2", ["b1", "b2", "core", "lmk"])
        assert tree_distance(path_a, path_b) == tree_distance(path_b, path_a)


router_names = st.lists(
    st.integers(min_value=0, max_value=30).map(lambda i: f"r{i}"),
    min_size=1,
    max_size=8,
    unique=True,
)


@settings(max_examples=50, deadline=None)
@given(suffix=router_names, branch_a=router_names, branch_b=router_names)
def test_property_tree_distance_formula(suffix, branch_a, branch_b):
    """dtree equals the hop counts to the branch router plus one host hop per side."""
    # Build two paths sharing exactly `suffix` at the landmark end, with
    # disjoint peer-side branches.
    branch_a = [f"a-{router}" for router in branch_a if router not in suffix]
    branch_b = [f"b-{router}" for router in branch_b if router not in suffix]
    path_a = RouterPath.from_routers("p1", "lmk", branch_a + suffix)
    path_b = RouterPath.from_routers("p2", "lmk", branch_b + suffix)
    expected = (len(branch_a) + 1) + (len(branch_b) + 1)
    assert tree_distance(path_a, path_b) == expected
    assert shared_suffix_length(path_a, path_b) == len(suffix)


@settings(max_examples=50, deadline=None)
@given(routers=router_names)
def test_property_tree_distance_of_identical_routes_is_two(routers):
    """Two distinct peers behind the same access router are always 2 hops apart."""
    path_a = RouterPath.from_routers("p1", "lmk", routers)
    path_b = RouterPath.from_routers("p2", "lmk", routers)
    assert tree_distance(path_a, path_b) == 2
