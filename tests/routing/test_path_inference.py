"""Tests for traceroute cleaning."""

from __future__ import annotations

import pytest

from repro.exceptions import TracerouteError
from repro.routing.path_inference import (
    GAP_DROP,
    GAP_PLACEHOLDER,
    GAP_TRUNCATE,
    clean_traceroute,
)
from repro.routing.traceroute import TracerouteHop, TracerouteResult


def make_result(routers, reached=True, source="p", destination="lmk"):
    hops = [
        TracerouteHop(ttl=i + 1, router=router, rtt_ms=None if router is None else float(i + 1))
        for i, router in enumerate(routers)
    ]
    return TracerouteResult(source=source, destination=destination, hops=hops, reached=reached)


class TestCleaning:
    def test_perfect_trace_is_complete(self):
        cleaned = clean_traceroute(make_result(["r1", "r2", "lmk"]))
        assert cleaned.routers == ["r1", "r2", "lmk"]
        assert cleaned.anonymous_hops == 0
        assert not cleaned.truncated

    def test_drop_policy_removes_gaps(self):
        cleaned = clean_traceroute(make_result(["r1", None, "lmk"]), gap_policy=GAP_DROP)
        assert cleaned.routers == ["r1", "lmk"]
        assert cleaned.anonymous_hops == 1
        assert not cleaned.truncated

    def test_placeholder_policy_keeps_hop_count(self):
        cleaned = clean_traceroute(make_result(["r1", None, "lmk"]), gap_policy=GAP_PLACEHOLDER)
        assert len(cleaned.routers) == 3
        assert cleaned.routers[1].startswith("anon:")

    def test_placeholders_are_unique_per_source(self):
        cleaned_a = clean_traceroute(
            make_result(["r1", None, "lmk"], source="p1"), gap_policy=GAP_PLACEHOLDER
        )
        cleaned_b = clean_traceroute(
            make_result(["r1", None, "lmk"], source="p2"), gap_policy=GAP_PLACEHOLDER
        )
        assert cleaned_a.routers[1] != cleaned_b.routers[1]

    def test_truncate_policy_stops_at_first_gap(self):
        cleaned = clean_traceroute(make_result(["r1", None, "lmk"]), gap_policy=GAP_TRUNCATE)
        assert cleaned.routers == ["r1"]
        assert cleaned.truncated

    def test_unreached_trace_raises_by_default(self):
        with pytest.raises(TracerouteError):
            clean_traceroute(make_result(["r1", "r2"], reached=False))

    def test_unreached_trace_allowed_when_requested(self):
        cleaned = clean_traceroute(make_result(["r1", "r2"], reached=False), require_reached=False)
        assert cleaned.truncated

    def test_unknown_gap_policy_rejected(self):
        with pytest.raises(Exception):
            clean_traceroute(make_result(["r1", "lmk"]), gap_policy="interpolate")
