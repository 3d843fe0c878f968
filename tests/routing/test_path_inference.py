"""Tests for traceroute cleaning."""

from __future__ import annotations

import pytest

from repro.exceptions import TracerouteError
from repro.routing.path_inference import clean_traceroute
from repro.routing.traceroute import TracerouteHop, TracerouteResult


def make_result(routers, reached=True, source="p", destination="lmk"):
    hops = [
        TracerouteHop(ttl=i + 1, router=router, rtt_ms=None if router is None else float(i + 1))
        for i, router in enumerate(routers)
    ]
    return TracerouteResult(source=source, destination=destination, hops=hops, reached=reached)


class TestCleaning:
    def test_perfect_trace_is_complete(self):
        assert clean_traceroute(make_result(["r1", "r2", "lmk"])) == ["r1", "r2", "lmk"]

    @pytest.mark.parametrize(
        "raw, cleaned",
        [
            (["r1", None, "lmk"], ["r1", "lmk"]),
            ([None, "r2", None, None, "lmk"], ["r2", "lmk"]),
            ([None, None, "lmk"], ["lmk"]),
            (["r1", "r2", None, "lmk"], ["r1", "r2", "lmk"]),
        ],
    )
    def test_anonymous_hops_are_dropped(self, raw, cleaned):
        assert clean_traceroute(make_result(raw)) == cleaned

    def test_a_trace_to_its_own_router_is_empty(self):
        assert clean_traceroute(make_result([], source="lmk")) == []

    @pytest.mark.parametrize("raw", [["r1", "r2"], ["r1", None, None]])
    def test_unreached_trace_raises(self, raw):
        with pytest.raises(TracerouteError, match="'p' did not reach 'lmk'"):
            clean_traceroute(make_result(raw, reached=False))
