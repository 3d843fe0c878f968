"""Tests for the shared validation helpers and the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import exceptions
from repro._validation import (
    coerce_seed,
    require_non_negative_float,
    require_positive_float,
    require_positive_int,
    require_probability,
)
from repro.exceptions import ConfigurationError, ReproError


class TestIntegerValidation:
    def test_positive_int_accepts(self):
        assert require_positive_int(3, "x") == 3

    @pytest.mark.parametrize("value", [0, -1, 1.5, "3", True])
    def test_positive_int_rejects(self, value):
        with pytest.raises(ConfigurationError):
            require_positive_int(value, "x")


class TestFloatValidation:
    def test_positive_float(self):
        assert require_positive_float(2, "x") == 2.0
        with pytest.raises(ConfigurationError):
            require_positive_float(0.0, "x")
        with pytest.raises(ConfigurationError):
            require_positive_float("nope", "x")

    def test_non_negative_float(self):
        assert require_non_negative_float(0.0, "x") == 0.0
        with pytest.raises(ConfigurationError):
            require_non_negative_float(-0.1, "x")

    def test_probability(self):
        assert require_probability(0.5, "x") == 0.5
        assert require_probability(0, "x") == 0.0
        assert require_probability(1, "x") == 1.0
        with pytest.raises(ConfigurationError):
            require_probability(1.01, "x")


class TestOtherValidation:
    def test_coerce_seed(self):
        assert coerce_seed(None) is None
        assert coerce_seed(5) == 5
        with pytest.raises(ConfigurationError):
            coerce_seed(-3)
        with pytest.raises(ConfigurationError):
            coerce_seed(True)


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exception_class",
        [
            exceptions.TopologyError,
            exceptions.RoutingError,
            exceptions.SimulationError,
            exceptions.ProtocolError,
            exceptions.LandmarkError,
            exceptions.ConfigurationError,
            exceptions.MetricError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception_class):
        assert issubclass(exception_class, ReproError)

    def test_node_not_found_carries_node_id(self):
        error = exceptions.NodeNotFoundError("r17")
        assert error.node_id == "r17"
        assert "r17" in str(error)

    def test_no_route_error_carries_endpoints(self):
        error = exceptions.NoRouteError("a", "b")
        assert error.source == "a"
        assert error.destination == "b"

    def test_unknown_peer_error(self):
        error = exceptions.UnknownPeerError("peer9")
        assert error.peer_id == "peer9"
        assert isinstance(error, exceptions.ProtocolError)
