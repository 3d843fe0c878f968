"""Wire vocabulary: message validation, size model, fault-plan op names."""

from __future__ import annotations

import pytest

from repro.core.path import RouterPath
from repro.protocol import Beacon, BeaconAck, wire_size
from repro.sim.network import message_op_name


def path_for(peer="p0", routers=("lmA-a1", "lmA-core", "lmA")):
    return RouterPath.from_routers(peer, "lmA", list(routers))


class TestBeacon:
    def test_negative_sequence_rejected(self):
        with pytest.raises(ValueError):
            Beacon(peer_id="p0", seq=-1, path=path_for())

    def test_messages_are_frozen(self):
        beacon = Beacon(peer_id="p0", seq=0, path=path_for())
        with pytest.raises(Exception):
            beacon.seq = 1


class TestWireSize:
    def test_beacon_size_scales_with_hop_count(self):
        short = Beacon(peer_id="p0", seq=0, path=path_for())
        long = Beacon(
            peer_id="p0", seq=0, path=path_for(routers=("a", "b", "c", "d", "lmA"))
        )
        per_hop = (wire_size(long) - wire_size(short)) / (
            long.path.hop_count - short.path.hop_count
        )
        assert per_hop == 8  # one router id per hop
        assert wire_size(short) == 28 + 24 + 8 * short.path.hop_count

    def test_ack_size_is_fixed(self):
        assert wire_size(BeaconAck(peer_id="p0", seq=3)) == 28 + 12
        # "You are the first peer" is a different answer, and costs the same.
        assert wire_size(BeaconAck(peer_id="p0", seq=3, neighbors=())) == 28 + 12

    def test_list_carrying_ack_grows_linearly_per_entry(self):
        sizes = [
            wire_size(
                BeaconAck(
                    peer_id="p0", seq=0, neighbors=tuple((f"p{n}", 2.0) for n in range(1, k + 1))
                )
            )
            for k in range(4)
        ]
        assert sizes == [28 + 12 + 8 * k for k in range(4)]

    def test_non_protocol_messages_rejected(self):
        with pytest.raises(TypeError):
            wire_size("not a message")


class TestOpNames:
    def test_fault_plan_op_names_read_naturally(self):
        # NetworkFaultPlan op_name filters target these exact strings.
        assert message_op_name(Beacon(peer_id="p0", seq=0, path=path_for())) == "beacon"
        assert message_op_name(BeaconAck(peer_id="p0", seq=0)) == "beaconack"
