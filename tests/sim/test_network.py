"""Tests for latency-aware message delivery."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import Engine
from repro.sim.network import SimulatedNetwork, message_op_name

from ..chaos import FAULT_KINDS, WIRE_FAULT_KINDS, Fault, wire_plan


class Ping:
    """Fault-plan op name ``"ping"`` (lowercased class name)."""


class Pong:
    """Fault-plan op name ``"pong"``."""


class Recorder:
    """Message handler that records deliveries with their arrival times."""

    def __init__(self, engine):
        self.engine = engine
        self.received = []

    def handle_message(self, sender, message):
        self.received.append((self.engine.now, sender, message))


@pytest.fixture()
def wired(line_graph):
    engine = Engine()
    network = SimulatedNetwork(engine, line_graph, processing_delay_ms=0.0, seed=1)
    nodes = {}
    for host, router in (("alice", 0), ("bob", 5), ("carol", 0)):
        handler = Recorder(engine)
        network.attach_host(host, router, handler)
        nodes[host] = handler
    return engine, network, nodes


class TestAttachment:
    def test_attach_and_router_lookup(self, wired):
        _, network, _ = wired
        assert network.is_attached("alice")
        assert network.router_of("bob") == 5

    def test_attach_to_unknown_router_rejected(self, wired, line_graph):
        _, network, _ = wired
        with pytest.raises(SimulationError):
            network.attach_host("dave", 99, Recorder(None))

    def test_detach(self, wired):
        _, network, _ = wired
        network.detach_host("carol")
        assert not network.is_attached("carol")
        with pytest.raises(SimulationError):
            network.router_of("carol")


class TestDelivery:
    def test_message_arrives_after_path_latency(self, wired):
        engine, network, nodes = wired
        network.send("alice", "bob", "hello")
        engine.run()
        assert len(nodes["bob"].received) == 1
        arrival, sender, message = nodes["bob"].received[0]
        assert sender == "alice"
        assert message == "hello"
        assert arrival == pytest.approx(5.0)  # 5 unit-latency hops

    def test_same_router_hosts_have_small_delay(self, wired):
        engine, network, nodes = wired
        network.send("alice", "carol", "hi")
        engine.run()
        arrival, _, _ = nodes["carol"].received[0]
        assert arrival < 1.0

    def test_processing_delay_added(self, line_graph):
        engine = Engine()
        network = SimulatedNetwork(engine, line_graph, processing_delay_ms=2.0, seed=1)
        receiver = Recorder(engine)
        network.attach_host("a", 0, Recorder(engine))
        network.attach_host("b", 1, receiver)
        network.send("a", "b", "x")
        engine.run()
        assert receiver.received[0][0] == pytest.approx(3.0)

    def test_unknown_sender_or_recipient_rejected(self, wired):
        _, network, _ = wired
        with pytest.raises(SimulationError):
            network.send("ghost", "bob", "x")
        with pytest.raises(SimulationError):
            network.send("alice", "ghost", "x")

    def test_delivery_records_kept(self, wired):
        engine, network, _ = wired
        record = network.send("alice", "bob", "x")
        assert record.delivered_at is None
        engine.run()
        assert record.delivered_at == pytest.approx(5.0)
        assert network.sent_messages == 1

    def test_message_to_detached_host_is_dropped(self, wired):
        engine, network, nodes = wired
        network.send("alice", "bob", "x")
        network.detach_host("bob")
        engine.run()
        assert nodes["bob"].received == []
        assert network.dropped_messages == 1


class TestLoss:
    def test_total_loss_drops_everything(self, line_graph):
        engine = Engine()
        network = SimulatedNetwork(engine, line_graph, loss_probability=1.0, seed=2)
        receiver = Recorder(engine)
        network.attach_host("a", 0, Recorder(engine))
        network.attach_host("b", 1, receiver)
        record = network.send("a", "b", "x")
        engine.run()
        assert record.dropped
        assert receiver.received == []
        assert network.dropped_messages == 1

    def test_partial_loss_is_deterministic_per_seed(self, line_graph):
        def run_once():
            engine = Engine()
            network = SimulatedNetwork(engine, line_graph, loss_probability=0.5, seed=7)
            receiver = Recorder(engine)
            network.attach_host("a", 0, Recorder(engine))
            network.attach_host("b", 1, receiver)
            outcomes = []
            for i in range(10):
                record = network.send("a", "b", i)
                outcomes.append(record.dropped)
            engine.run()
            return outcomes

        assert run_once() == run_once()

    def test_jitter_never_reorders_before_minimum_latency(self, line_graph):
        engine = Engine()
        network = SimulatedNetwork(engine, line_graph, jitter_ms=3.0, processing_delay_ms=0.0, seed=3)
        receiver = Recorder(engine)
        network.attach_host("a", 0, Recorder(engine))
        network.attach_host("b", 5, receiver)
        network.send("a", "b", "x")
        engine.run()
        assert receiver.received[0][0] >= 5.0


def _pair(line_graph, sender_router=0, receiver_router=1, **kwargs):
    """An engine, a network built with ``kwargs``, and an a->b receiver."""
    engine = Engine()
    kwargs.setdefault("processing_delay_ms", 0.0)
    kwargs.setdefault("seed", 1)
    network = SimulatedNetwork(engine, line_graph, **kwargs)
    receiver = Recorder(engine)
    network.attach_host("a", sender_router, Recorder(engine))
    network.attach_host("b", receiver_router, receiver)
    return engine, network, receiver


class TestDuplication:
    def test_duplicate_delivers_two_copies(self, line_graph):
        engine, network, receiver = _pair(line_graph, duplicate_probability=1.0, seed=4)
        network.send("a", "b", "x")
        engine.run()
        assert [message for _, _, message in receiver.received] == ["x", "x"]
        assert network.sent_messages == 1  # one send, two deliveries
        assert network.duplicated_messages == 1
        assert [record.duplicate for record in network.deliveries] == [False, True]

    def test_duplication_is_deterministic_per_seed(self, line_graph):
        def run_once():
            engine, network, receiver = _pair(line_graph, duplicate_probability=0.5, seed=9)
            for i in range(10):
                network.send("a", "b", i)
            engine.run()
            return network.duplicated_messages, [m for _, _, m in receiver.received]

        first = run_once()
        assert first == run_once()
        assert 0 < first[0] < 10  # partial duplication actually happened


def in_flight(network) -> int:
    """Recorded messages neither delivered nor dropped: once the engine has
    drained, the ones a reorder still holds."""
    return sum(1 for record in network.deliveries if record.delivered_at is None and not record.dropped)


class TestReorder:
    def test_reordered_message_waits_for_a_younger_delivery(self, line_graph):
        plan = wire_plan(Fault(at_op=1, kind="reorder", op_name="ping"))
        engine, network, receiver = _pair(line_graph, receiver_router=5, fault_plan=plan)
        network.send("a", "b", Ping())
        network.send("a", "b", Pong())
        engine.run()
        kinds = [type(message).__name__ for _, _, message in receiver.received]
        assert kinds == ["Pong", "Ping"]  # the ping arrived late
        times = [arrival for arrival, _, _ in receiver.received]
        assert times[1] >= times[0]
        assert network.reordered_messages == 1
        assert in_flight(network) == 0
        assert network.accounting_consistent()

    def test_held_message_with_no_younger_delivery_stays_in_flight(self, line_graph):
        engine, network, receiver = _pair(line_graph, reorder_probability=1.0)
        network.send("a", "b", "only")
        engine.run()
        assert receiver.received == []
        assert in_flight(network) == 1
        assert network.dropped_messages == 0
        assert network.accounting_consistent()

    def test_reorder_knob_is_deterministic_per_seed(self, line_graph):
        def run_once():
            engine, network, receiver = _pair(line_graph, reorder_probability=0.5, seed=13)
            for i in range(10):
                network.send("a", "b", i)
            engine.run()
            return network.reordered_messages, [m for _, _, m in receiver.received]

        first = run_once()
        assert first == run_once()
        assert first[0] > 0


class TestTeardown:
    """Epoch-stamped attachments: in-flight traffic dies with the epoch."""

    def test_detach_drops_reorder_held_messages(self, line_graph):
        plan = wire_plan(Fault(at_op=1, kind="reorder", op_name="ping"))
        engine, network, receiver = _pair(line_graph, fault_plan=plan)
        network.send("a", "b", Ping())
        network.detach_host("b")
        engine.run()
        assert receiver.received == []
        assert in_flight(network) == 0
        assert network.dropped_messages == 1
        assert network.accounting_consistent()

    def test_in_flight_message_never_reaches_a_reattached_successor(self, wired):
        engine, network, nodes = wired
        network.send("alice", "bob", "for-old-bob")
        network.detach_host("bob")
        successor = Recorder(engine)
        network.attach_host("bob", 5, successor)
        engine.run()
        # The message was addressed to the old epoch; the successor under
        # the same host id must never see it.
        assert successor.received == []
        assert nodes["bob"].received == []
        assert network.dropped_messages == 1
        network.send("alice", "bob", "for-new-bob")
        engine.run()
        assert [message for _, _, message in successor.received] == ["for-new-bob"]
        assert network.accounting_consistent()

    def test_accounting_consistent_under_loss_and_detach(self, line_graph):
        engine, network, _receiver = _pair(line_graph, receiver_router=3, loss_probability=0.4, seed=11)
        for i in range(8):
            network.send("a", "b", i)
        network.detach_host("b")  # everything not lost at send is now doomed
        engine.run()
        assert all(record.delivered_at is None for record in network.deliveries)
        assert network.dropped_messages == len(network.deliveries) == 8
        assert network.accounting_consistent()


class TestNetworkFaultPlan:
    """The shared chaos vocabulary applied to the wire."""

    def test_backend_only_kinds_rejected_at_construction(self):
        with pytest.raises(SimulationError):
            wire_plan(Fault(at_op=1, kind="crash_before"))

    @pytest.mark.parametrize("kind", [k for k in FAULT_KINDS if k not in WIRE_FAULT_KINDS])
    def test_every_kind_without_a_wire_meaning_is_rejected(self, kind):
        with pytest.raises(SimulationError) as error:
            wire_plan(Fault(at_op=1, kind="drop"), Fault(at_op=2, kind=kind))
        assert repr(kind) in str(error.value)

    def test_any_object_with_faults_for_is_a_plan(self, line_graph):
        """The network asks a plan once per send, by the message's op name."""

        class Asked:
            def __init__(self):
                self.names = []

            def faults_for(self, op_name):
                self.names.append(op_name)
                return []

        plan = Asked()
        engine, network, receiver = _pair(line_graph, fault_plan=plan)
        for message in (Ping(), "text", Pong()):
            network.send("a", "b", message)
        engine.run()
        assert plan.names == ["ping", "str", "pong"]
        assert len(receiver.received) == 3

    def test_drop_fault_drops_the_counted_message(self, line_graph):
        plan = wire_plan(Fault(at_op=2, kind="drop"))
        engine, network, receiver = _pair(line_graph, fault_plan=plan)
        for i in range(3):
            network.send("a", "b", i)
        engine.run()
        assert [message for _, _, message in receiver.received] == [0, 2]
        assert network.dropped_messages == 1
        assert plan.fired == [(2, "drop", "int")]  # op name: lowercased class

    def test_delay_fault_adds_simulated_milliseconds(self, line_graph):
        plan = wire_plan(Fault(at_op=1, kind="delay", delay_s=0.004))
        engine, network, receiver = _pair(line_graph, receiver_router=5, fault_plan=plan)
        network.send("a", "b", "slow")
        engine.run()
        # 5 unit-latency hops + delay_s * 1000 simulated ms.
        assert receiver.received[0][0] == pytest.approx(9.0)

    def test_duplicate_fault_delivers_twice(self, line_graph):
        plan = wire_plan(Fault(at_op=1, kind="duplicate"))
        engine, network, receiver = _pair(line_graph, fault_plan=plan)
        network.send("a", "b", "x")
        engine.run()
        assert [message for _, _, message in receiver.received] == ["x", "x"]
        assert network.duplicated_messages == 1

    def test_partition_drops_every_message_in_its_window(self, line_graph):
        plan = wire_plan(Fault(at_op=2, kind="partition", window_ops=3))
        engine, network, receiver = _pair(line_graph, fault_plan=plan)
        for i in range(5):
            network.send("a", "b", i)
        engine.run()
        assert [message for _, _, message in receiver.received] == [0, 4]
        assert network.dropped_messages == 3

    def test_op_name_filter_targets_one_message_stream(self, line_graph):
        plan = wire_plan(
            Fault(at_op=1, kind="drop", op_name="ping", persistent=True)
        )
        engine, network, receiver = _pair(line_graph, fault_plan=plan)
        for message in (Ping(), Pong(), Ping(), Pong()):
            network.send("a", "b", message)
        engine.run()
        kinds = [type(message).__name__ for _, _, message in receiver.received]
        assert kinds == ["Pong", "Pong"]
        assert network.dropped_messages == 2
        assert {entry[2] for entry in plan.fired} == {"ping"}

    def test_message_op_name_prefers_an_explicit_attribute(self):
        class Custom:
            op_name = "weird"

        assert message_op_name(Custom()) == "weird"
        assert message_op_name(Ping()) == "ping"
        assert message_op_name(3) == "int"
