"""Fault-plan semantics and the chaos backend's injection contract.

The byte-identity oracle (``test_sharded_equivalence.py``) proves the plane
*converges* through scripted crashes; this module proves the injection
machinery itself — fault scheduling (one-time vs persistent, op-name
filters, determinism), each fault kind's observable effect, and the
journaled-but-unacked divergence that makes ``drop_reply`` unsuitable for
the byte-identity oracle.
"""

from __future__ import annotations

import pytest

from repro.core import ManagementServer
from repro.core.chaos import (
    FAULT_KINDS,
    NETWORK_FAULT_KINDS,
    ChaosShardBackend,
    Fault,
    FaultPlan,
)
from repro.core.remote import RecoveryPolicy, shard_factory_for
from repro.exceptions import ShardUnavailableError

from ..oracle import simple_path


def chaos_backend(plan, recovery=True, **kwargs):
    policy = (
        RecoveryPolicy(max_restarts=2, backoff_base_s=0.0, sleep=lambda _delay: None)
        if recovery
        else None
    )
    inner = shard_factory_for("process", 3, recovery=policy, **kwargs)()
    return ChaosShardBackend(inner, plan)


class TestFault:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Fault(at_op=1, kind="meteor-strike")

    def test_rejects_non_positive_at_op(self):
        with pytest.raises(ValueError):
            Fault(at_op=0, kind="error")

    def test_all_kinds_construct(self):
        # Kinds with required options (validated at __post_init__) get them.
        required = {
            "delay": {"delay_s": 0.1},
            "partition": {"window_ops": 1},
            "reorder": {"op_name": "insert_paths"},
        }
        for kind in FAULT_KINDS:
            assert Fault(at_op=1, kind=kind, **required.get(kind, {})).kind == kind

    def test_delay_requires_positive_delay_s(self):
        with pytest.raises(ValueError):
            Fault(at_op=1, kind="delay")
        with pytest.raises(ValueError):
            Fault(at_op=1, kind="delay", delay_s=-0.5)

    def test_delay_s_rejected_on_other_kinds(self):
        with pytest.raises(ValueError):
            Fault(at_op=1, kind="drop", delay_s=0.1)

    def test_partition_requires_a_window(self):
        with pytest.raises(ValueError):
            Fault(at_op=1, kind="partition")
        with pytest.raises(ValueError):
            Fault(at_op=1, kind="partition", window_ops=0)

    def test_window_ops_rejected_on_other_kinds(self):
        with pytest.raises(ValueError):
            Fault(at_op=1, kind="drop", window_ops=2)

    def test_reorder_requires_op_name(self):
        with pytest.raises(ValueError):
            Fault(at_op=1, kind="reorder")

    def test_partition_window_end(self):
        assert Fault(at_op=3, kind="partition", window_ops=4).window_end == 7
        assert Fault(at_op=3, kind="error").window_end == 4


class TestFaultPlan:
    def test_one_time_fault_fires_once_at_its_op(self):
        plan = FaultPlan([Fault(at_op=3, kind="error")])
        assert plan.faults_for("op") == []
        assert plan.faults_for("op") == []
        assert [fault.kind for fault in plan.faults_for("op")] == ["error"]
        assert plan.faults_for("op") == []  # consumed
        assert plan.fired == [(3, "error", "op")]
        assert plan.pending == ()

    def test_fires_at_first_op_past_due_not_only_exact_match(self):
        # An op-name filter can make the exact at_op pass by; the fault
        # fires at the first *matching* op at or after it.
        plan = FaultPlan([Fault(at_op=2, kind="error", op_name="insert_paths")])
        assert plan.faults_for("local_closest") == []  # op 1
        assert plan.faults_for("local_closest") == []  # op 2: name mismatch
        due = plan.faults_for("insert_paths")  # op 3: fires
        assert [fault.kind for fault in due] == ["error"]
        assert plan.fired == [(3, "error", "insert_paths")]

    def test_persistent_fault_keeps_firing(self):
        plan = FaultPlan([Fault(at_op=2, kind="error", persistent=True)])
        assert plan.faults_for("op") == []
        for count in (2, 3, 4):
            assert [fault.kind for fault in plan.faults_for("op")] == ["error"]
        assert [entry[0] for entry in plan.fired] == [2, 3, 4]
        assert len(plan.pending) == 1

    def test_partition_fires_on_every_op_in_window_then_heals(self):
        plan = FaultPlan([Fault(at_op=2, kind="partition", window_ops=2)])
        assert plan.faults_for("op") == []  # op 1: before the window
        assert [fault.kind for fault in plan.faults_for("op")] == ["partition"]  # op 2
        assert [fault.kind for fault in plan.faults_for("op")] == ["partition"]  # op 3
        assert plan.faults_for("op") == []  # op 4: healed
        assert plan.pending == ()
        assert [entry[0] for entry in plan.fired] == [2, 3]

    def test_partition_window_is_positional_but_fires_only_on_matching_ops(self):
        # The window covers counted ops [2, 4) regardless of name; only the
        # matching op inside it actually fires.
        plan = FaultPlan(
            [Fault(at_op=2, kind="partition", window_ops=2, op_name="insert_paths")]
        )
        assert plan.faults_for("insert_paths") == []  # op 1
        assert plan.faults_for("local_closest") == []  # op 2: in window, wrong name
        assert [fault.kind for fault in plan.faults_for("insert_paths")] == ["partition"]
        assert plan.faults_for("insert_paths") == []  # op 4: window closed
        assert plan.fired == [(3, "partition", "insert_paths")]

    def test_persistent_partition_never_heals(self):
        plan = FaultPlan([Fault(at_op=2, kind="partition", window_ops=1, persistent=True)])
        assert plan.faults_for("op") == []
        for count in (2, 3, 4, 5):
            assert [fault.kind for fault in plan.faults_for("op")] == ["partition"]
        assert len(plan.pending) == 1

    def test_schedule_is_deterministic(self):
        def run():
            plan = FaultPlan(
                [Fault(at_op=2, kind="error"), Fault(at_op=4, kind="delay", delay_s=0.1)]
            )
            for _ in range(6):
                plan.faults_for("op")
            return plan.fired

        assert run() == run()


class TestChaosShardBackend:
    def test_crash_before_heals_and_never_loses_the_op(self):
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        reference.register_landmark("lmA", "lmA")
        with chaos_backend(FaultPlan([Fault(at_op=2, kind="crash_before")])) as shard:
            shard.register_landmark("lmA", "lmA")  # op 1
            path = simple_path("p0", "lmA")
            shard.insert_paths([path])  # op 2: worker killed, then self-heals
            reference.insert_paths([path])
            assert shard.plan.fired == [(2, "crash_before", "insert_paths")]
            assert shard.supervisor.epoch == 2
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)

    def test_crash_after_journals_the_op_before_the_worker_dies(self):
        with chaos_backend(FaultPlan([Fault(at_op=2, kind="crash_after")])) as shard:
            shard.register_landmark("lmA", "lmA")
            shard.insert_paths([simple_path("p0", "lmA")])  # acked, then killed
            assert [op for op, _ in shard.supervisor.journal] == [
                "register_landmark",
                "insert_paths",
            ]
            assert not shard.supervisor.process.is_alive()
            # The next call heals via restart+replay — including that op.
            assert [pair[0] for pair in shard.local_closest("p0", 3)] == []
            assert shard.supervisor.epoch == 2

    def test_drop_reply_diverges_journal_from_caller_view(self):
        """The worker applied and journaled the op while the caller saw a
        typed failure — exactly why drop_reply is excluded from the
        byte-identity oracle's plans."""
        with chaos_backend(
            FaultPlan([Fault(at_op=2, kind="drop_reply")]), recovery=False
        ) as shard:
            shard.register_landmark("lmA", "lmA")
            with pytest.raises(ShardUnavailableError) as error:
                shard.insert_paths([simple_path("p0", "lmA")])
            assert "dropped" in str(error.value)
            # Caller saw failure, yet the op landed and was journaled.
            assert [op for op, _ in shard.supervisor.journal] == [
                "register_landmark",
                "insert_paths",
            ]
            assert shard.local_closest("p0", 3) == []

    def test_delay_sleeps_through_the_injected_clock(self):
        naps = []
        plan = FaultPlan([Fault(at_op=1, kind="delay", delay_s=0.25)])
        inner = shard_factory_for("process", 3)()
        shard = ChaosShardBackend(inner, plan, sleep=naps.append)
        with shard:
            shard.register_landmark("lmA", "lmA")
            assert naps == [0.25]
            assert shard.plan.fired == [(1, "delay", "register_landmark")]

    def test_error_fault_raises_typed_without_touching_the_worker(self):
        with chaos_backend(
            FaultPlan([Fault(at_op=2, kind="error")]), recovery=False
        ) as shard:
            shard.register_landmark("lmA", "lmA")
            epoch = shard.supervisor.epoch
            with pytest.raises(ShardUnavailableError) as error:
                shard.insert_paths([simple_path("p0", "lmA")])
            assert shard.name in str(error.value)
            assert shard.supervisor.process.is_alive()
            assert shard.supervisor.epoch == epoch  # no restart happened
            # The op never reached the worker, so it must not be journaled.
            assert [op for op, _ in shard.supervisor.journal] == ["register_landmark"]

    def test_crash_fault_on_inline_backend_fails_typed(self):
        inline = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        shard = ChaosShardBackend(inline, FaultPlan([Fault(at_op=1, kind="crash_before")]))
        with pytest.raises(ShardUnavailableError) as error:
            shard.register_landmark("lmA", "lmA")
        assert "supervised shard backend" in str(error.value)

    @pytest.mark.parametrize("kind", NETWORK_FAULT_KINDS)
    def test_network_faults_fire_on_process_shards_and_heal(self, kind):
        """Process shards are socket-backed: the connection-shaped kinds
        apply to them, and recovery (respawn + replay + re-issue) heals."""
        reference = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        reference.register_landmark("lmA", "lmA")
        with chaos_backend(FaultPlan([Fault(at_op=2, kind=kind)])) as shard:
            shard.register_landmark("lmA", "lmA")
            path = simple_path("p0", "lmA")
            shard.insert_paths([path])  # op 2: connection cut first, then heals
            reference.insert_paths([path])
            assert shard.plan.fired == [(2, kind, "insert_paths")]
            assert shard.supervisor.epoch == 2
            assert shard.supervisor.process.is_alive()
            assert shard.local_closest("p0", 3) == reference.local_closest("p0", 3)
            assert [op for op, _ in shard.supervisor.journal] == [
                "register_landmark",
                "insert_paths",
            ]

    @pytest.mark.parametrize("kind", NETWORK_FAULT_KINDS)
    def test_network_fault_on_inline_backend_fails_typed(self, kind):
        inline = ManagementServer(neighbor_set_size=3, maintain_cache=False)
        shard = ChaosShardBackend(inline, FaultPlan([Fault(at_op=1, kind=kind)]))
        with pytest.raises(ShardUnavailableError) as error:
            shard.register_landmark("lmA", "lmA")
        assert "supervised shard backend" in str(error.value)

    def test_lifecycle_calls_are_never_faulted(self):
        plan = FaultPlan([Fault(at_op=1, kind="error", persistent=True)])
        with chaos_backend(plan, recovery=False) as shard:
            before = plan.ops_seen
            assert shard.health_check()
            shard.restart()
            assert plan.ops_seen == before  # lifecycle traffic is not counted

    def test_diagnostics_pass_through_to_the_inner_backend(self):
        with chaos_backend(FaultPlan()) as shard:
            assert shard.name == shard.inner.name == "shard-0"
            assert shard.supervisor.epoch == 1
            assert shard.supervisor is shard.inner.supervisor


def inline_chaos(plan):
    """Chaos wrapper around an in-process server (wire faults need no worker)."""
    server = ManagementServer(neighbor_set_size=3, maintain_cache=False)
    return server, ChaosShardBackend(server, plan)


class TestWireFaultsOnBackend:
    """The lossy-wire fault kinds applied to a shard backend's call stream.

    The same vocabulary scripts the event sim's ``NetworkFaultPlan``
    (tests/sim/test_network.py); these tests pin the backend half of the
    contract documented in ``repro.core.chaos``.
    """

    def test_drop_never_reaches_the_worker_and_a_bare_retry_succeeds(self):
        server, shard = inline_chaos(FaultPlan([Fault(at_op=2, kind="drop")]))
        shard.register_landmark("lmA", "lmA")
        with pytest.raises(ShardUnavailableError) as error:
            shard.insert_paths([simple_path("p0", "lmA")])
        assert "lost" in str(error.value)
        # Unlike drop_reply, the request never reached the plane — so the
        # caller's view and the plane agree, and a bare retry converges.
        assert server.peer_count == 0
        shard.insert_paths([simple_path("p0", "lmA")])
        assert server.has_peer("p0")

    def test_partition_fails_every_call_in_the_window_then_heals(self):
        server, shard = inline_chaos(
            FaultPlan([Fault(at_op=2, kind="partition", window_ops=2)])
        )
        shard.register_landmark("lmA", "lmA")  # op 1
        for _attempt in (2, 3):
            with pytest.raises(ShardUnavailableError):
                shard.insert_paths([simple_path("p0", "lmA")])
        shard.insert_paths([simple_path("p0", "lmA")])  # op 4: healed
        assert server.has_peer("p0")
        assert [entry[0] for entry in shard.plan.fired] == [2, 3]

    def test_duplicate_applies_the_op_twice_and_registration_dedups(self):
        server, shard = inline_chaos(FaultPlan([Fault(at_op=2, kind="duplicate")]))
        shard.register_landmark("lmA", "lmA")
        shard.insert_paths([simple_path("p0", "lmA")])
        # register_peer unregisters-then-reinserts, so the duplicated apply
        # leaves exactly one registration — at-least-once delivery is safe.
        assert server.has_peer("p0")
        assert server.peer_count == 1

    def test_reorder_defers_a_one_way_op_until_the_next_call(self):
        server, shard = inline_chaos(
            FaultPlan([Fault(at_op=2, kind="reorder", op_name="insert_paths")])
        )
        shard.register_landmark("lmA", "lmA")  # op 1
        shard.insert_paths([simple_path("p0", "lmA")])  # op 2: held, not applied
        assert server.peer_count == 0
        shard.insert_paths([simple_path("p1", "lmA")])  # op 3: applied, then flush
        assert server.has_peer("p1")
        assert server.has_peer("p0")  # the held insert arrived late, not lost

    def test_reorder_on_a_value_returning_op_raises_typed(self):
        _server, shard = inline_chaos(
            FaultPlan([Fault(at_op=1, kind="reorder", op_name="local_closest")])
        )
        with pytest.raises(ShardUnavailableError) as error:
            shard.local_closest("p0", 3)
        assert "one-way" in str(error.value)

    def test_close_flushes_reordered_ops(self):
        server, shard = inline_chaos(
            FaultPlan([Fault(at_op=2, kind="reorder", op_name="insert_paths")])
        )
        shard.register_landmark("lmA", "lmA")
        shard.insert_paths([simple_path("p0", "lmA")])  # held
        shard.close()  # reordered means late, not lost
        assert server.has_peer("p0")

    def test_persistent_drop_with_op_name_filter_targets_one_stream(self):
        server, shard = inline_chaos(
            FaultPlan([Fault(at_op=1, kind="drop", op_name="insert_paths", persistent=True)])
        )
        shard.register_landmark("lmA", "lmA")  # unfiltered op passes
        for _attempt in range(2):
            with pytest.raises(ShardUnavailableError):
                shard.insert_paths([simple_path("p0", "lmA")])
        assert server.peer_count == 0
        assert {entry[2] for entry in shard.plan.fired} == {"insert_paths"}
