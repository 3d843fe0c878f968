"""Equivalence oracle: every sharded plane is byte-identical to one server.

The sharding refactor is only safe because of this oracle: for randomized
interleavings of arrivals (single and batch), departures and queries — over
1–8 shards, with and without inter-landmark distances, with and without the
neighbour cache — a :class:`ShardedManagementServer` must return *exactly*
what a single :class:`ManagementServer` returns for the same operation
sequence: same peers, same distances, same order, same errors.  Internal
state that determines future answers (registration order, cached lists) is
audited too.  The paths, planes, ops and the audit are the shared harness's
(``tests/oracle.py``); this module holds the cases.

The oracle is **backend-parametrized**: the same cases run once per
:class:`~repro.core.sharded.ShardBackend` implementation — ``inline``
(in-process shards), ``process`` (one forked child shard server per
shard), ``socket`` (connection-scoped shards, each on its own loopback server,
served by one thread per connection — both behind
:class:`~repro.core.socket_backend.SocketShardBackend`), ``chaos``
(process shards wrapped in a scripted-crash
:class:`~tests.chaos.ChaosShardBackend` with a
:class:`~repro.core.remote.RecoveryPolicy`, so every example self-heals
through SIGKILLed servers via respawn+replay) and ``socket-chaos`` (socket
shards on a network-shaped fault plan: crashes plus connection resets,
partial frames and stale-epoch reconnects, healed by
reconnect-with-replay) — via the ``backend`` fixture, so the wire
protocol, the typed codec, the bounded fill AND both transports'
recovery paths are held to the very same byte-identical bar as the
original sharding refactor.  The fault injection is test code
(``tests/chaos.py``): the package ships none, and the chaos backends wrap
the same ``process`` and ``socket`` shards the clean params run.

Run with ``HYPOTHESIS_PROFILE=ci-equivalence`` for the high-budget inline
CI sweep (``-m oracle``), ``HYPOTHESIS_PROFILE=ci-equivalence-process`` /
``ci-equivalence-socket`` for the reduced-budget transport sweeps, and
``HYPOTHESIS_PROFILE=ci-equivalence-chaos`` for the smallest-budget
fault-injected sweeps (the transport entries also carry a hard wall-clock
timeout); see ``tests/conftest.py``.
"""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ManagementServer, ShardedManagementServer
from repro.core.remote import BACKENDS
from repro.core.socket_backend import SocketShardSupervisor
from repro.exceptions import ShardUnavailableError

from ..chaos import ChaosShardBackend, Fault, FaultPlan
from ..oracle import (
    PLANE_BACKENDS,
    PROFILED,
    apply_op,
    audit,
    build_plane,
    cases,
    make_path,
    ops,
    outcome,
    random_op,
    reference_for,
)

MAX_PEERS = 24
MAX_LANDMARKS = 5


@pytest.fixture(scope="module", params=PLANE_BACKENDS)
def backend(request):
    """One sharded plane per ShardBackend implementation."""
    return request.param


#: Tier-1 example budgets of the backends that fork a server per shard
#: (hypothesis' default of 100 is more than their CI entries run).  A set
#: ``HYPOTHESIS_PROFILE`` overrides them: the matrix entries keep 60 and 25.
TIER1_EXAMPLES = {"process": 20, "chaos": 10}


class TestEquivalenceOracle:
    # Otherwise the example budget is not pinned: the default profile's
    # applies locally, and CI's dedicated matrix entries (tests/conftest.py)
    # select ci-equivalence (inline, high budget) or ci-equivalence-process
    # (process, reduced budget + hard timeout) instead.
    def test_sharded_plane_matches_single_server(self, backend):
        budget = {}
        if backend in TIER1_EXAMPLES and not os.environ.get("HYPOTHESIS_PROFILE"):
            budget["max_examples"] = TIER1_EXAMPLES[backend]

        # A landmark index one past the registered ones exercises the
        # unknown-landmark error — in batches too, so the coordinator's
        # validation must surface the same first-invalid-path-in-input-order
        # error as the single server.
        @settings(deadline=None, **budget)
        @given(
            case=cases(
                MAX_LANDMARKS,
                unknown_landmark=True,
                peers=MAX_PEERS,
                kinds=("arrive", "batch", "depart", "query"),
                max_ops=40,
            )
        )
        def check(case):
            single = build_plane(None, *case[1:-1])
            sharded = build_plane(*case[:-1], backend=backend)
            try:
                for op in case.ops:
                    assert apply_op(sharded, op) == apply_op(single, op), op
                audit(sharded, single)
            finally:
                sharded.close()

        check()


@PROFILED
class TestBoundedFill:
    """A fill asks each shard for the candidates still needed, and no more.

    Each shard answers the first ``need`` candidates of its own merge; the
    coordinator merges the cut lists and keeps ``need``.  That is the single
    server's fill only because the first ``need`` merged candidates are a
    prefix of each shard's list at most ``need`` long: for any population
    over 2–5 landmarks with distances, 1–4 inline shards and ``k`` up to
    above the population, every answer equals the single server's and no
    shard answers more than it was asked for.
    """

    @settings(deadline=None)
    @given(
        landmark_count=st.integers(2, MAX_LANDMARKS),
        shard_count=st.integers(1, 4),
        data=st.data(),
    )
    def test_a_bounded_fill_matches_the_single_server(self, landmark_count, shard_count, data):
        arrivals = data.draw(ops(MAX_PEERS, landmark_count, ("arrive",), max_ops=MAX_PEERS))
        k = data.draw(st.integers(1, len(arrivals) + 2))
        single = build_plane(None, landmark_count, True, False, k)
        sharded = build_plane(shard_count, landmark_count, True, False, k)
        replies = []

        def recording(fill):
            def fill_candidates(bases, limit):
                reply = fill(bases, limit)
                replies.append((limit, len(reply)))
                return reply

            return fill_candidates

        for shard in sharded.shards:
            shard.fill_candidates = recording(shard.fill_candidates)
        with sharded:
            for op in arrivals:
                assert apply_op(sharded, op) == apply_op(single, op), op
            for peer in single.peers():
                for wanted in (1, k, single.peer_count + 1):
                    assert sharded.closest_peers(peer, wanted) == single.closest_peers(peer, wanted)
        assert all(length <= limit for limit, length in replies), replies


class TestEquivalenceAcceptance:
    """The issue's acceptance sweep: a long fixed workload at 1/2/4/8 shards."""

    @pytest.mark.parametrize("shard_count", [1, 2, 4, 8])
    @pytest.mark.parametrize("with_distances", [True, False])
    def test_long_interleaved_workload(self, backend, shard_count, with_distances):
        single = build_plane(None, 4, with_distances)
        sharded = build_plane(shard_count, 4, with_distances, backend=backend)
        try:
            rng = random.Random(20_000 + shard_count)
            for step in range(400):
                op = random_op(
                    rng, (0.40, 0.55, 0.75), MAX_PEERS, 4, arrive=single.peer_count < 3
                )
                assert apply_op(sharded, op) == apply_op(single, op), (step, op)
            audit(sharded, single)
            if shard_count > 1 and len(sharded.landmarks()) > 1:
                used = {sharded.shard_of(landmark) for landmark in sharded.landmarks()}
                # The fixed landmark names spread over >1 shard at these counts,
                # so the sweep genuinely crosses shard boundaries.
                assert len(used) > 1
        finally:
            sharded.close()


#: Examples per backend of the estimate oracle: each remote one starts two
#: shard servers per example.
ESTIMATE_EXAMPLES = {"inline": 100, "socket": 40, "process": 20}


class TestDistanceEstimates:
    """``estimate_distance`` is read off the coordinator's own paths, on
    every backend: for every ordered pair of a 2-shard plane's peers (and
    one never registered) it is the single server's answer or error —
    ``UnknownPeerError``, and ``LandmarkError`` for a cross-landmark pair
    with no known distance.  ``lm0`` and ``lm1`` share a shard, ``lm2``
    has the other."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_estimate_distance_matches_single_server(self, backend_name):
        @settings(deadline=None, max_examples=ESTIMATE_EXAMPLES[backend_name])
        @given(with_distances=st.booleans(), writes=ops(MAX_PEERS, 3, max_ops=20))
        @example(
            with_distances=False,
            writes=[("batch", [(0, 0, (0, 0, 0, 0)), (1, 2, (0, 1, 1, 1)), (2, 0, (0, 1, 0, 0))])],
        )
        def check(with_distances, writes):
            single = build_plane(None, 3, with_distances)
            sharded = build_plane(2, 3, with_distances, backend=backend_name)
            try:
                for op in writes:
                    assert apply_op(sharded, op) == apply_op(single, op), op
                peers = single.peers() + ["never-registered"]
                for pair in itertools.product(peers, repeat=2):
                    expected = outcome(single.estimate_distance, *pair)
                    assert outcome(sharded.estimate_distance, *pair) == expected, pair
            finally:
                sharded.close()

        check()


class TestTypedFailure:
    @pytest.mark.parametrize("kind", ["error", "drop_reply"])
    def test_a_batch_that_fails_on_a_later_shard_leaves_no_phantom(self, kind):
        """Shard 1 fails the batch's second ``join_paths`` typed, after shard 0
        acknowledged its half: both shards drop their half again (with
        ``drop_reply`` shard 1 had applied it), so every shard holds exactly
        the peers the coordinator lists and a newcomer's list names no peer
        of the failed batch."""
        shards = [ManagementServer(neighbor_set_size=3, maintain_cache=False) for _ in range(2)]
        shards[1] = ChaosShardBackend(shards[1], FaultPlan([Fault(1, kind, "join_paths")]))
        plane = ShardedManagementServer(2, neighbor_set_size=3, shard_factory=iter(shards).__next__)
        for landmark in ("lm0", "lm2"):  # on shard 0 and on shard 1
            plane.register_landmark(landmark, landmark)
        plane.register_peer(make_path("x0", 0, (0, 0, 0, 0)))
        batch = [make_path("n0", 0, (0, 0, 0, 0)), make_path("n1", 2, (0, 0, 0, 0))]
        with pytest.raises(ShardUnavailableError):
            plane.register_peers(batch)
        reference = reference_for(plane)
        assert plane.peers() == ["x0"]
        assert [shard.peers() for shard in plane.shards] == [["x0"], []]
        newcomer = make_path("x1", 0, (0, 0, 0, 0))
        assert plane.register_peer(newcomer) == reference.register_peer(newcomer)
        audit(plane, reference)
        plane.register_peers(batch)  # the retry registers the batch once
        assert plane.peers() == ["x0", "x1", "n0", "n1"]
        audit(plane, reference_for(plane))


class TestChaosAcceptance:
    """The issue's chaos sweep: every traffic-bearing shard dies and recovers.

    A scripted :class:`FaultPlan` kills each shard's worker during a long
    churn workload (1/2/4/8 shards, on both remote transports — process
    workers and socket connections, the latter additionally through
    connection resets, partial frames and a stale-epoch reconnect); the
    plane must auto-recover via restart/reconnect+replay and stay
    byte-identical to the single server throughout — and the test proves
    the faults really happened (``plan.fired``, worker epoch advanced)
    rather than vacuously passing on an idle plan.
    """

    @pytest.mark.parametrize("transport", ["process", "socket"])
    @pytest.mark.parametrize("shard_count", [1, 2, 4, 8])
    def test_every_busy_shard_dies_and_recovers_byte_identical(
        self, shard_count, transport, monkeypatch
    ):
        refusals: Counter = Counter()
        establish = SocketShardSupervisor._establish_transport

        def counting(supervisor) -> None:
            try:
                establish(supervisor)
            except ShardUnavailableError as error:
                if "stale epoch" in str(error):
                    refusals[supervisor.name] += 1
                raise

        monkeypatch.setattr(SocketShardSupervisor, "_establish_transport", counting)
        backend = "socket-chaos" if transport == "socket" else "chaos"
        single = build_plane(None, 4)
        sharded = build_plane(shard_count, 4, backend=backend)
        try:
            rng = random.Random(31_000 + shard_count)
            for step in range(220):
                op = random_op(rng, (0.45, 0.60, 0.80), MAX_PEERS, 4)
                assert apply_op(sharded, op) == apply_op(single, op), (step, op)
            audit(sharded, single)
            # Every shard that owns a landmark took the landmark registration
            # as op 1 and plenty of churn after it, so its at_op=2 crash must
            # have fired and its worker must have been respawned at least
            # once (epoch counts spawns; 1 = never restarted).
            killed = 0
            for shard in sharded._shards:
                if shard.plan.ops_seen >= 2:
                    assert shard.plan.fired, f"{shard.name} saw traffic but never crashed"
                    assert shard.supervisor.epoch > 1, (
                        f"{shard.name} crashed but was never respawned"
                    )
                    killed += 1
            assert killed >= 1, "no shard ever received enough traffic to be killed"
            if shard_count >= 2:
                # With 4 landmarks over >=2 shards the consistent-hash ring
                # spreads ownership, so more than one worker died on duty.
                used = {sharded.shard_of(lm) for lm in sharded.landmarks()}
                assert killed >= min(len(used), 2)
            if transport == "socket" and shard_count == 1:
                # All 220+ ops hit the lone shard, so every scripted network
                # fault kind must actually have fired — the sweep is not
                # allowed to pass without exercising resets, truncated
                # frames and the stale-epoch reconnect.
                kinds = {kind for _count, kind, _op in sharded._shards[0].plan.fired}
                assert {"conn_reset", "partial_frame", "reconnect_stale_epoch"} <= kinds
            # Each stale-epoch fault is refused typed exactly once, however
            # the connection threads interleave their hellos: the refusal
            # is what makes the reconnect after it land on a newer epoch.
            # (A process restart respawns its child, so it never refuses.)
            stale = Counter(
                shard.name
                for shard in sharded._shards
                for _count, kind, _op in shard.plan.fired
                if kind == "reconnect_stale_epoch"
            )
            assert refusals == (stale if transport == "socket" else Counter())
        finally:
            sharded.close()
