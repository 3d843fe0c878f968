"""Equivalence oracle: every sharded plane is byte-identical to one server.

The sharding refactor is only safe because of this harness: for randomized
interleavings of arrivals (single and batch), departures and queries — over
1–8 shards, with and without inter-landmark distances, with and without the
neighbour cache — a :class:`ShardedManagementServer` must return *exactly*
what a single :class:`ManagementServer` returns for the same operation
sequence: same peers, same distances, same order, same errors.  Internal
state that determines future answers (registration order, cached lists) is
audited too.

The harness is **backend-parametrized**: the same state machine runs once
per :class:`~repro.core.sharded.ShardBackend` implementation — ``inline``
(in-process shards), ``process`` (one forked child shard server per
shard), ``socket`` (connection-scoped shards, each on its own loopback server,
served by one thread per connection — both behind
:class:`~repro.core.socket_backend.SocketShardBackend`), ``chaos``
(process shards wrapped in a scripted-crash
:class:`~repro.core.chaos.ChaosShardBackend` with a
:class:`~repro.core.remote.RecoveryPolicy`, so every example self-heals
through SIGKILLed servers via respawn+replay) and ``socket-chaos`` (socket
shards on a network-shaped fault plan: crashes plus connection resets,
partial frames and stale-epoch reconnects, healed by
reconnect-with-replay) — via the ``backend_factory`` fixture, so the wire
protocol, the typed codec, the bounded fill AND both transports'
recovery paths are held to the very same byte-identical bar as the
original sharding refactor.

Run with ``HYPOTHESIS_PROFILE=ci-equivalence`` for the high-budget inline
CI sweep, ``HYPOTHESIS_PROFILE=ci-equivalence-process`` /
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
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ManagementServer, ShardedManagementServer
from repro.core.chaos import ChaosShardBackend, Fault, FaultPlan
from repro.core.path import RouterPath
from repro.core.remote import BACKENDS, RecoveryPolicy, shard_factory_for
from repro.core.socket_backend import SocketShardSupervisor
from repro.exceptions import ShardUnavailableError

MAX_PEERS = 24
MAX_LANDMARKS = 5

# The scripted fault plan every chaos shard runs: an early crash (hits any
# shard that owns a landmark and then sees traffic — the landmark
# registration itself is op 1), a mid-workload crash-after (the op is
# acknowledged and journaled, then the worker dies: the crash-between-ops
# case), and a late crash deep in the churn so long examples re-kill a shard
# that has already recovered once.  Crash faults only: ``drop_reply``
# deliberately diverges the journal from the caller's view, so it is covered
# by dedicated tests in ``test_chaos.py`` instead of the byte-identity
# oracle.
CHAOS_FAULTS = (
    Fault(at_op=2, kind="crash_before"),
    Fault(at_op=15, kind="crash_after"),
    Fault(at_op=60, kind="crash_before"),
)

# The socket transport's plan adds the network-shaped kinds on top of an
# early crash: a connection reset mid-churn, a truncated frame, and a
# reconnect that first lands on a stale server epoch (one typed rejection,
# then success — needs max_restarts >= 2).  All four converge
# byte-identically under recovery, so they are safe for the byte-identity
# oracle; ``drop_reply`` stays out for the same reason as above.
SOCKET_CHAOS_FAULTS = (
    Fault(at_op=2, kind="crash_before"),
    Fault(at_op=15, kind="conn_reset"),
    Fault(at_op=40, kind="partial_frame"),
    Fault(at_op=60, kind="reconnect_stale_epoch"),
)


def chaos_shard_factory(k: int, transport: str = "process"):
    """A ``shard_factory``: remote shards on a scripted fault plan.

    ``transport`` picks the shard flavour (process workers on the crash
    plan, socket connections on the network-shaped plan).  Recovery is
    fully deterministic — zero backoff, no sleeping, a per-shard seeded
    RNG — so a failing example shrinks and replays identically.
    """
    indexes = itertools.count()
    faults = SOCKET_CHAOS_FAULTS if transport == "socket" else CHAOS_FAULTS

    def factory() -> ChaosShardBackend:
        index = next(indexes)
        recovery = RecoveryPolicy(
            max_restarts=3,
            backoff_base_s=0.0,
            rng=random.Random(index),
            sleep=lambda _delay: None,
        )
        inner = shard_factory_for(transport, k, recovery=recovery, compact_watermark=8)()
        return ChaosShardBackend(inner, FaultPlan(faults))

    return factory


def make_backend_factory(backend: str):
    """A ``backend_factory``: builds one sharded plane for ``backend``.

    The returned callable is stateless (each call spawns fresh shards —
    fresh worker processes / connections for the remote and chaos
    backends), so it is safe to share across hypothesis examples.
    """

    def factory(shard_count, k, maintain_cache, distances) -> ShardedManagementServer:
        if backend in ("chaos", "socket-chaos"):
            # degraded_reads off: the oracle demands byte-identity, so a
            # failure that recovery cannot heal must fail loud, never be
            # papered over by a best-effort degraded answer.
            transport = "socket" if backend == "socket-chaos" else "process"
            return ShardedManagementServer(
                shard_count,
                neighbor_set_size=k,
                maintain_cache=maintain_cache,
                landmark_distances=distances,
                shard_factory=chaos_shard_factory(k, transport=transport),
                degraded_reads=False,
            )
        return ShardedManagementServer(
            shard_count,
            neighbor_set_size=k,
            maintain_cache=maintain_cache,
            landmark_distances=distances,
            shard_factory=shard_factory_for(backend, k),
        )

    return factory


@pytest.fixture(scope="module", params=(*BACKENDS, "chaos", "socket-chaos"))
def backend_factory(request):
    """One sharded-plane factory per ShardBackend implementation."""
    return make_backend_factory(request.param)


def landmark_name(index: int) -> str:
    return f"lm{index}"


def make_path(peer_id: str, landmark_index: int, shape: Tuple[int, int, int]) -> RouterPath:
    """A synthetic 5-router path under one landmark's disjoint hierarchy."""
    landmark = landmark_name(landmark_index)
    region, pop, access = shape
    routers = [
        f"{landmark}-acc-{region}-{pop}-{access}",
        f"{landmark}-pop-{region}-{pop}",
        f"{landmark}-reg-{region}",
        f"{landmark}-core",
        landmark,
    ]
    return RouterPath.from_routers(peer_id, landmark, routers)


def landmark_distances(landmark_count: int):
    return {
        (landmark_name(i), landmark_name(j)): float(1 + abs(i - j))
        for i in range(landmark_count)
        for j in range(landmark_count)
        if i < j
    }


def build_planes(
    backend_factory,
    landmark_count: int,
    shard_count: int,
    with_distances: bool,
    maintain_cache: bool,
    k: int,
) -> Tuple[ManagementServer, ShardedManagementServer]:
    distances = landmark_distances(landmark_count) if with_distances else None
    single = ManagementServer(
        neighbor_set_size=k, maintain_cache=maintain_cache, landmark_distances=distances
    )
    sharded = backend_factory(shard_count, k, maintain_cache, distances)
    for index in range(landmark_count):
        # The landmark's attachment router must equal the landmark-side end
        # of make_path's synthetic paths ("lm<i>"), or every arrival fails
        # root validation and the oracle only ever compares error strings.
        single.register_landmark(landmark_name(index), landmark_name(index))
        sharded.register_landmark(landmark_name(index), landmark_name(index))
    return single, sharded


def apply_op(server, op):
    """Apply one op; normalise the outcome so both planes can be compared."""
    try:
        kind = op[0]
        if kind == "arrive":
            _, peer_index, lm_index, shape = op
            return ("ok", server.register_peer(make_path(f"p{peer_index}", lm_index, shape)))
        if kind == "batch":
            _, specs = op
            paths = [
                make_path(f"p{peer_index}", lm_index, shape)
                for peer_index, lm_index, shape in specs
            ]
            return ("ok", server.register_peers(paths))
        if kind == "depart":
            _, peer_index = op
            return ("ok", server.unregister_peer(f"p{peer_index}"))
        if kind == "query":
            _, peer_index, k = op
            return ("ok", server.closest_peers(f"p{peer_index}", k))
        raise AssertionError(f"unknown op {op!r}")
    except Exception as error:  # noqa: BLE001 - errors are part of the contract
        return ("error", type(error).__name__, str(error))


def cache_snapshot(server) -> dict:
    return {
        owner: [(entry.peer_id, entry.distance) for entry in entries]
        for owner, entries in server._neighbor_cache.items()
    }


def audit_equal(single: ManagementServer, sharded: ShardedManagementServer) -> None:
    """Full-state audit: everything that shapes future answers must match."""
    assert sharded.peers() == single.peers()
    assert sharded.landmarks() == single.landmarks()
    assert sharded.peer_count == single.peer_count
    assert cache_snapshot(sharded) == cache_snapshot(single)
    assert sharded._referenced_by == single._referenced_by
    for peer in single.peers():
        assert sharded.peer_landmark(peer) == single.peer_landmark(peer)
        assert sharded.peer_path(peer) == single.peer_path(peer)
        for k in (1, single.neighbor_set_size, single.neighbor_set_size + 2):
            assert sharded.closest_peers(peer, k) == single.closest_peers(peer, k)
    for peer_a in single.peers()[:10]:
        for peer_b in single.peers()[:10]:
            assert apply_pair(single, peer_a, peer_b) == apply_pair(sharded, peer_a, peer_b)


def apply_pair(server, peer_a, peer_b):
    try:
        return ("ok", server.estimate_distance(peer_a, peer_b))
    except Exception as error:  # noqa: BLE001
        return ("error", type(error).__name__, str(error))


def run_case(backend_factory, case) -> None:
    """One oracle example: interleave the ops on both planes, then audit."""
    landmark_count, shard_count, with_distances, maintain_cache, k, ops = case
    single, sharded = build_planes(
        backend_factory, landmark_count, shard_count, with_distances, maintain_cache, k
    )
    try:
        for op in ops:
            assert apply_op(sharded, op) == apply_op(single, op), op
        audit_equal(single, sharded)
    finally:
        sharded.close()


@st.composite
def equivalence_cases(draw):
    landmark_count = draw(st.integers(1, MAX_LANDMARKS))
    shard_count = draw(st.integers(1, 8))
    with_distances = draw(st.booleans())
    maintain_cache = draw(st.booleans())
    k = draw(st.integers(1, 4))
    shape = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))
    peer = st.integers(0, MAX_PEERS - 1)
    # landmark index == landmark_count exercises the unknown-landmark error —
    # in batches too, so the per-shard batched validation must surface the
    # same first-invalid-path-in-input-order error as the single server.
    any_lm = st.integers(0, landmark_count)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("arrive"), peer, any_lm, shape),
                st.tuples(
                    st.just("batch"),
                    st.lists(st.tuples(peer, any_lm, shape), min_size=1, max_size=6),
                ),
                st.tuples(st.just("depart"), peer),
                st.tuples(st.just("query"), peer, st.sampled_from([None, 1, 2, 3, 7])),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return landmark_count, shard_count, with_distances, maintain_cache, k, ops


#: Tier-1 example budgets of the backends that fork a server per shard
#: (hypothesis' default of 100 is more than their CI entries run).  A set
#: ``HYPOTHESIS_PROFILE`` overrides them: the matrix entries keep 60 and 25.
TIER1_EXAMPLES = {"process": 20, "chaos": 10}


class TestEquivalenceOracle:
    # Otherwise the example budget is not pinned: the default profile's
    # applies locally, and CI's dedicated matrix entries (tests/conftest.py)
    # select ci-equivalence (inline, high budget) or ci-equivalence-process
    # (process, reduced budget + hard timeout) instead.
    def test_sharded_plane_matches_single_server(self, backend_factory, request):
        backend = request.node.callspec.params["backend_factory"]
        budget = {}
        if backend in TIER1_EXAMPLES and not os.environ.get("HYPOTHESIS_PROFILE"):
            budget["max_examples"] = TIER1_EXAMPLES[backend]

        @settings(deadline=None, **budget)
        @given(case=equivalence_cases())
        def check(case):
            run_case(backend_factory, case)

        check()


@st.composite
def fill_cases(draw):
    """A population over 2–5 landmarks with distances, on 1–4 inline shards."""
    landmark_count = draw(st.integers(2, MAX_LANDMARKS))
    shard_count = draw(st.integers(1, 4))
    shape = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))
    population = draw(
        st.lists(st.tuples(st.integers(0, landmark_count - 1), shape), min_size=1, max_size=MAX_PEERS)
    )
    k = draw(st.integers(1, len(population) + 2))
    return landmark_count, shard_count, population, k


class TestBoundedFill:
    """A fill asks each shard for the candidates still needed, and no more.

    Each shard answers the first ``need`` candidates of its own merge; the
    coordinator merges the cut lists and keeps ``need``.  That is the single
    server's fill only because the first ``need`` merged candidates are a
    prefix of each shard's list at most ``need`` long: for any population,
    shard count and ``k`` up to above the population, every answer equals
    the single server's and no shard answers more than it was asked for.
    """

    @settings(deadline=None)
    @given(case=fill_cases())
    def test_a_bounded_fill_matches_the_single_server(self, case):
        landmark_count, shard_count, population, k = case
        single, sharded = build_planes(
            make_backend_factory("inline"),
            landmark_count,
            shard_count,
            with_distances=True,
            maintain_cache=False,
            k=k,
        )
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
            for index, (landmark_index, shape) in enumerate(population):
                op = ("arrive", index, landmark_index, shape)
                assert apply_op(sharded, op) == apply_op(single, op), op
            for peer in single.peers():
                for wanted in (1, k, len(population) + 1):
                    assert sharded.closest_peers(peer, wanted) == single.closest_peers(peer, wanted)
        assert all(length <= limit for limit, length in replies), replies


class TestEquivalenceAcceptance:
    """The issue's acceptance sweep: a long fixed workload at 1/2/4/8 shards."""

    @pytest.mark.parametrize("shard_count", [1, 2, 4, 8])
    @pytest.mark.parametrize("with_distances", [True, False])
    def test_long_interleaved_workload(self, backend_factory, shard_count, with_distances):
        single, sharded = build_planes(
            backend_factory,
            landmark_count=4,
            shard_count=shard_count,
            with_distances=with_distances,
            maintain_cache=True,
            k=3,
        )
        try:
            rng = random.Random(20_000 + shard_count)
            alive: List[str] = []
            for step in range(400):
                action = rng.random()
                if action < 0.40 or len(alive) < 3:
                    op = ("arrive", rng.randrange(MAX_PEERS), rng.randrange(4), _shape(rng))
                elif action < 0.55:
                    op = (
                        "batch",
                        [
                            (rng.randrange(MAX_PEERS), rng.randrange(4), _shape(rng))
                            for _ in range(rng.randrange(1, 5))
                        ],
                    )
                elif action < 0.75:
                    op = ("depart", rng.randrange(MAX_PEERS))
                else:
                    op = ("query", rng.randrange(MAX_PEERS), rng.choice([None, 1, 3, 6]))
                assert apply_op(sharded, op) == apply_op(single, op), (step, op)
                alive = single.peers()
            audit_equal(single, sharded)
            if shard_count > 1 and len(sharded.landmarks()) > 1:
                used = {sharded.shard_of(landmark) for landmark in sharded.landmarks()}
                # The fixed landmark names spread over >1 shard at these counts,
                # so the sweep genuinely crosses shard boundaries.
                assert len(used) > 1
        finally:
            sharded.close()


def _shape(rng: random.Random) -> Tuple[int, int, int]:
    return (rng.randrange(3), rng.randrange(3), rng.randrange(4))


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
        factory = make_backend_factory("socket-chaos" if transport == "socket" else "chaos")
        single, sharded = build_planes(
            factory,
            landmark_count=4,
            shard_count=shard_count,
            with_distances=True,
            maintain_cache=True,
            k=3,
        )
        try:
            rng = random.Random(31_000 + shard_count)
            for step in range(220):
                action = rng.random()
                if action < 0.45:
                    op = ("arrive", rng.randrange(MAX_PEERS), rng.randrange(4), _shape(rng))
                elif action < 0.60:
                    op = (
                        "batch",
                        [
                            (rng.randrange(MAX_PEERS), rng.randrange(4), _shape(rng))
                            for _ in range(rng.randrange(1, 5))
                        ],
                    )
                elif action < 0.80:
                    op = ("depart", rng.randrange(MAX_PEERS))
                else:
                    op = ("query", rng.randrange(MAX_PEERS), rng.choice([None, 1, 3, 6]))
                assert apply_op(sharded, op) == apply_op(single, op), (step, op)
            audit_equal(single, sharded)
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
