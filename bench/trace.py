"""Run-time span tracing at the program's layer boundaries.

The traced run wraps each boundary function (resolved by dotted name when
tracing is installed) so that a call records a span: name, start, end, the
span that caused it and the id of the workload op in flight.  Stacks are
thread-local, so work the loopback shard server does on its own thread is
covered too.  Spans stay in memory; :meth:`Tracer.write` dumps them when the
run ends.  A layer's *self time* is its spans' duration minus the part their
child spans cover.

Boundaries are named, not imported: one that no longer resolves (a later
refactor renamed or deleted it) is skipped and counted in
``trace.unresolved_boundaries``, never fatal.  End-to-end metrics are always
measured with no wrapper installed.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_now = time.perf_counter_ns

#: ``(span name, "module:attribute.path", mode)``.  ``span`` records timed
#: spans; ``count`` only counts calls (for functions too hot to time);
#: ``bytes`` is a span that also adds ``len(result)`` to a byte counter.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    # client stack of a join
    ("scenario.join", "repro.workloads.scenarios:Scenario.join_one", "span"),
    ("newcomer.join", "repro.core.newcomer:NewcomerClient.join", "span"),
    ("newcomer.select", "repro.core.newcomer:NewcomerClient.select_landmark", "span"),
    ("newcomer.probe", "repro.core.newcomer:NewcomerClient.probe_landmark", "span"),
    ("routing.trace", "repro.routing.traceroute:TracerouteSimulator.trace", "span"),
    ("routing.route", "repro.routing.route_table:RouteTable.route", "span"),
    ("routing.engine", "repro.routing.distance_engine:HopDistanceEngine.tree", "span"),
    ("routing.clean", "repro.core.newcomer:clean_traceroute", "span"),
    # single-server plane (also what runs inside each shard)
    ("plane.register", "repro.core.management_server:ManagementServer.register_peer", "span"),
    ("plane.register", "repro.core.management_server:ManagementServer.register_peers", "span"),
    ("plane.register", "repro.core.management_server:ManagementServer.insert_paths", "span"),
    ("plane.closest", "repro.core.management_server:ManagementServer.closest_peers", "span"),
    ("plane.closest", "repro.core.management_server:ManagementServer.local_closest", "span"),
    ("plane.unregister", "repro.core.management_server:ManagementServer.unregister_peer", "span"),
    ("path_tree.insert", "repro.core.path_tree:PathTree.insert", "span"),
    ("path_tree.remove", "repro.core.path_tree:PathTree.remove", "span"),
    ("path_tree.walk", "repro.core.path_tree:PathTree.closest_from_node", "span"),
    ("neighbor_cache.store", "repro.core.neighbor_cache:NeighborCache.store", "span"),
    ("neighbor_cache.propagate", "repro.core.neighbor_cache:NeighborCache.propagate_newcomer", "span"),
    ("neighbor_cache.drop", "repro.core.neighbor_cache:NeighborCache.drop_peer", "span"),
    ("interning.key", "repro.core.interning:PeerKeyInterner.key", "count"),
    # sharded plane over sockets
    ("sharded.coordinator", "repro.core.sharded:ShardedManagementServer.register_peer", "span"),
    ("sharded.coordinator", "repro.core.sharded:ShardedManagementServer.closest_peers", "span"),
    ("sharded.coordinator", "repro.core.sharded:ShardedManagementServer.unregister_peer", "span"),
    ("transport.roundtrip", "repro.core.remote:ShardSupervisorBase.request", "span"),
    ("transport.notify", "repro.core.socket_backend:SocketShardSupervisor.notify", "span"),
    ("codec.encode", "repro.core.socket_backend:encode_frame", "bytes"),
    ("codec.encode", "repro.core.remote:encode_path", "span"),
    ("codec.decode", "repro.core.socket_backend:decode_frame", "span"),
    ("codec.decode", "repro.core.remote:decode_path", "span"),
    ("shard_server.handle", "repro.core.remote:ShardRequestHandler.handle", "span"),
    # serving plane
    ("serving.publish", "repro.core.serving:SnapshotPublisher.publish", "span"),
    ("serving.build", "repro.core.serving:DiscoverySnapshot.build", "span"),
    ("serving.flat_trie", "repro.core.serving:FlatTrie.__init__", "span"),
    ("serving.read", "repro.core.serving:SnapshotReader.closest_peers", "span"),
    ("serving.walk", "repro.core.serving:FlatTrie.closest_from_node", "span"),
    # event simulation and wire protocol
    ("sim.engine", "repro.sim.engine:Engine.run", "span"),
    ("sim.engine", "repro.sim.engine:Engine.step", "span"),
    ("sim.engine", "repro.sim.engine:Engine.schedule", "span"),
    ("sim.network_send", "repro.sim.network:SimulatedNetwork.send", "span"),
    ("protocol.host_handle", "repro.protocol.host:ProtocolManagementHost.handle_message", "span"),
    ("protocol.host_handle", "repro.protocol.host:ProtocolManagementHost.expire_stale", "span"),
    ("protocol.peer_handle", "repro.protocol.peer:BeaconingPeer.handle_message", "span"),
    ("protocol.peer_handle", "repro.protocol.peer:BeaconingPeer.update_path", "span"),
)


class _ThreadState:
    """One thread's open-span stack, finished spans and per-name totals."""

    __slots__ = ("ident", "stack", "spans", "self_ns", "calls")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: List[List[int]] = []
        self.spans: List[Tuple[str, int, int, int, int]] = []
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}


class Tracer:
    """Installs span wrappers on the boundaries and aggregates what they record."""

    def __init__(self, boundaries: Sequence[Tuple[str, str, str]] = BOUNDARIES) -> None:
        self._boundaries = tuple(boundaries)
        self._installed: List[Tuple[object, str, object, bool]] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self.unresolved: List[str] = []
        self.counts: Dict[str, int] = {}
        self.byte_totals: Dict[str, int] = {}
        self.op_id = 0
        """Id of the workload op in flight: advanced by every root span of the
        client thread, so spans on other threads carry the op they serve."""

    # ---------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every boundary that resolves; count the ones that do not."""
        for name, target, mode in self._boundaries:
            resolved = _resolve(target)
            if resolved is None:
                self.unresolved.append(target)
                continue
            owner, attribute, function = resolved
            own = attribute in vars(owner)
            original = vars(owner)[attribute] if own else None
            wrapper = self._wrap(name, function, mode)
            if isinstance(original, (classmethod, staticmethod)):
                # ``function`` is already bound (or plain): keep it from rebinding.
                wrapper = staticmethod(wrapper)
            setattr(owner, attribute, wrapper)
            self._installed.append((owner, attribute, original, own))

    def uninstall(self) -> None:
        """Put every wrapped boundary back exactly as it was."""
        for owner, attribute, original, own in reversed(self._installed):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._installed.clear()

    # ------------------------------------------------------------------ spans

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, name: str, function: Callable, mode: str) -> Callable:
        if mode == "count":
            counts = self.counts
            counts.setdefault(name, 0)

            def counting(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return counting

        get_state = self._state
        byte_totals = self.byte_totals if mode == "bytes" else None

        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            if not stack and state.ident == self._main:
                self.op_id += 1
            # [time covered by child spans, parent span index, own span index]
            frame = [0, stack[-1][2] if stack else -1, len(state.spans)]
            state.spans.append(None)  # type: ignore[arg-type]  # slot kept in start order
            stack.append(frame)
            started = _now()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = _now()
                stack.pop()
                duration = ended - started
                if stack:
                    stack[-1][0] += duration
                state.spans[frame[2]] = (name, started, ended, frame[1], self.op_id)
                state.self_ns[name] = state.self_ns.get(name, 0) + duration - frame[0]
                state.calls[name] = state.calls.get(name, 0) + 1
            if byte_totals is not None:
                byte_totals[name] = byte_totals.get(name, 0) + len(result)
            return result

        return traced

    # ------------------------------------------------------------- aggregates

    def self_ns(self, name: str) -> int:
        """Total self time of ``name`` over all threads."""
        return sum(state.self_ns.get(name, 0) for state in self._states)

    def calls(self, name: str) -> int:
        return sum(state.calls.get(name, 0) for state in self._states)

    def total_self_ns(self, main_thread: Optional[bool] = None) -> int:
        """Self time of every layer: all threads, the client's, or the others'."""
        return sum(
            sum(state.self_ns.values())
            for state in self._states
            if main_thread is None or (state.ident == self._main) == main_thread
        )

    def self_ns_by_name(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for state in self._states:
            for name, value in state.self_ns.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def span_count(self) -> int:
        return sum(len(state.spans) for state in self._states)

    def write(self, path: str) -> None:
        """Dump every span: one JSON object per line, grouped by thread."""
        with open(path, "w", encoding="utf-8") as handle:
            for state in self._states:
                for index, span in enumerate(state.spans):
                    if span is None:
                        continue
                    name, started, ended, parent, op_id = span
                    handle.write(
                        json.dumps(
                            {
                                "thread": state.ident,
                                "span": index,
                                "parent": parent,
                                "op": op_id,
                                "name": name,
                                "start_ns": started,
                                "end_ns": ended,
                            }
                        )
                    )
                    handle.write("\n")


def _resolve(target: str):
    """``(owner, attribute, function)`` for ``"module:dotted.attr"``, or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    function = getattr(owner, parts[-1], None)
    if not callable(function):
        return None
    return owner, parts[-1], function
