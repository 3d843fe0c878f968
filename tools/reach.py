"""Which functions under src/repro does nothing but the test suite call?

Runs tier-1, the five bench workloads at smoke scale and the rest of what CI
runs (every examples/*.py, and the five pinned tables through the CLI as
``python -m repro.cli NAME`` runs them) under a call tracer that charges each
call to the running test file, to bench or to ci; prints per module the
functions defined, reached by bench, reached by anything but the test files,
and the names only test files reached (* = never called), then a totals row.
Names in ``KEPT`` are left out of that column and printed under the reason
they stay.  Exits 1 when pytest fails, a name only tests reach has no
``KEPT`` reason, or a ``KEPT`` key is stale: it matches no function under
src/repro.  Blind spots: calls in child processes (forked shards,
shard-serve) are lost, and import-time calls go to the first importer.
``python tools/reach.py [pytest args]``."""

import ast, contextlib, glob, io, os, pathlib, pytest, runpy, sys, threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro") + os.sep
label, calls = ["import"], {}  # (file, first line) -> who called it

# Names only tests reach that stay, and why.  A key is a qualified name, a
# class prefix ("ShardBackend.") or a method suffix (".__repr__").
KEPT = {
    ".__repr__": "a repr: read by people, not by code",
    "ShardBackend.": "interface stub: every shard backend implements it",
    "ManagementPlaneBase._compute_neighbors": "interface stub: every plane implements it",
    "ManagementPlaneBase.unregister_peer": "interface stub: every plane implements it",
    "ManagementPlaneBase.tree": "interface stub: every plane implements it",
    "ManagementPlaneBase._live_trees": "interface stub: every plane implements it",
    "ManagementPlaneBase._degraded_neighbors": "interface stub: every plane implements it",
    "ManagementPlaneBase.__enter__": "context protocol, as every plane has it",
    "ManagementPlaneBase.__exit__": "context protocol, as every plane has it",
    "ManagementPlaneBase.peers": "public view: the registered peers in order, which every plane oracle compares",
    "ManagementPlaneBase.neighbor_list": "the cached list a degraded read starts from (ShardedManagementServer._degraded_neighbors)",
    "ManagementPlaneBase._neighbor_cache": "test oracle: the churn and equivalence oracles compare a plane's cached lists by it",
    "ManagementPlaneBase._referenced_by": "test oracle: the churn and equivalence oracles compare a plane's reverse index by it",
    "MessageHandler.": "interface stub: what the simulated network delivers to",
    "LatencyModel.": "interface stub: every latency model implements it",
    "_serve_listener": "runs only in a forked shard, which the tracer cannot see",
    "ChildShardServer.": "the process backend, which only CI's process oracle and the remote tests run",
    "shard_factory_for.process_shard": "the process backend, which only CI's process oracle and the remote tests run",
    "SocketShardSupervisor.process": "the process backend, which only CI's process oracle and the remote tests run",
    "build_serve_parser": "the shard-serve CLI, which runs in a subprocess",
    "_parse_tcp": "the shard-serve CLI, which runs in a subprocess",
    "run_serve": "the shard-serve CLI, which runs in a subprocess",
    "ProtocolManagementHost._ban": "live path no workload drives: a forged beacon",
    "BeaconingPeer._give_up": "live path no workload drives: a peer out of retries",
    "NodeNotFoundError.__init__": "live path no workload drives: a typed failure",
    "EdgeNotFoundError.__init__": "live path no workload drives: a typed failure",
    "NoRouteError.__init__": "live path no workload drives: a typed failure",
    "UnknownPeerError.__init__": "live path no workload drives: a typed failure",
    "ShardUnavailableError.__init__": "live path no workload drives: a typed failure",
    "PathTree._reject": "live path no workload drives: a typed failure",
    "_protocol_error": "live path no workload drives: a typed failure",
    "_rebuild_exception": "live path no workload drives: a typed failure",
    "_SharedDistances.__missing__": "live path no workload drives: a tree distance of 256 hops or more",
    "RecoveryPolicy.backoff_s": "live path no workload drives: recovery from a dead shard",
    "ShardSupervisorBase._recover": "live path no workload drives: recovery from a dead shard",
    "ShardSupervisorBase.health_check": "live path no workload drives: recovery from a dead shard",
    "SocketShardBackend.health_check": "live path no workload drives: recovery from a dead shard",
    "DegradedResult.__init__": "live path no workload drives: a read while a shard is down",
    "ShardedManagementServer._degraded_neighbors": "live path no workload drives: a read while a shard is down",
    "ShardedManagementServer._live_trees": "live path no workload drives: a read while a shard is down",
    "ShardedManagementServer.health": "live path no workload drives: a read while a shard is down",
    "PlaneHealth.healthy": "live path no workload drives: a read while a shard is down",
    "SocketShardBackend.fill_candidates": "live path no workload drives: a list its home landmark cannot fill",
    "message_op_name": "SimulatedNetwork.send names each message to a fault plan by it",
    "ShardedManagementServer.tree": "diagnostics: a landmark's trie, shipped whole from its shard",
    "SocketShardBackend.tree": "diagnostics: a landmark's trie, shipped whole from its shard",
    "PathTree.peers": "diagnostics: a landmark's trie, shipped whole from its shard",
    "SocketShardBackend.insert_paths": "ShardBackend interface; its test callers wait on ROADMAP item 9(d)",
    "SocketShardBackend.__enter__": "context protocol, as every plane has it",
    "SocketShardBackend.__exit__": "context protocol, as every plane has it",
    "ManagementServer.total_tree_visits": "work counter the traced bench reads (bench/workloads/plane_churn.py)",
    "ManagementServer.total_insert_work": "work counter the traced bench reads (bench/workloads/plane_churn.py)",
    "ShardedManagementServer.total_tree_visits": "work counter the traced bench reads (bench/workloads/plane_churn.py)",
    "ShardedManagementServer.total_insert_work": "work counter the traced bench reads (bench/workloads/plane_churn.py)",
    "SocketShardBackend.total_tree_visits": "work counter the traced bench reads (bench/workloads/plane_churn.py)",
    "SocketShardBackend.total_insert_work": "work counter the traced bench reads (bench/workloads/plane_churn.py)",
    "ServerStats.reset": "test oracle: the work-counting tests zero the counters between phases",
    "PathTree.closest_peers": "test oracle: the kernel oracles query a bare trie by it",
    "PathTree.router_count": "test oracle: the trie-index oracles check node reuse by it",
    "RouteTable.path_latency": "test oracle: the route-tree tests compare a route's latency column by it",
    "FlatTrie.structure": "test oracle: the serving oracles compare snapshots with ==",
    "DiscoverySnapshot._content": "test oracle: the serving oracles compare snapshots with ==",
    "DiscoverySnapshot.__eq__": "test oracle: the serving oracles compare snapshots with ==",
    "DiscoverySnapshot.peers": "test oracle: the serving oracles compare snapshots with ==",
    "ProtocolMetrics.as_dict": "test oracle: the protocol determinism tests compare whole reports by it",
    "Graph.connected_component": "test oracle: the router-map tests check every map's connectivity",
    "Graph.connected_components": "test oracle: the router-map tests check every map's connectivity",
    "Graph.is_connected": "test oracle: the router-map tests check every map's connectivity",
    "Graph.subgraph": "test oracle: the router-map tests check every map's connectivity",
    "Graph.copy": "test oracle: the latency tests assign models to a copy of a pinned map",
    "Graph.from_networkx": "test oracle: every networkx-referenced test builds its graph by it",
    "ConstantLatencyModel.": "test oracle: a map test swaps it in for the tiered latencies",
    "ResultTable.to_csv": "the CLI's --csv and --output paths",
    "ResultTable.to_json": "the CLI's --csv and --output paths",
    "ResultTable.to_dict": "the CLI's --csv and --output paths",
    "save_table": "the CLI's --csv and --output paths",
    "ResultTable.__len__": "the rows of a table, as the figure tests count them",
    "merge_seed_tables": "the paper's-band study runs it (ROADMAP item 4)",
    "_figure1_full": "the paper's-band study runs it (ROADMAP item 4)",
    "churn_study": "experiment kept until held-list quality replaces it (ROADMAP item 8(a))",
    "churn_study.ratio_for": "experiment kept until held-list quality replaces it (ROADMAP item 8(a))",
    "Engine.step": "traced by bench/trace.py until a bench change drops it",
    "SocketShardSupervisor.notify": "traced by bench/trace.py until a bench change drops it",
    "SocketShardSupervisor.seen_generation": "the composed run's process deaths read it (ROADMAP item 1)",
    "SocketShardSupervisor.connection": "public view: the live connection the chaos tests cut",
    "ShardSupervisorBase.journal": "public view the recovery tests observe replay through",
    "ShardSupervisorBase.epoch": "public view the recovery tests observe reconnects through",
    "ShardedManagementServer.shard_of": "public view the sharded tests aim their faults by",
    "ShardedManagementServer.shard_landmarks": "public view the sharded tests aim their faults by",
    "SimulatedNetwork.router_of": "public view the handover tests observe attachment through",
    "SimulatedNetwork.one_way_latency": "public view the latency-memo tests observe the memo through",
    "NeighborCache.get": "public view: the plane's _neighbor_cache diagnostics read lists by it",
    "format_address": "names the shard in connect failures and the serve banner",
    "LocalShardServer.alive": "owner interface that ChildShardServer overrides",
    "ProtocolManagementHost.last_heard": "public view the host tests observe refresh through",
    "BeaconingPeer.current_seq": "public view the peer tests observe rounds through",
    "Engine.pending_events": "public view the engine tests observe the queue through",
    "PeerKeyInterner.table": "public view (peer -> sort text) the serving and load tests read the interner by",
}


def covers(key, name):
    return name == key or (key.endswith(".") and name.startswith(key)) or (
        key.startswith(".") and name.endswith(key)
    )


def kept(name):
    """The key in KEPT that covers ``name``, or None."""
    return next((key for key in KEPT if covers(key, name)), None)


def trace(frame, event, arg):  # returns None: call events only, no line events
    if event == "call" and frame.f_code.co_filename.startswith(SRC):
        calls.setdefault((frame.f_code.co_filename, frame.f_code.co_firstlineno), set()).add(label[0])


class ChargeToTestFile:
    @pytest.hookimpl(hookwrapper=True)
    def pytest_make_collect_report(self, collector):
        label[0] = os.path.relpath(str(collector.path), ROOT)
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        label[0] = os.path.relpath(str(item.path), ROOT)
        yield


def functions(body, prefix=""):  # (first line as its code object sees it, qualified name)
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield min([node.lineno] + [d.lineno for d in node.decorator_list]), prefix + node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from functions(node.body, f"{prefix}{node.name}.")


if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    pytest_args = sys.argv[1:] or [ROOT]
    sys.settrace(trace), threading.settrace(trace)
    try:
        failed = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[ChargeToTestFile()])
        from bench.runner import WORKLOAD_CLASSES, run_workload
        label[0] = "bench"
        for name in WORKLOAD_CLASSES:
            run_workload(name, seed=12, seconds=0.05, traced=False, scale="smoke")
        from repro.cli import main
        label[0] = "ci"
        with contextlib.redirect_stdout(io.StringIO()):
            for example in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
                sys.argv = [example]  # the pytest arguments are not the example's
                try:
                    runpy.run_path(example, run_name="__main__")
                except SystemExit as stop:  # the self-checking examples exit 0 when right
                    if stop.code:
                        raise
            for name in ("protocol-sim-quick", "figure1-quick", "tree-accuracy", "branch-analysis",
                         "traceroute-noise"):
                if main([name]):
                    raise SystemExit(f"repro.cli {name} failed")
    finally:
        sys.settrace(None), threading.settrace(None)
    outside = {"import", "bench", "ci"}  # every other label is a test file
    print(f"\n{'module':36s} defined  bench  others  nothing else")
    totals, kept_names, names = [0, 0, 0, 0], {}, []
    for path in sorted(os.path.join(d, f) for d, _, fs in os.walk(SRC) for f in fs if f.endswith(".py")):
        body = ast.parse(pathlib.Path(path).read_text(encoding="utf-8")).body
        defined = [(calls.get((path, line), set()), name) for line, name in functions(body)]
        names += [name for _, name in defined]
        bench = sum("bench" in who for who, _ in defined)
        others = sum(bool(who & outside - {"bench"}) for who, _ in defined)
        rest = []
        for who, name in defined:
            if not who & outside:
                key = kept(name)
                (kept_names.setdefault(KEPT[key], []) if key else rest).append(name + "*" * (not who))
        print(f"{path[len(SRC):]:36s} {len(defined):7d} {bench:6d} {others:7d}  {len(rest):3d} {', '.join(rest)}")
        totals = [a + b for a, b in zip(totals, (len(defined), bench, others, len(rest)))]
    print(f"{'total':36s} {totals[0]:7d} {totals[1]:6d} {totals[2]:7d}  {totals[3]:3d}")
    print(f"\nkept: {sum(map(len, kept_names.values()))} names only tests reach")
    for reason, kept_list in kept_names.items():
        print(f"  {reason}: {', '.join(kept_list)}")
    stale = [key for key in KEPT if not any(covers(key, name) for name in names)]
    print(f"\nstale: {len(stale)} KEPT keys match no function under src/repro {', '.join(stale)}")
    if failed or totals[3] or stale:
        sys.exit(1)
