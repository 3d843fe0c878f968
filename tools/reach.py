"""Which functions under src/repro does anything but their own unit tests call?

Runs tier-1, the five bench workloads at smoke scale and the rest of what CI
runs (every examples/*.py, and the four pinned tables through the CLI as
``python -m repro.cli NAME`` runs them) under a call tracer that charges each
call to the running test file, to bench or to ci; prints per module the
functions defined, reached by bench, reached by anything but its own
tests/<pkg>/test_<stem>.py, and the names nothing else reached (* = never
called), then a totals row.  Names in ``KEPT`` are left out of that column
and printed under the reason they stay.  Blind spots: calls in child
processes (forked shards, shard-serve) are lost, and import-time calls go to
the first importer.  ``python tools/reach.py [pytest args]``."""

import ast, contextlib, glob, io, os, pathlib, pytest, runpy, sys, threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro") + os.sep
label, calls = ["import"], {}  # (file, first line) -> who called it

# Names only their own tests reach that stay, and why.  A key is a qualified
# name, a class prefix ("ShardBackend.") or a method suffix (".__repr__").
KEPT = {
    ".__repr__": "a repr: read by people, not by code",
    "ShardBackend.": "interface stub: every shard backend implements it",
    "ManagementPlaneBase.": "interface stub: every plane implements it",
    "MessageHandler.": "interface stub: what the simulated network delivers to",
    "LatencyModel.": "interface stub: every latency model implements it",
    "_serve_listener": "runs only in a forked shard, which the tracer cannot see",
    "ProtocolManagementHost._ban": "live path no workload drives: a forged beacon",
    "BeaconingPeer._give_up": "live path no workload drives: a peer out of retries",
    "Engine.step": "traced by bench/trace.py until a bench change drops it",
    "SocketShardSupervisor.notify": "traced by bench/trace.py until a bench change drops it",
    "SocketShardSupervisor.seen_generation": "the composed run's process deaths read it (ROADMAP item 1)",
    "_figure1_full": "the paper's-band study runs it (ROADMAP item 4)",
    "ChaosShardBackend.insert_paths": "the chaos reorder fault's target (ROADMAP item 9(d))",
    "format_address": "names the shard in connect failures and the serve banner",
    "LocalShardServer.alive": "owner interface that ChildShardServer overrides",
    "ProtocolManagementHost.last_heard": "public view the host tests observe refresh through",
    "BeaconingPeer.current_seq": "public view the peer tests observe rounds through",
    "Engine.pending_events": "public view the engine tests observe the queue through",
    "PeerKeyInterner.table": "public view (peer -> sort text) the serving and load tests read the interner by",
    "ChaosShardBackend.__enter__": "context protocol, as SocketShardBackend has it",
    "ChaosShardBackend.__exit__": "context protocol, as SocketShardBackend has it",
    "churn_study": "experiment kept until held-list quality replaces it (ROADMAP item 8(a))",
    "churn_study.ratio_for": "experiment kept until held-list quality replaces it (ROADMAP item 8(a))",
    "traceroute_noise_sweep": "experiment kept until the paper's-band study decides it (ROADMAP item 4)",
}


def kept(name):
    """The key in KEPT that covers ``name``, or None."""
    for key in KEPT:
        if name == key or (key.endswith(".") and name.startswith(key)) or (
            key.startswith(".") and name.endswith(key)
        ):
            return key
    return None


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
        pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[ChargeToTestFile()])
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
            for name in ("protocol-sim-quick", "figure1-quick", "tree-accuracy", "branch-analysis"):
                if main([name]):
                    raise SystemExit(f"repro.cli {name} failed")
    finally:
        sys.settrace(None), threading.settrace(None)
    print(f"\n{'module':36s} defined  bench  others  nothing else")
    totals, kept_names = [0, 0, 0, 0], {}
    for path in sorted(os.path.join(d, f) for d, _, fs in os.walk(SRC) for f in fs if f.endswith(".py")):
        pkg, stem = os.path.split(os.path.relpath(path[:-3], SRC))
        own = os.path.join("tests", pkg, f"test_{stem}.py")
        body = ast.parse(pathlib.Path(path).read_text(encoding="utf-8")).body
        defined = [(calls.get((path, line), set()), name) for line, name in functions(body)]
        bench = sum("bench" in who for who, _ in defined)
        others = sum(bool(who - {"bench", own}) for who, _ in defined)
        rest = []
        for who, name in defined:
            if not who - {own}:
                key = kept(name)
                (kept_names.setdefault(KEPT[key], []) if key else rest).append(name + "*" * (not who))
        print(f"{path[len(SRC):]:36s} {len(defined):7d} {bench:6d} {others:7d}  {len(rest):3d} {', '.join(rest)}")
        totals = [a + b for a, b in zip(totals, (len(defined), bench, others, len(rest)))]
    print(f"{'total':36s} {totals[0]:7d} {totals[1]:6d} {totals[2]:7d}  {totals[3]:3d}")
    print(f"\nkept: {sum(map(len, kept_names.values()))} names only their own tests reach")
    for reason, names in kept_names.items():
        print(f"  {reason}: {', '.join(names)}")
