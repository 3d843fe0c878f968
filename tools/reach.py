"""Which functions under src/repro does anything but their own unit tests call?

Runs tier-1, then the five bench workloads at smoke scale, under a call tracer
charging each call to the running test file or to bench; prints per module the
functions defined, reached by bench, reached by a test file other than its own
tests/<pkg>/test_<stem>.py, and the names nothing else reached (* = never called).
Blind spots: calls in child processes (forked shards, shard-serve) are lost, and
import-time calls go to the first importer.  ``python tools/reach.py [pytest args]``."""

import ast, os, pathlib, pytest, sys, threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro") + os.sep
label, calls = ["import"], {}  # (file, first line) -> who called it


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
    sys.settrace(trace), threading.settrace(trace)
    pytest.main(["-q", "-p", "no:cacheprovider", *(sys.argv[1:] or [ROOT])], plugins=[ChargeToTestFile()])
    from bench.runner import WORKLOAD_CLASSES, run_workload
    label[0] = "bench"
    for name in WORKLOAD_CLASSES:
        run_workload(name, seed=12, seconds=0.05, traced=False, scale="smoke")
    sys.settrace(None), threading.settrace(None)
    print(f"\n{'module':36s} defined  bench  others  nothing else")
    for path in sorted(os.path.join(d, f) for d, _, fs in os.walk(SRC) for f in fs if f.endswith(".py")):
        pkg, stem = os.path.split(os.path.relpath(path[:-3], SRC))
        own = os.path.join("tests", pkg, f"test_{stem}.py")
        body = ast.parse(pathlib.Path(path).read_text(encoding="utf-8")).body
        defined = [(calls.get((path, line), set()), name) for line, name in functions(body)]
        bench = sum("bench" in who for who, _ in defined)
        others = sum(bool(who - {"bench", own}) for who, _ in defined)
        rest = [name + "*" * (not who) for who, name in defined if not who - {own}]
        print(f"{path[len(SRC):]:36s} {len(defined):7d} {bench:6d} {others:7d}  {len(rest):3d} {', '.join(rest)}")
