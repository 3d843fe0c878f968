"""``python3 -m bench``: the benchmark's one command.

With ``--workload`` it runs that workload in this process (the driver's
form: one process per run).  Without, it runs every workload, each in a
child interpreter under a watchdog, prints every metric by name with its
unit, cross-checks the two plane-churn digests and exits non-zero when any
check failed.  ``--agree`` runs the whole benchmark twice and compares.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

#: A run that has not finished by then is hung: dump the stacks and die.
WATCHDOG_SECONDS = 170
#: The parent gives a child the contract's 180 s before it kills it.
CHILD_TIMEOUT_SECONDS = 180
REPORT_PREFIX = "report: "
#: sun_path holds ~108 bytes; leave room for mkdtemp's suffix and the file name.
MAX_SOCKET_DIR = 60


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=12, help="the only source of randomness")
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: the separate traced run that yields the per-layer metrics",
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--agree", action="store_true", help="run everything twice and compare")
    parser.add_argument("--out", help="also write the results as JSON to this file")
    parser.add_argument("--trace-out", help="write the traced run's spans to this file")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"bench: no program to measure: {SOURCE}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    from . import registry

    if args.seconds is None:
        args.seconds = float(registry.RUN_SECONDS)
    if args.workload is not None:
        if args.workload not in registry.workload_names():
            parser.error(f"unknown workload {args.workload!r}; one of {registry.workload_names()}")
        return _run_one(args)
    if args.agree:
        return _agree(args)
    reports = _run_all(args)
    _write_out(args.out, reports)
    return 0 if all(report["correct"] for report in reports.values()) else 1


# ---------------------------------------------------------------- one workload


def _run_one(args) -> int:
    from .runner import run_workload

    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    _pin_to_one_cpu()
    scratch = _enter_scratch()
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale, args.trace_out
        )
    finally:
        _leave_scratch(scratch)
        faulthandler.cancel_dump_traceback_later()
    line = result.line()
    report = {
        "workload": result.workload,
        "seed": result.seed,
        "traced": result.traced,
        "details": result.details,
        "layers": result.layers,
        "digest": result.digest,
        "checks": [vars(check) for check in result.checks],
        **line,
    }
    _print_report(report)
    _write_out(args.out, {result.workload: report})
    print(REPORT_PREFIX + json.dumps(report))
    print(json.dumps(line))
    return 0 if result.correct else 1


def _pin_to_one_cpu() -> None:
    """Keep the client and the loopback server thread on one CPU.

    Under the interpreter lock they never run in parallel anyway, and on a
    shared box a cross-CPU wake-up per round trip costs anything from a few
    to a hundred microseconds depending on what the neighbours are doing.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _enter_scratch() -> Optional[str]:
    """Point ``tempfile`` (the loopback shard server's socket) inside the checkout."""
    scratch = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    if len(scratch) > MAX_SOCKET_DIR:
        return None  # too deep for a Unix socket path: the system default it is
    os.makedirs(scratch, exist_ok=True)
    tempfile.tempdir = scratch
    return scratch


def _leave_scratch(scratch: Optional[str]) -> None:
    if scratch is None:
        return
    tempfile.tempdir = None
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(scratch))
    except OSError:
        pass  # another run still has its scratch directory in there


# --------------------------------------------------------------- all workloads


def _run_all(args) -> Dict[str, Dict[str, object]]:
    """Each workload in its own child interpreter, one after the other."""
    from . import registry

    reports: Dict[str, Dict[str, object]] = {}
    for name in registry.workload_names():
        command = [
            sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
        ]
        if args.trace_out:
            command += ["--trace-out", f"{args.trace_out}.{name}"]
        reports[name] = _child(command, name)
    _compare_digests(reports)
    return reports


def _child(command: List[str], name: str) -> Dict[str, object]:
    """Run one child to completion (or the watchdog) and return its report."""
    failure = {"workload": name, "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_SECONDS
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: HUNG, killed after {CHILD_TIMEOUT_SECONDS} s")
        shutil.rmtree(os.path.join(ROOT, ".bench_tmp"), ignore_errors=True)
        return dict(failure, error="hung")
    lines = done.stdout.splitlines()
    report = next(
        (json.loads(line[len(REPORT_PREFIX):]) for line in lines if line.startswith(REPORT_PREFIX)),
        None,
    )
    if report is None:
        print(f"{name}: FAILED with exit code {done.returncode}\n{done.stderr}")
        return dict(failure, error=f"exit code {done.returncode}")
    sys.stdout.write("".join(f"{line}\n" for line in lines[:-2]))
    return report


def _compare_digests(reports: Dict[str, Dict[str, object]]) -> None:
    """Sharded == single, at benchmark scale: both planes saw the same stream."""
    inline = reports["plane-churn-inline"].get("digest")
    socket = reports["plane-churn-socket"].get("digest")
    same = bool(inline) and inline == socket
    print(f"check {'ok' if same else 'FAILED'}: plane-churn-inline digest == plane-churn-socket digest")
    if not same:
        reports["plane-churn-socket"]["correct"] = False


# ---------------------------------------------------------------------- agree


def _agree(args) -> int:
    """Two runs of the same code must agree: within each end-to-end metric's
    own bound, and (``--trace``) exactly on every seed-exact per-layer metric."""
    from . import registry

    first, second = _run_all(args), _run_all(args)
    _write_out(args.out, {"first": first, "second": second})
    worst = 0.0
    agreed = all(report["correct"] for run in (first, second) for report in run.values())
    print(f"\n{'workload':20s} {'metric':12s} {'first':>12s} {'second':>12s} {'diff':>8s} {'bound':>6s}")
    for name in registry.workload_names():
        for spec in () if args.trace else registry.END_TO_END:
            a = first[name]["metrics"].get(spec.name, {}).get("value", math.nan)
            b = second[name]["metrics"].get(spec.name, {}).get("value", math.nan)
            difference = abs(a - b) / min(a, b) if a > 0 and b > 0 else math.inf
            verdict = "" if difference <= spec.bound else "  EXCEEDS"
            agreed = agreed and difference <= spec.bound
            worst = max(worst, difference / spec.bound)
            print(
                f"{name:20s} {spec.name:12s} {a:12.4f} {b:12.4f} {difference:8.2%} {spec.bound:6.0%}{verdict}"
            )
    for name in registry.workload_names():
        for spec in registry.PER_LAYER:
            a = first[name]["metrics"].get(spec.name, {}).get("value")
            b = second[name]["metrics"].get(spec.name, {}).get("value")
            if spec.exact and a != b:
                agreed = False
                print(f"{name:20s} {spec.name} is exact for a seed but read {a} then {b}")
    print(f"\nworst difference is {worst:.0%} of its bound: {'agreed' if agreed else 'NOT agreed'}")
    return 0 if agreed else 1


# -------------------------------------------------------------------- printing


def _print_report(report: Dict[str, object]) -> None:
    details = report["details"]
    kind = "traced" if report["traced"] else "end-to-end"
    print(f"\n== {report['workload']}  seed {report['seed']}  {kind} ==")
    for name, entry in report["metrics"].items():
        print(f"  {name:36s} {entry['value']:16.4f} {entry['unit']}")
    for name, value in details.items():
        print(f"  {name:36s} {value:16.4f}")
    if report["layers"]:
        print("  share of traced self time by layer:")
        for name, share in sorted(report["layers"].items(), key=lambda item: -item[1]):
            print(f"    {name:34s} {share:8.1%}")
    for check in report["checks"]:
        verdict = "ok" if check["passed"] else "FAILED"
        print(f"  check {verdict}: {check['name']} ({check['ops']} ops; {check['detail']})")
    print(f"  attempted {report['attempted']}, failed {report['failed']}, correct {report['correct']}")


def _write_out(path: Optional[str], payload: Dict[str, object]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)


if __name__ == "__main__":
    sys.exit(main())
