"""Command-line entry point: ``repro-experiments``.

Examples
--------
List the available experiments::

    repro-experiments --list

Run the quick Figure 1 reproduction and print the table::

    repro-experiments figure1-quick

Run several experiments and save their tables as JSON::

    repro-experiments figure1-quick landmark-count --output results/

Run the discovery perf harness and write ``BENCH_discovery.json``::

    repro-experiments perf
    repro-experiments perf --populations 200 800 --ops 50 --output /tmp/bench.json

Measure the sharded management plane and gate on an earlier report::

    repro-experiments perf --shards 1,4
    repro-experiments perf --compare BENCH_discovery.json

Measure the multi-process shard backend (one child shard server per shard),
alone or alongside the inline cells so ``--compare`` can gate the inline
ones against an older baseline while the process cells join as new cells::

    repro-experiments perf --shards 2 --backend process
    repro-experiments perf --shards 2 --backend inline,process --compare BENCH_discovery.json

Measure flash-crowd arrivals at specific co-arriving batch sizes (the
``arrival`` workload runs once per listed size)::

    repro-experiments perf --arrival-batch-sizes 1,64

Sweep the lock-free serving plane's concurrent-clients dimension (the
``serving`` workload runs once per listed reader count, inline cells only)::

    repro-experiments perf --readers 1,2,4

Measure the beaconing discovery protocol over the event sim's lossy wire
(the ``protocol`` workload runs once per listed loss probability,
inline-only; skipped without the flag)::

    repro-experiments perf --protocol-loss 0,0.1,0.3

Measure worker restart+replay with and without journal compaction (the
``recovery`` / ``recovery-compacted`` cells; remote backends only)::

    repro-experiments perf --shards 2 --backend process --recovery-ops 5000

Measure the socket backend (connection-scoped shards behind a loopback
asyncio shard server), or record a complete baseline — classic
single-server cells plus every backend's sharded cells — in one run::

    repro-experiments perf --shards 2 --backend socket
    repro-experiments perf --shards none,2 --backend inline,process,socket

Serve shards to remote coordinators over TCP and/or Unix-domain sockets
(each client connection gets its own shard; stop with Ctrl-C)::

    repro-experiments shard-serve --tcp 0.0.0.0:7421
    repro-experiments shard-serve --unix /tmp/shard.sock --tcp 127.0.0.1:0
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .experiments.runner import available_experiments, run_experiment, save_table


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Run the experiments reproducing 'A Quicker Way to Discover Nearby Peers' "
            "(CoNEXT 2007)."
        ),
        epilog=(
            "Subcommands (as the first argument): 'repro-experiments perf' runs the "
            "discovery perf harness and writes BENCH_discovery.json; "
            "'repro-experiments shard-serve' serves discovery shards over TCP / "
            "Unix-domain sockets. See each subcommand's --help."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names to run (see --list)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available experiments and exit",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory to write result tables (JSON) into",
    )
    parser.add_argument(
        "--csv",
        action="store_true",
        help="print tables as CSV instead of aligned text",
    )
    return parser


def _parse_positive_int_list(value: str, what: str) -> List[int]:
    """Parse a comma-separated list of positive integers (shared validator)."""
    try:
        values = [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {what} list {value!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"at least one {what} is required")
    if any(item < 1 for item in values):
        raise argparse.ArgumentTypeError(f"{what}s must all be >= 1, got {values}")
    return values


def _parse_shard_counts(value: str) -> List[Optional[int]]:
    """Parse the ``--shards`` spec: positive counts and/or ``none``.

    ``none`` is the classic single-server plane, so ``--shards none,2``
    records the unsharded baseline cells and the 2-shard cells in one
    report (remote backends skip the ``none`` entry — their shards only
    exist on a sharded plane).
    """
    parts = [part.strip() for part in value.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("at least one shard count is required")
    counts: List[Optional[int]] = []
    for part in parts:
        if part.lower() == "none":
            counts.append(None)
            continue
        try:
            count = int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid shard count list {value!r}")
        if count < 1:
            raise argparse.ArgumentTypeError(
                f"shard counts must all be >= 1 (or 'none'), got {part!r}"
            )
        counts.append(count)
    return counts


def _parse_batch_sizes(value: str) -> List[int]:
    """Parse the ``--arrival-batch-sizes`` spec: comma-separated sizes."""
    return _parse_positive_int_list(value, "batch size")


def _parse_reader_counts(value: str) -> List[int]:
    """Parse the ``--readers`` spec: comma-separated reader counts."""
    return _parse_positive_int_list(value, "reader count")


def _parse_loss_rates(value: str) -> List[float]:
    """Parse the ``--protocol-loss`` spec: comma-separated probabilities."""
    try:
        rates = [float(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid loss-rate list {value!r}")
    if not rates:
        raise argparse.ArgumentTypeError("at least one loss rate is required")
    if any(not 0.0 <= rate < 1.0 for rate in rates):
        raise argparse.ArgumentTypeError(f"loss rates must be in [0, 1), got {rates}")
    return rates


def _parse_backends(value: str) -> List[str]:
    """Parse the ``--backend`` spec: comma-separated backend names."""
    from .core.remote import BACKENDS

    backends = [part.strip() for part in value.split(",") if part.strip()]
    if not backends:
        raise argparse.ArgumentTypeError("at least one backend is required")
    unknown = [backend for backend in backends if backend not in BACKENDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"backends must be one of {BACKENDS}, got {unknown}"
        )
    return backends


def build_perf_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``perf`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments perf",
        description=(
            "Measure the discovery hot path (insert / query / departure / churn / "
            "arrival) and the scenario distance-plane build (build) at several "
            "population sizes and write a JSON perf report."
        ),
    )
    parser.add_argument(
        "--populations",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="population sizes to measure (default: 200 800 3200 12800)",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=None,
        metavar="COUNT",
        help="operations per workload (default: per-workload; use a small value for smoke runs)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=3,
        help="seed for the synthetic populations (default: 3)",
    )
    parser.add_argument(
        "--neighbor-set-size",
        type=int,
        default=5,
        metavar="K",
        help="neighbour set size k (default: 5)",
    )
    parser.add_argument(
        "--shards",
        type=_parse_shard_counts,
        default=None,
        metavar="N[,N...]",
        help=(
            "run the workloads on a sharded management plane at these shard "
            "counts (e.g. '1,4'); 'none' is the classic single server, so "
            "'none,2' records both in one report; default runs the classic "
            "single server only"
        ),
    )
    parser.add_argument(
        "--backend",
        type=_parse_backends,
        default=None,
        metavar="NAME[,NAME...]",
        help=(
            "where sharded cells' shards live: 'inline' (in-process, the "
            "default), 'process' (one child shard server per shard), 'socket' "
            "(connection-scoped shards on a loopback asyncio server), or any "
            "comma-separated mix; 'process'/'socket' require --shards"
        ),
    )
    parser.add_argument(
        "--arrival-batch-sizes",
        type=_parse_batch_sizes,
        default=None,
        metavar="N[,N...]",
        help=(
            "co-arriving batch sizes the arrival workload measures (one cell "
            "per size; default: 1,32,256)"
        ),
    )
    parser.add_argument(
        "--readers",
        type=_parse_reader_counts,
        default=None,
        metavar="N[,N...]",
        help=(
            "concurrent reader counts the serving workload sweeps (one cell "
            "per count, inline cells only; default: 1,2,4)"
        ),
    )
    parser.add_argument(
        "--protocol-loss",
        type=_parse_loss_rates,
        default=None,
        metavar="P[,P...]",
        help=(
            "run the beaconing-protocol workload over the event sim's lossy "
            "wire at these loss probabilities (one cell per rate, e.g. "
            "'0,0.1,0.3'; default: skipped)"
        ),
    )
    parser.add_argument(
        "--recovery-ops",
        type=int,
        default=None,
        metavar="COUNT",
        help=(
            "churn cycles the recovery workload journals before measuring "
            "restart+replay (remote backends, i.e. 'process' and 'socket'; "
            "default: --ops, else the workload default)"
        ),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_discovery.json"),
        metavar="FILE",
        help="where to write the JSON report (default: BENCH_discovery.json)",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE",
        help=(
            "compare against a previous JSON report and exit non-zero when any "
            "(workload, population, shards) cell regressed beyond the threshold"
        ),
    )
    parser.add_argument(
        "--compare-threshold",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="allowed per-op slowdown before --compare fails (default: 0.25)",
    )
    return parser


def run_perf(argv: Optional[Sequence[str]] = None) -> int:
    """Run the ``perf`` subcommand; returns the process exit code."""
    import json

    from .perf.compare import compare_reports
    from .perf.report import PerfReport
    from .perf.workloads import (
        DEFAULT_ARRIVAL_BATCH_SIZES,
        DEFAULT_POPULATIONS,
        DEFAULT_READER_COUNTS,
        run_discovery_suite,
    )

    parser = build_perf_parser()
    args = parser.parse_args(argv)
    populations = args.populations or list(DEFAULT_POPULATIONS)
    if any(population < 2 for population in populations):
        parser.error(f"--populations must all be >= 2, got {populations}")
    if args.ops is not None and args.ops < 1:
        parser.error(f"--ops must be >= 1, got {args.ops}")
    if args.recovery_ops is not None and args.recovery_ops < 1:
        parser.error(f"--recovery-ops must be >= 1, got {args.recovery_ops}")
    if args.neighbor_set_size < 1:
        parser.error(f"--neighbor-set-size must be >= 1, got {args.neighbor_set_size}")
    if args.compare_threshold < 0:
        parser.error(f"--compare-threshold must be >= 0, got {args.compare_threshold}")
    backends = args.backend or ["inline"]
    remote = [backend for backend in backends if backend in ("process", "socket")]
    if remote and not any(count is not None for count in (args.shards or [])):
        parser.error(
            f"--backend {','.join(remote)} requires --shards with at least one "
            "real count (remote shards only exist on a sharded plane)"
        )

    baseline = None
    if args.compare is not None:
        try:
            baseline = PerfReport.from_dict(json.loads(args.compare.read_text()))
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"error: cannot read baseline {args.compare}: {error}", file=sys.stderr)
            return 1

    report = run_discovery_suite(
        populations=populations,
        ops=args.ops,
        seed=args.seed,
        neighbor_set_size=args.neighbor_set_size,
        shard_counts=args.shards,
        backends=backends,
        arrival_batch_sizes=args.arrival_batch_sizes or list(DEFAULT_ARRIVAL_BATCH_SIZES),
        recovery_ops=args.recovery_ops,
        reader_counts=args.readers or list(DEFAULT_READER_COUNTS),
        protocol_loss_rates=args.protocol_loss,
    )
    print(report.to_text())
    try:
        path = report.write(args.output)
    except OSError as error:
        print(f"error: cannot write {args.output}: {error}", file=sys.stderr)
        return 1
    print(f"saved {path}", file=sys.stderr)

    if baseline is not None:
        result = compare_reports(baseline, report, threshold=args.compare_threshold)
        print(result.to_text())
        if not result.deltas:
            print(
                f"error: no comparable cells between {args.compare} and this run "
                "(check --populations/--ops/--shards match the baseline)",
                file=sys.stderr,
            )
            return 1
        if not result.ok:
            print(
                f"error: perf regression vs {args.compare} "
                f"({len(result.regressions)} cell(s) beyond {args.compare_threshold:.0%})",
                file=sys.stderr,
            )
            return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "perf":
        return run_perf(list(argv[1:]))
    if argv and argv[0] == "shard-serve":
        from .core.socket_backend import run_serve

        return run_serve(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name in available_experiments():
            print(name)
        return 0

    if not args.experiments:
        parser.print_usage()
        print("error: no experiment given (use --list to see the available ones)", file=sys.stderr)
        return 2

    unknown = [name for name in args.experiments if name not in available_experiments()]
    if unknown:
        print(
            f"error: unknown experiment(s) {unknown}; available: {available_experiments()}",
            file=sys.stderr,
        )
        return 2

    for name in args.experiments:
        table = run_experiment(name)
        if args.csv:
            print(table.to_csv())
        else:
            print(table.to_text())
        print()
        if args.output is not None:
            path = save_table(table, args.output, stem=name)
            print(f"saved {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
