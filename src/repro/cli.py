"""Command-line entry point: ``repro-experiments``.

Examples
--------
List the available experiments::

    repro-experiments --list

Run the quick Figure 1 reproduction and print the table::

    repro-experiments figure1-quick

Run several experiments and save their tables as JSON::

    repro-experiments figure1-quick landmark-count --output results/

Serve shards to remote coordinators over TCP and/or Unix-domain sockets
(each client connection gets its own shard; stop with Ctrl-C)::

    repro-experiments shard-serve --tcp 0.0.0.0:7421
    repro-experiments shard-serve --unix /tmp/shard.sock --tcp 127.0.0.1:0
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

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
            "Subcommand (as the first argument): 'repro-experiments shard-serve' "
            "serves discovery shards over TCP / Unix-domain sockets. See its --help."
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
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
