"""Tier-1 smoke test of the benchmark: every workload, both modes, tiny scale."""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import inputs, registry
from bench.runner import run_workload
from bench.trace import BOUNDARIES, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_is_the_registry_and_within_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest == registry.manifest()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(UNIT.match(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(os.path.isdir(os.path.join(ROOT, path)) for path in manifest["paths"])


@pytest.mark.parametrize("name", registry.workload_names())
def test_workload_emits_exactly_the_named_metrics(name):
    for traced, expected in ((False, registry.END_TO_END), (True, registry.PER_LAYER)):
        result = run_workload(name, seed=5, seconds=0.05, traced=traced, scale="smoke")
        line = result.line()
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, result.checks
        assert list(line["metrics"]) == [metric.name for metric in expected]
        for metric in expected:
            entry = line["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            assert math.isfinite(entry["value"]) and entry["value"] >= 0, metric.name
            if not traced:
                assert entry["value"] > 0, metric.name
        if traced:
            assert line["metrics"]["trace.unresolved_boundaries"]["value"] == 0
            assert line["metrics"]["trace.coverage"]["value"] > 0.5


def test_a_missing_trace_boundary_is_skipped_and_counted():
    from repro.core.path_tree import PathTree

    original = PathTree.insert
    gone = ("gone.layer", "repro.core.path_tree:PathTree.no_such_method", "span")
    moved = ("gone.module", "repro.core.no_such_module:anything", "span")
    tracer = Tracer(BOUNDARIES + (gone, moved))
    tracer.install()
    try:
        assert PathTree.insert is not original
        assert tracer.unresolved == [gone[1], moved[1]]
    finally:
        tracer.uninstall()
    assert PathTree.insert is original


def test_inputs_depend_on_the_seed_alone():
    assert inputs.synthetic_paths(7, 50, 4) == inputs.synthetic_paths(7, 50, 4)
    assert inputs.synthetic_paths(7, 50, 4) != inputs.synthetic_paths(8, 50, 4)
    one, two = inputs.ChurnStream(7, 100, 5), inputs.ChurnStream(7, 100, 5)
    ops = one.take(2000)
    assert ops == two.take(2000)
    assert {kind for kind, _ in ops} == {inputs.QUERY, inputs.COLD_QUERY, inputs.LEAVE, inputs.JOIN}
    assert sorted(one.live + one.absent) == list(range(105))
    assert inputs.protocol_script(7, 40, 1000.0, 0.1, 0.1) == inputs.protocol_script(7, 40, 1000.0, 0.1, 0.1)


def test_the_command_prints_the_result_line_last_and_fails_without_the_program(tmp_path):
    command = [sys.executable, "-m", "bench", "--workload", "protocol-lossy", "--seed", "9",
               "--seconds", "0.05", "--trace", "0", "--scale", "smoke"]
    environment = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(command, cwd=ROOT, env=environment, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {metric.name for metric in registry.END_TO_END}
    assert not os.path.exists(os.path.join(ROOT, ".bench_tmp"))

    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    bare = subprocess.run(command, cwd=tmp_path, env=environment, capture_output=True, text=True, timeout=60)
    assert bare.returncode != 0
    assert not bare.stdout.strip()
