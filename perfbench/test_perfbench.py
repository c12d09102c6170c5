"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

sys.path.insert(0, str(harness.SRC))

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
MODULES = {"raw_cold_1m": "raw_cold", "http_small": "http_small",
           "churn_64k": "churn"}
# Every workload the command runs, gated in BENCHMARK.json or not.
WORKLOADS = list(MODULES)


def _module(workload):
    return __import__(MODULES[workload])


def _run(*args: str, cwd: Path = harness.ROOT):
    return subprocess.run(
        [sys.executable, str(HERE.relative_to(harness.ROOT) / "run.py"),
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)
    else:
        # A time the workload owns must have been measured: a lost one
        # would otherwise read 0, a perfect "lower is better".  Derived
        # times (a difference of two) may go negative on tiny inputs.
        for name in _module(workload).PER_LAYER:
            if result["metrics"][name]["unit"] in ("ms", "us"):
                assert result["metrics"][name]["value"] != 0, name
    report = json.loads(lines[-2])["report"]
    assert report["machine"]["nproc"] >= 1
    assert all(row["state"] for row in report["rows"])


def _drop_first(tails):
    return np.asarray(tails)[1:]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_dropped_tail_is_counted_not_passed(workload):
    out = _module(workload).run(5, 0.5, harness.Trace(False), "tiny",
                                tamper=_drop_first)
    assert out.failed >= 1
    assert out.attempted >= out.failed
    assert "unmatched" in out.errors[0]


def test_every_per_layer_metric_has_one_owner_and_a_target():
    owners = {}
    for workload in WORKLOADS:
        for name, moves in _module(workload).PER_LAYER.items():
            assert name not in owners, name
            owners[name] = workload
            if moves != "none":
                metric, target = moves.split("@")
                assert metric in {m["name"] for m in SPEC["end_to_end"]}
                assert target in WORKLOADS
    listed = {m["name"] for m in SPEC["per_layer"]}
    assert set(owners) == listed - {"bench.trace_overhead_frac"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_churn_snapshot_is_held_to_the_edits():
    import churn
    from repro.dynamic import DynamicList
    from repro.lists import LinkedList

    lst = LinkedList(np.array([1, 2, 3, -1]))      # 0 -> 1 -> 2 -> 3
    expected = churn._shadow(lst, [(1, "split", (1, 2))], 1)[1]
    np.testing.assert_array_equal(expected[1], [1, -1, 3, -1])

    def error(edit):
        dyn = DynamicList.from_list(lst)
        edit(dyn)
        return churn._snapshot_error(harness.Trace(False), -1, 1, dyn,
                                     dyn.components(), expected,
                                     lambda tails: tails)

    assert error(lambda dyn: dyn.split(1)) is None
    # A valid list with a valid matching, but not the recorded edit.
    assert "successor" in error(lambda dyn: dyn.split(2))
    assert "other nodes" in error(lambda dyn: dyn.add_node())


def test_matching_error():
    nxt = np.array([3, -1, 1, 2])          # 0 -> 3 -> 2 -> 1
    assert harness.matching_error(nxt, [0, 2]) is None
    assert "unmatched" in harness.matching_error(nxt, [0])
    assert "share" in harness.matching_error(nxt, [0, 3])
    assert "no outgoing" in harness.matching_error(nxt, [1])
    assert "range" in harness.matching_error(nxt, [4])


def test_fails_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
