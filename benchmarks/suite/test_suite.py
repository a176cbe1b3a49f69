"""Checks of the benchmark itself, outside the tier-1 suite:

    python3 -m pytest benchmarks/suite

Each workload runs once untraced and once traced for 2 s (about a
minute and a half in all).
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path[:0] = [str(SUITE), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import traces  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SEED = 7
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int) -> tuple:
    """``(last stdout line, result.json)`` of one short run."""
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    result = json.loads((run.OUT / f"{workload}-seed{SEED}-trace{trace}"
                         / "result.json").read_text())
    return last, result


def test_benchmark_json_lists_the_suite():
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert WORKLOADS == list(run.WORKLOADS)
    end_to_end, layers = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in end_to_end + layers] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end)
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_unit_and_samples(workload, trace):
    last, result = bench(workload, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        emitted = last["metrics"][entry["name"]]
        assert emitted == {"value": emitted["value"], "unit": entry["unit"]}
        assert isinstance(emitted["value"], float)
        assert result["metrics"][entry["name"]]["samples"] >= 1
    assert set(result["inputs"]) >= {"distinct_keys", "repeat_share",
                                     "ingest_bytes_per_request"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_trips_when_the_oracle_drops_one_batch(workload):
    bench(workload, 0)
    run_dir = (run.OUT / f"{workload}-seed{SEED}-trace0" / "untraced")
    trace = traces.build(run.WORKLOADS[workload], SEED)
    acks = json.loads((run_dir / "acks.json").read_text())["acks"]
    assert gate.check(run_dir, trace) == []
    failures = gate.check(run_dir, trace, acks[:-1])
    assert any("offline replay" in failure for failure in failures)
