"""Self-test of the benchmark on reduced inputs.

Run from the repository root::

    python3 -m pytest -q perfbench

Every workload runs end to end (``--trace 0``) and traced
(``--trace 1``) on its ``small`` input, with a seed that has no pinned
reference, so the single/event reference path runs too.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]

from run import END_TO_END, per_layer_units  # noqa: E402
from tracer import LAYERS, LayerTracer, SpanRecorder, tail_percentile  # noqa: E402
from workloads import WORKLOADS, make_workload, relabel  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.2",
            "--trace", str(trace),
            "--size", "small",
        ],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=REPO,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_lists_what_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
    } == per_layer_units(LAYERS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics(workload):
    result = bench(workload, trace=0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics(workload):
    result = bench(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    units = {name: unit for name, (unit, _) in per_layer_units(LAYERS).items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    m = {k: v["value"] for k, v in result["metrics"].items()}
    wall = m["api.traced_wall_s"]
    self_times = [m[f"{layer}.self_s"] for layer in LAYERS] + [m["api.run.self_s"]]
    assert all(0.0 <= t <= wall for t in self_times)
    assert math.isclose(sum(self_times), wall, rel_tol=1e-6)
    assert m["api.trace_overhead"] > 0
    transport = [v for k, v in m.items() if k.startswith("transport.")]
    if workload == "knn2d-transport":
        assert m["transport.epochs"] > 0 and m["transport.bytes_out"] > 0
    else:
        assert not any(transport)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "topk-rtp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_relabel_is_a_permutation_of_stream_ids():
    trace = make_workload(WORKLOADS["topk-rtp"], "small").materialize()
    moved = relabel(trace, 5)
    assert np.array_equal(moved.times, trace.times)
    assert np.array_equal(moved.values, trace.values)
    perm = np.random.default_rng(5).permutation(trace.n_streams)
    assert np.array_equal(moved.stream_ids, perm[trace.stream_ids])
    assert np.array_equal(moved.initial_values[perm], trace.initial_values)
    assert np.array_equal(relabel(trace, 5).stream_ids, moved.stream_ids)


def test_self_time_subtracts_children():
    rec = SpanRecorder(["root", "child"])
    root = rec.open(0)
    child = rec.open(1)
    rec.close(child)
    rec.close(root)
    rec.start[0], rec.end[0] = 0.0, 10.0
    rec.start[1], rec.end[1] = 2.0, 5.0
    totals = rec.layer_totals()
    assert totals["root"]["self_s"] == 7.0 and totals["root"]["total_s"] == 10.0
    assert totals["child"]["self_s"] == 3.0 and totals["child"]["calls"] == 1


def test_tracer_puts_the_program_back():
    from repro.runtime.session import ExecutionSession
    from repro.server.server import Server

    deploy = vars(Server)["deploy"]
    builder = vars(ExecutionSession)["for_streams"]
    with LayerTracer():
        assert vars(Server)["deploy"] is not deploy
        assert isinstance(vars(ExecutionSession)["for_streams"], classmethod)
    assert vars(Server)["deploy"] is deploy
    assert vars(ExecutionSession)["for_streams"] is builder


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = np.arange(100.0)
    value, pct = tail_percentile(samples)
    assert value == 89.0 and (samples > value).sum() == 10
    assert pct == pytest.approx(100 * 89 / 99)
    assert tail_percentile(np.arange(10.0)) == (0.0, 0.0)
