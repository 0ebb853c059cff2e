"""Unit tests for sweep helpers."""

from repro.api import run_grid, sweep_values


def test_sweep_values_passes_parameter():
    results = sweep_values(lambda x: x * 2, "x", [1, 2, 3])
    assert results == [2, 4, 6]


def test_run_grid_cartesian_product():
    rows = run_grid(lambda a, b: a + b, {"a": [1, 2], "b": [10, 20]})
    assert len(rows) == 4
    assert rows[0] == {"a": 1, "b": 10, "result": 11}
    # Nested-loop order: a varies slowest.
    assert [(r["a"], r["b"]) for r in rows] == [
        (1, 10), (1, 20), (2, 10), (2, 20)
    ]


def test_run_grid_single_axis():
    rows = run_grid(lambda k: k**2, {"k": [3]})
    assert rows == [{"k": 3, "result": 9}]


def test_run_grid_empty_axis():
    assert run_grid(lambda k: k, {"k": []}) == []


def _double(x):
    return x * 2


def _add(a, b):
    return a + b


def test_sweep_values_parallel_matches_serial():
    serial = sweep_values(_double, "x", [1, 2, 3, 4])
    parallel = sweep_values(_double, "x", [1, 2, 3, 4], parallel=True)
    assert parallel == serial == [2, 4, 6, 8]


def test_run_grid_parallel_preserves_order():
    serial = run_grid(_add, {"a": [1, 2], "b": [10, 20]})
    parallel = run_grid(_add, {"a": [1, 2], "b": [10, 20]}, parallel=True)
    assert parallel == serial


def test_parallel_single_job_stays_in_process():
    # One combination short-circuits the pool entirely; lambdas are fine.
    assert run_grid(lambda k: k**2, {"k": [3]}, parallel=True) == [
        {"k": 3, "result": 9}
    ]


def test_parallel_max_workers_accepted():
    rows = run_grid(_add, {"a": [1, 2, 3], "b": [5]}, parallel=True,
                    max_workers=2)
    assert [r["result"] for r in rows] == [6, 7, 8]
