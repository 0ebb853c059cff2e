"""Integration tests for the run loop (``Engine.run_protocol``)."""

import numpy as np
import pytest

from repro.api import Deployment, Engine
from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.no_filter import NoFilterProtocol
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.range_query import RangeQuery
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance

QUERY = RangeQuery(400.0, 600.0)


def test_result_fields(small_trace):
    result = Engine().run_protocol(small_trace, ZeroToleranceRangeProtocol(QUERY))
    assert result.protocol == "ZT-NRP"
    assert result.n_streams == small_trace.n_streams
    assert result.n_records == small_trace.n_records
    assert result.total_messages == (
        result.initialization_messages + result.maintenance_messages
    )
    assert result.maintenance_messages == (
        result.update_messages
        + result.probe_messages
        + result.constraint_messages
    )


def test_checker_disabled_by_default(small_trace):
    result = Engine().run_protocol(small_trace, ZeroToleranceRangeProtocol(QUERY))
    assert result.checks == 0
    assert result.tolerance_ok  # vacuous


def test_checking_requires_query_when_protocol_lacks_one(small_trace):
    class Bare(NoFilterProtocol):
        def __init__(self):
            super().__init__(QUERY)
            del self.query  # simulate a protocol without .query

    # NoFilterProtocol keeps .query; build a truly bare double instead.
    protocol = ZeroToleranceRangeProtocol(QUERY)
    del protocol.query
    with pytest.raises(ValueError):
        Engine().run_protocol(
            small_trace, protocol, deployment=Deployment.single(check_every=1)
        )


def test_label_propagates(small_trace):
    result = Engine().run_protocol(
        small_trace,
        ZeroToleranceRangeProtocol(QUERY),
        label="my-run",
    )
    assert result.label == "my-run"
    assert result.row()["label"] == "my-run"


def test_row_contains_extras(small_trace):
    tolerance = FractionTolerance(0.2, 0.2)
    result = Engine().run_protocol(
        small_trace,
        FractionToleranceRangeProtocol(QUERY, tolerance),
        tolerance=tolerance,
    )
    row = result.row()
    assert "n_plus" in row
    assert row["protocol"] == "FT-NRP"


def test_empty_trace_runs(manual_trace):
    empty = manual_trace.truncate(0.0)
    result = Engine().run_protocol(empty, ZeroToleranceRangeProtocol(QUERY))
    assert result.maintenance_messages == 0
    assert result.n_records == 0


def test_sampled_checking_counts(small_trace):
    result = Engine().run_protocol(
        small_trace,
        ZeroToleranceRangeProtocol(QUERY),
        deployment=Deployment.single(check_every=10),
    )
    # one check at t0 plus every 10th record
    expected = 1 + (small_trace.n_records + 9) // 10
    assert result.checks == expected


def test_same_trace_same_result(small_trace):
    a = Engine().run_protocol(small_trace, ZeroToleranceRangeProtocol(QUERY))
    b = Engine().run_protocol(small_trace, ZeroToleranceRangeProtocol(QUERY))
    assert a.maintenance_messages == b.maintenance_messages
    assert a.final_answer == b.final_answer


def test_simultaneous_records_processed_in_order():
    trace = StreamTrace(
        initial_values=np.array([0.0]),
        times=np.array([1.0, 1.0, 1.0]),
        stream_ids=np.array([0, 0, 0]),
        values=np.array([500.0, 700.0, 500.0]),
        horizon=2.0,
    )
    result = Engine().run_protocol(
        trace,
        ZeroToleranceRangeProtocol(QUERY),
        deployment=Deployment.single(check_every=1, strict=True),
    )
    # enter, leave, enter: three crossings, final answer includes stream 0.
    assert result.maintenance_messages == 3
    assert result.final_answer == frozenset({0})
