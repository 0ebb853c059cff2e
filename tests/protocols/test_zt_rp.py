"""Unit tests for ZT-RP (zero-tolerance k-NN protocol)."""

import numpy as np
import pytest

from repro.api import Deployment, Engine
from repro.protocols.zt_rp import ZeroToleranceKnnProtocol
from repro.queries.knn import KnnQuery, TopKQuery
from repro.streams.trace import StreamTrace


def test_answers_always_exact(small_trace):
    result = Engine().run_protocol(
        small_trace,
        ZeroToleranceKnnProtocol(KnnQuery(500.0, 5)),
        deployment=Deployment.single(check_every=1, strict=True),
    )
    assert result.tolerance_ok


def test_topk_answers_always_exact(small_trace):
    result = Engine().run_protocol(
        small_trace,
        ZeroToleranceKnnProtocol(TopKQuery(k=6)),
        deployment=Deployment.single(check_every=1, strict=True),
    )
    assert result.tolerance_ok


def test_too_few_streams_rejected():
    trace = StreamTrace(
        initial_values=np.array([1.0, 2.0]),
        times=np.array([]),
        stream_ids=np.array([]),
        values=np.array([]),
        horizon=1.0,
    )
    with pytest.raises(ValueError):
        Engine().run_protocol(trace, ZeroToleranceKnnProtocol(KnnQuery(0.0, 2)))


def test_non_crossing_updates_are_free():
    initial = np.array([500.0, 510.0, 490.0, 800.0, 900.0])
    trace = StreamTrace(
        initial_values=initial,
        times=np.array([1.0, 2.0]),
        stream_ids=np.array([3, 4]),
        values=np.array([850.0, 950.0]),  # stay far outside R
        horizon=3.0,
    )
    result = Engine().run_protocol(
        trace, ZeroToleranceKnnProtocol(KnnQuery(500.0, 2))
    )
    assert result.maintenance_messages == 0


def test_each_crossing_costs_about_3n():
    n = 5
    initial = np.array([500.0, 510.0, 490.0, 800.0, 900.0])
    trace = StreamTrace(
        initial_values=initial,
        times=np.array([1.0]),
        stream_ids=np.array([3]),
        values=np.array([505.0]),  # crosses into R
        horizon=2.0,
    )
    protocol = ZeroToleranceKnnProtocol(KnnQuery(500.0, 2))
    result = Engine().run_protocol(trace, protocol)
    assert protocol.recomputations == 1
    # 1 update + 2(n-1) probe messages + n deployments.
    assert result.maintenance_messages == 1 + 2 * (n - 1) + n


def test_region_separates_k_from_k_plus_1():
    initial = np.array([500.0, 505.0, 520.0, 480.0])
    trace = StreamTrace(
        initial_values=initial,
        times=np.array([]),
        stream_ids=np.array([]),
        values=np.array([]),
        horizon=1.0,
    )
    protocol = ZeroToleranceKnnProtocol(KnnQuery(500.0, 2))
    Engine().run_protocol(trace, protocol)
    lower, upper = protocol.region
    # Answer {0, 1} (distances 0, 5); 3rd closest is 480 (distance 20).
    assert protocol.answer == frozenset({0, 1})
    assert lower <= 505.0 <= upper
    assert not (lower <= 480.0 <= upper)
