"""ExecutionSession: assembly, replay modes, and batched equivalence."""

import numpy as np
import pytest

from repro.api import Deployment, Engine
from repro.multiquery.runner import execute_multi_query
from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.ft_rp import FractionToleranceKnnProtocol
from repro.protocols.no_filter import NoFilterProtocol
from repro.protocols.rtp import RankToleranceProtocol
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.protocols.zt_rp import ZeroToleranceKnnProtocol
from repro.queries.knn import KnnQuery, TopKQuery
from repro.queries.range_query import RangeQuery
from repro.runtime.session import ExecutionSession
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance
from repro.valuebased.protocol import run_value_tolerance


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticConfig(n_streams=120, horizon=250.0, seed=11)
    )


def _protocol_zoo():
    return [
        ("no-filter", lambda: NoFilterProtocol(RangeQuery(400.0, 600.0))),
        ("zt-nrp", lambda: ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0))),
        (
            "ft-nrp",
            lambda: FractionToleranceRangeProtocol(
                RangeQuery(400.0, 600.0), FractionTolerance(0.3, 0.3)
            ),
        ),
        ("zt-rp", lambda: ZeroToleranceKnnProtocol(KnnQuery(q=500.0, k=8))),
        (
            "ft-rp",
            lambda: FractionToleranceKnnProtocol(
                KnnQuery(q=500.0, k=8), FractionTolerance(0.25, 0.25)
            ),
        ),
        (
            "rtp",
            lambda: RankToleranceProtocol(
                TopKQuery(k=8), RankTolerance(k=8, r=4)
            ),
        ),
    ]


@pytest.mark.parametrize(
    "name,factory", _protocol_zoo(), ids=[n for n, _ in _protocol_zoo()]
)
def test_batched_replay_ledger_identical(trace, name, factory):
    """Acceptance: batch mode == event mode, snapshot for snapshot."""
    event = Engine().run_protocol(
        trace, factory(), deployment=Deployment.single(replay_mode="event")
    )
    batch = Engine().run_protocol(
        trace, factory(), deployment=Deployment.single(replay_mode="batch")
    )
    assert event.ledger == batch.ledger
    assert event.final_answer == batch.final_answer


@pytest.mark.parametrize("batch_size", [1, 7, 64, 4096])
def test_batch_size_does_not_change_results(trace, batch_size):
    reference = Engine().run_protocol(
        trace,
        ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0)),
        deployment=Deployment.single(replay_mode="event"),
    )
    batched = Engine().run_protocol(
        trace,
        ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0)),
        deployment=Deployment.single(
            replay_mode="batch", batch_size=batch_size
        ),
    )
    assert reference.ledger == batched.ledger


@pytest.mark.parametrize("eps", [5.0, 60.0, 500.0])
def test_value_window_batched_identical(trace, eps):
    event = run_value_tolerance(
        trace, TopKQuery(k=5), eps, Deployment.single(replay_mode="event")
    )
    batch = run_value_tolerance(
        trace, TopKQuery(k=5), eps, Deployment.single(replay_mode="batch")
    )
    assert event.maintenance_messages == batch.maintenance_messages


def test_multiquery_batched_identical(trace):
    def queries():
        return {
            "range": (
                ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0)),
                RangeQuery(400.0, 600.0),
                None,
            ),
            "knn": (
                ZeroToleranceKnnProtocol(KnnQuery(q=500.0, k=5)),
                KnnQuery(q=500.0, k=5),
                None,
            ),
        }

    event = execute_multi_query(
        trace, queries(), Deployment.single(replay_mode="event")
    )
    batch = execute_multi_query(
        trace, queries(), Deployment.single(replay_mode="batch")
    )
    assert event.ledger == batch.ledger
    assert event.extras["shared_updates"] == batch.extras["shared_updates"]
    assert (
        event.extras["logical_deliveries"]
        == batch.extras["logical_deliveries"]
    )
    assert event.answers == batch.answers


def test_checked_runs_identical_across_requested_modes(trace):
    """Checking forces the event path, so modes must agree trivially."""
    results = [
        Engine().run_protocol(
            trace,
            ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0)),
            deployment=Deployment.single(
                check_every=1, strict=True, replay_mode=mode
            ),
        )
        for mode in ("auto", "event", "batch")
    ]
    assert results[0].ledger == results[1].ledger == results[2].ledger


def test_invalid_mode_rejected(trace):
    with pytest.raises(ValueError):
        Deployment.single(replay_mode="vectorized")
    session = ExecutionSession.for_streams(
        trace, NoFilterProtocol(RangeQuery(0.0, 1.0))
    )
    with pytest.raises(ValueError):
        session.replay(
            trace.times, trace.stream_ids, trace.values, mode="warp"
        )


def test_probe_mid_batch_sees_staged_value():
    """Deferred quiescent writes must be flushed before any read.

    Stream 1 drifts quiescently (inside its filter) while stream 0's
    crossing makes the protocol probe stream 1: the probe must observe
    stream 1's *latest* value even though its records were batched.
    """
    from repro.protocols.base import FilterProtocol

    class ProbeOnUpdate(FilterProtocol):
        name = "probe-on-update"

        def __init__(self):
            self.seen = []

        def initialize(self, server):
            server.deploy(0, 0.0, 10.0, assumed_inside=None)
            server.deploy(1, -1000.0, 1000.0, assumed_inside=None)

        def on_update(self, server, stream_id, value, time):
            self.seen.append(server.probe(1))

        @property
        def answer(self):
            return frozenset()

    trace = StreamTrace(
        initial_values=np.array([5.0, 0.0]),
        times=np.array([1.0, 2.0, 3.0]),
        stream_ids=np.array([1, 1, 0]),
        values=np.array([7.0, 9.0, 50.0]),  # stream 0 crosses at t=3
        horizon=4.0,
    )
    protocol = ProbeOnUpdate()
    session = ExecutionSession.for_streams(trace, protocol)
    session.initialize()
    session.replay_trace(trace, mode="batch")
    assert protocol.seen == [9.0]


def test_session_initialize_phases(trace):
    session = ExecutionSession.for_streams(
        trace, ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0))
    )
    session.initialize()
    snapshot = session.snapshot()
    assert snapshot.initialization_total > 0
    assert snapshot.maintenance_total == 0


def test_empty_trace_batched(trace):
    empty = trace.truncate(0.0)
    result = Engine().run_protocol(
        empty,
        ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0)),
        deployment=Deployment.single(replay_mode="batch"),
    )
    assert result.maintenance_messages == 0


def test_taps_removed_after_replay(trace):
    session = ExecutionSession.for_streams(
        trace, ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0))
    )
    session.initialize()
    session.replay_trace(trace, mode="batch")
    assert session.channel._taps == []
