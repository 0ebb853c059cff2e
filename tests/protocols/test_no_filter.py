"""Unit tests for the no-filter baseline."""

from repro.api import Deployment, Engine
from repro.protocols.no_filter import NoFilterProtocol
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery


def test_cost_equals_update_count(small_trace):
    result = Engine().run_protocol(small_trace, NoFilterProtocol(RangeQuery(400, 600)))
    assert result.maintenance_messages == small_trace.n_records
    assert result.update_messages == small_trace.n_records
    assert result.probe_messages == 0
    assert result.constraint_messages == 0


def test_range_answers_are_exact(small_trace):
    result = Engine().run_protocol(
        small_trace,
        NoFilterProtocol(RangeQuery(400, 600)),
        deployment=Deployment.single(check_every=1, strict=True),
    )
    assert result.tolerance_ok


def test_rank_answers_are_exact(small_trace):
    result = Engine().run_protocol(
        small_trace,
        NoFilterProtocol(TopKQuery(k=7)),
        deployment=Deployment.single(check_every=1, strict=True),
    )
    assert result.tolerance_ok
    assert len(result.final_answer) == 7


def test_rank_answer_cache_invalidation(manual_trace):
    protocol = NoFilterProtocol(TopKQuery(k=1))
    result = Engine().run_protocol(manual_trace, protocol)
    # Final values: [4, 30, 18, 13] -> top-1 is stream 1.
    assert result.final_answer == frozenset({1})


def test_initialization_probes_all_streams(small_trace):
    result = Engine().run_protocol(small_trace, NoFilterProtocol(RangeQuery(0, 1)))
    # 2 messages per probe during initialization.
    assert result.initialization_messages == 2 * small_trace.n_streams


def test_answer_before_initialize_is_empty():
    assert NoFilterProtocol(RangeQuery(0, 1)).answer == frozenset()
