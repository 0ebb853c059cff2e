"""Tests for the multi-query extension (shared sources, per-query slots)."""

import numpy as np
import pytest

from repro.api import Deployment, Engine
from repro.multiquery.coordinator import MultiQueryCoordinator
from repro.multiquery.runner import execute_multi_query
from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.rtp import RankToleranceProtocol
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.knn import KnnQuery
from repro.queries.range_query import RangeQuery
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

CHECKED = Deployment.single(check_every=1, strict=True)


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace(
        SyntheticConfig(n_streams=150, horizon=250.0, seed=4)
    )


def make_queries(tolerances):
    """One FT-NRP (or ZT-NRP) per tolerance, all over [400, 600]."""
    queries = {}
    for i, eps in enumerate(tolerances):
        query = RangeQuery(400.0, 600.0)
        if eps == 0.0:
            queries[f"user{i}"] = (ZeroToleranceRangeProtocol(query), query, None)
        else:
            tolerance = FractionTolerance(eps, eps)
            queries[f"user{i}"] = (
                FractionToleranceRangeProtocol(query, tolerance),
                query,
                tolerance,
            )
    return queries


class TestCorrectness:
    def test_every_query_within_tolerance(self, trace):
        result = execute_multi_query(
            trace, make_queries([0.0, 0.2, 0.4]), CHECKED
        )
        assert result.tolerance_ok
        assert set(result.answers) == {"user0", "user1", "user2"}

    def test_mixed_query_classes(self, trace):
        range_query = RangeQuery(400.0, 600.0)
        range_tol = FractionTolerance(0.25, 0.25)
        knn_query = KnnQuery(500.0, 6)
        knn_tol = RankTolerance(k=6, r=4)
        result = execute_multi_query(
            trace,
            {
                "zone": (
                    FractionToleranceRangeProtocol(range_query, range_tol),
                    range_query,
                    range_tol,
                ),
                "nearest": (
                    RankToleranceProtocol(knn_query, knn_tol),
                    knn_query,
                    knn_tol,
                ),
            },
            CHECKED,
        )
        assert result.tolerance_ok
        assert len(result.answers["nearest"]) == 6

    def test_solo_equivalence_of_answers(self, trace):
        """A protocol behind the facade ends with the same answer as a
        solo run on the same trace."""
        query = RangeQuery(400.0, 600.0)
        tolerance = FractionTolerance(0.2, 0.2)
        solo = Engine().run_protocol(
            trace,
            FractionToleranceRangeProtocol(query, tolerance),
            tolerance=tolerance,
        )
        shared = execute_multi_query(trace, make_queries([0.2]))
        assert shared.answers["user0"] == solo.final_answer
        assert shared.maintenance_messages == solo.maintenance_messages


class TestSharing:
    def test_identical_queries_share_updates(self, trace):
        shared = execute_multi_query(trace, make_queries([0.0, 0.0, 0.0]))
        solo = Engine().run_protocol(
            trace, ZeroToleranceRangeProtocol(RangeQuery(400.0, 600.0))
        )
        # Identical filters flip together: one physical update serves all
        # three queries, so total update cost equals one solo run's.
        assert shared.extras["shared_updates"] == solo.maintenance_messages
        assert shared.extras["sharing_factor"] == pytest.approx(3.0)

    def test_shared_beats_independent_deployments(self, trace):
        tolerances = [0.0, 0.1, 0.2, 0.4]
        shared = execute_multi_query(trace, make_queries(tolerances))
        independent = 0
        for _, (protocol, query, tolerance) in make_queries(tolerances).items():
            independent += Engine().run_protocol(
                trace, protocol, tolerance=tolerance
            ).maintenance_messages
        assert shared.maintenance_messages < independent

    def test_disjoint_ranges_share_little(self):
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=100, horizon=200.0, seed=8)
        )
        queries = {}
        for i, (low, high) in enumerate([(100, 250), (450, 550), (800, 950)]):
            query = RangeQuery(float(low), float(high))
            queries[f"q{i}"] = (ZeroToleranceRangeProtocol(query), query, None)
        result = execute_multi_query(trace, queries, CHECKED)
        assert result.tolerance_ok
        assert result.extras["sharing_factor"] < 1.2


class TestCoordinator:
    def test_duplicate_query_id_rejected(self):
        coordinator = MultiQueryCoordinator()
        coordinator.attach_sources(np.array([1.0]))
        query = RangeQuery(0.0, 1.0)
        coordinator.register("a", ZeroToleranceRangeProtocol(query))
        with pytest.raises(ValueError):
            coordinator.register("a", ZeroToleranceRangeProtocol(query))

    def test_context_mirrors_server_api(self):
        coordinator = MultiQueryCoordinator()
        coordinator.attach_sources(np.array([5.0, 15.0]))
        query = RangeQuery(0.0, 10.0)
        context = coordinator.register("a", ZeroToleranceRangeProtocol(query))
        assert context.n_streams == 2
        assert context.stream_ids == [0, 1]
        assert context.probe(1) == 15.0
        assert context.probe_all() == {0: 5.0, 1: 15.0}

    def test_unfiltered_source_notifies_every_query(self):
        """Before any filter is installed, updates fan out to all."""
        trace = StreamTrace(
            initial_values=np.array([500.0] * 5),
            times=np.array([1.0]),
            stream_ids=np.array([0]),
            values=np.array([100.0]),
            horizon=2.0,
        )
        coordinator = MultiQueryCoordinator()
        coordinator.attach_sources(trace.initial_values)
        seen = []

        class Spy(ZeroToleranceRangeProtocol):
            def initialize(self, server):
                pass  # no filters installed

            def on_update(self, server, stream_id, value, time):
                seen.append((self.name, stream_id))

        coordinator.register("a", Spy(RangeQuery(0, 1)))
        coordinator.register("b", Spy(RangeQuery(0, 1)))
        coordinator.initialize_all()
        coordinator.sources[0].apply_value(100.0, 1.0)
        assert len(seen) == 2
