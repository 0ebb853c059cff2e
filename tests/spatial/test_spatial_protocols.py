"""Randomized correctness + shape tests for the spatial protocols."""

import numpy as np
import pytest

from repro.api import Deployment, Engine
from repro.spatial.geometry import BoxRegion
from repro.spatial.protocols import (
    SpatialFractionKnnProtocol,
    SpatialFractionRangeProtocol,
    SpatialNoFilterProtocol,
    SpatialRankToleranceProtocol,
    SpatialZeroKnnProtocol,
    SpatialZeroRangeProtocol,
)
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.spatial.trace import SpatialTrace
from repro.spatial.workloads import (
    MovingObjectsConfig,
    generate_moving_objects_trace,
)
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.knn_fraction import RhoPolicy
from repro.tolerance.rank_tolerance import RankTolerance

CHECKED = Deployment.single(check_every=1, strict=True)
BOX = BoxRegion([350.0, 350.0], [650.0, 650.0])
CENTER = [500.0, 500.0]


@pytest.fixture(scope="module")
def trace():
    return generate_moving_objects_trace(
        MovingObjectsConfig(n_objects=80, horizon=250.0, seed=0)
    )


class TestExactProtocols:
    def test_no_filter_exact(self, trace):
        result = Engine().run_protocol(
            trace, SpatialNoFilterProtocol(SpatialRangeQuery(BOX)), deployment=CHECKED
        )
        assert result.tolerance_ok
        assert result.maintenance_messages == trace.n_records

    def test_zt_range_exact_and_cheaper(self, trace):
        result = Engine().run_protocol(
            trace, SpatialZeroRangeProtocol(SpatialRangeQuery(BOX)), deployment=CHECKED
        )
        assert result.tolerance_ok
        assert result.maintenance_messages < trace.n_records

    def test_zt_knn_exact(self, trace):
        result = Engine().run_protocol(
            trace,
            SpatialZeroKnnProtocol(SpatialKnnQuery(CENTER, 5)),
            deployment=CHECKED,
        )
        assert result.tolerance_ok


class TestSpatialFtNrp:
    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.45])
    def test_tolerance_held(self, trace, eps):
        tolerance = FractionTolerance(eps, eps)
        result = Engine().run_protocol(
            trace,
            SpatialFractionRangeProtocol(SpatialRangeQuery(BOX), tolerance),
            tolerance=tolerance,
            deployment=CHECKED,
        )
        assert result.tolerance_ok

    def test_silencers_allocated(self, trace):
        tolerance = FractionTolerance(0.4, 0.4)
        protocol = SpatialFractionRangeProtocol(
            SpatialRangeQuery(BOX), tolerance
        )
        Engine().run_protocol(
            trace.truncate(0.0), protocol, tolerance=tolerance
        )
        box_members = int(BOX.contains_many(trace.initial_points).sum())
        assert protocol.n_plus == min(
            tolerance.emax_plus(box_members), box_members
        )


class TestSpatialRtp:
    @pytest.mark.parametrize("k,r", [(3, 0), (5, 2), (8, 5)])
    def test_tolerance_held(self, trace, k, r):
        tolerance = RankTolerance(k=k, r=r)
        result = Engine().run_protocol(
            trace,
            SpatialRankToleranceProtocol(SpatialKnnQuery(CENTER, k), tolerance),
            tolerance=tolerance,
            deployment=CHECKED,
        )
        assert result.tolerance_ok
        assert len(result.final_answer) == k

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SpatialRankToleranceProtocol(
                SpatialKnnQuery(CENTER, 3), RankTolerance(k=5, r=0)
            )

    def test_rank_slack_reduces_cost(self, trace):
        costs = {}
        for r in (0, 6):
            tolerance = RankTolerance(k=5, r=r)
            result = Engine().run_protocol(
                trace,
                SpatialRankToleranceProtocol(
                    SpatialKnnQuery(CENTER, 5), tolerance
                ),
                tolerance=tolerance,
            )
            costs[r] = result.maintenance_messages
        assert costs[6] < costs[0]


class TestSpatialFtRp:
    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.4])
    @pytest.mark.parametrize("policy", list(RhoPolicy))
    def test_tolerance_held(self, trace, eps, policy):
        tolerance = FractionTolerance(eps, eps)
        result = Engine().run_protocol(
            trace,
            SpatialFractionKnnProtocol(
                SpatialKnnQuery(CENTER, 8), tolerance, policy=policy
            ),
            tolerance=tolerance,
            deployment=CHECKED,
        )
        assert result.tolerance_ok

    def test_tolerance_slashes_cost_vs_zt(self, trace):
        zt = Engine().run_protocol(
            trace, SpatialZeroKnnProtocol(SpatialKnnQuery(CENTER, 10))
        )
        tolerance = FractionTolerance(0.3, 0.3)
        ft = Engine().run_protocol(
            trace,
            SpatialFractionKnnProtocol(SpatialKnnQuery(CENTER, 10), tolerance),
            tolerance=tolerance,
        )
        assert ft.maintenance_messages < zt.maintenance_messages / 5


class TestManySeeds:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_matrix_on_fresh_traces(self, seed):
        trace = generate_moving_objects_trace(
            MovingObjectsConfig(n_objects=50, horizon=200.0, seed=seed + 10)
        )
        rank_tol = RankTolerance(k=4, r=3)
        frac_tol = FractionTolerance(0.25, 0.25)
        runs = [
            (SpatialRankToleranceProtocol(SpatialKnnQuery(CENTER, 4), rank_tol), rank_tol),
            (SpatialFractionKnnProtocol(SpatialKnnQuery(CENTER, 6), frac_tol), frac_tol),
            (SpatialFractionRangeProtocol(SpatialRangeQuery(BOX), frac_tol), frac_tol),
        ]
        for protocol, tolerance in runs:
            result = Engine().run_protocol(
                trace, protocol, tolerance=tolerance, deployment=CHECKED
            )
            assert result.tolerance_ok, protocol.name


class TestDegenerateTraces:
    def test_static_objects_cost_nothing_after_init(self):
        trace = SpatialTrace(
            initial_points=np.random.default_rng(0).uniform(
                0, 1000, size=(30, 2)
            ),
            times=np.array([]),
            stream_ids=np.array([]),
            points=np.empty((0, 2)),
            horizon=10.0,
        )
        tolerance = FractionTolerance(0.2, 0.2)
        result = Engine().run_protocol(
            trace,
            SpatialFractionRangeProtocol(SpatialRangeQuery(BOX), tolerance),
            tolerance=tolerance,
            deployment=CHECKED,
        )
        assert result.maintenance_messages == 0


class TestViolationOverflow:
    """A report keeps 100 violation lines and says how many it dropped."""

    @pytest.mark.parametrize(
        "deployment",
        [
            Deployment.single(check_every=1, latency=1.0),
            Deployment.sharded(2, check_every=1, latency=1.0),
        ],
        ids=["single", "sharded"],
    )
    def test_overflow_marker_counts_the_dropped_violations(self, deployment):
        from repro.api import QuerySpec, Workload

        report = Engine().run(
            QuerySpec("zt-nrp-2d", SpatialRangeQuery(BOX)),
            Workload.moving_objects(n_objects=2000, horizon=10.0, seed=0),
            deployment,
        )
        counted = (
            report.extras["violations_inherent_latency"]
            + report.extras["violations_protocol_bug"]
        )
        assert counted > 100
        assert len(report.violations) == 101
        assert report.violations[-1] == f"... and {counted - 100} more"
