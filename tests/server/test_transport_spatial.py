"""The spatial shard transport's contract: parallel ``-2d`` serving.

``Deployment.sharded(n, parallel=True)`` now compiles the coupled
spatial protocols onto worker processes too — the transport's vector
vocabulary (point frames, region-constraint frames, mirror scatter into
the geometric plane) behind the same epoch-stepped coordinator that
serves the scalar protocols.  The contract is unchanged: byte-identical
ledgers and answers versus sequential sharded serving across
{2, 4} shards x {event, batch} replay, checking runs included, plus the
scalar suite's crash-liveness guarantee on the spatial endpoint.
"""

import time

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.spatial.geometry import BoxRegion
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

WORKLOAD = Workload.moving_objects(n_objects=60, horizon=40.0, seed=3)

QUERY_BOX = BoxRegion([300.0, 300.0], [700.0, 700.0])
CENTER = (500.0, 500.0)

#: All six spatial protocols — every one routes through the transport
#: (even the decomposable ones: the spatial stack is always coupled
#: through the coordinator's rank/answer merge).
SPATIAL_SPECS = {
    "no-filter-2d": QuerySpec(
        protocol="no-filter-2d", query=SpatialRangeQuery(QUERY_BOX)
    ),
    "zt-nrp-2d": QuerySpec(
        protocol="zt-nrp-2d", query=SpatialRangeQuery(QUERY_BOX)
    ),
    "ft-nrp-2d": QuerySpec(
        protocol="ft-nrp-2d",
        query=SpatialRangeQuery(QUERY_BOX),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
    "rtp-2d": QuerySpec(
        protocol="rtp-2d",
        query=SpatialKnnQuery(CENTER, 5),
        tolerance=RankTolerance(k=5, r=3),
    ),
    "zt-rp-2d": QuerySpec(
        protocol="zt-rp-2d", query=SpatialKnnQuery(CENTER, 5)
    ),
    "ft-rp-2d": QuerySpec(
        protocol="ft-rp-2d",
        query=SpatialKnnQuery(CENTER, 5),
        tolerance=FractionTolerance(0.2, 0.2),
    ),
}


# ----------------------------------------------------------------------
# The ledger-identity grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["event", "batch"])
@pytest.mark.parametrize("n_shards", [2, 4])
@pytest.mark.parametrize("protocol", sorted(SPATIAL_SPECS))
def test_spatial_transport_ledger_identical_to_sequential(
    protocol, n_shards, mode
):
    engine = Engine()
    spec = SPATIAL_SPECS[protocol]
    sequential = engine.run(
        spec, WORKLOAD, Deployment.sharded(n_shards, replay_mode=mode)
    )
    parallel = engine.run(
        spec,
        WORKLOAD,
        Deployment.sharded(n_shards, parallel=True, replay_mode=mode),
    )
    assert parallel.ledger == sequential.ledger
    assert parallel.final_answer == sequential.final_answer


def test_spatial_transport_matches_single_server_too():
    # Transitivity pinned down explicitly, as in the scalar suite.
    engine = Engine()
    spec = SPATIAL_SPECS["rtp-2d"]
    single = engine.run(spec, WORKLOAD, Deployment.single())
    parallel = engine.run(
        spec, WORKLOAD, Deployment.sharded(4, parallel=True)
    )
    assert parallel.ledger == single.ledger
    assert parallel.final_answer == single.final_answer


def test_spatial_transport_accepts_zero_delay_latency():
    engine = Engine()
    spec = SPATIAL_SPECS["zt-rp-2d"]
    sequential = engine.run(
        spec, WORKLOAD, Deployment.sharded(2, latency=0)
    )
    parallel = engine.run(
        spec, WORKLOAD, Deployment.sharded(2, parallel=True, latency=0)
    )
    assert parallel.ledger == sequential.ledger
    assert parallel.final_answer == sequential.final_answer


def test_nonzero_latency_is_accepted_and_steps_the_plane():
    # Regression: nonzero models used to be rejected up front with a
    # "zero-delay channels" ValueError.  They now construct, replay,
    # and account their deferred deliveries on the in-flight plane.
    from repro.server.transport import SpatialTransportShardedServer

    trace = WORKLOAD.materialize()
    protocol = SPATIAL_SPECS["rtp-2d"].build()
    server = SpatialTransportShardedServer(trace, protocol, 2, latency=0.5)
    with server:
        server.initialize(0.0)
        server.replay(horizon=trace.horizon)
        stats = server.transport_stats()
    assert stats["in_flight_deliveries"] > 0


# ----------------------------------------------------------------------
# Checking runs: coordinator-side oracle at epoch boundaries
# ----------------------------------------------------------------------
def test_spatial_checking_runs_route_through_the_transport():
    # Regression: spatial parallel+checking used to be unreachable
    # (parallel spatial raised outright).  Checks, violations, and the
    # ledger must match the sequential checking run, and the merged
    # stats must carry the transport counters (no sequential fallback).
    engine = Engine()
    spec = SPATIAL_SPECS["rtp-2d"]
    sequential = engine.run(
        spec, WORKLOAD, Deployment.sharded(4, check_every=5)
    )
    checked = engine.run(
        spec,
        WORKLOAD,
        Deployment.sharded(4, parallel=True, check_every=5),
    )
    assert "transport" in checked.extras["replay"], "fallback is gone"
    assert checked.checks == sequential.checks > 0
    assert list(checked.violations) == list(sequential.violations)
    assert checked.ledger == sequential.ledger


def test_spatial_checking_classifies_under_zero_latency():
    engine = Engine()
    spec = SPATIAL_SPECS["ft-nrp-2d"]
    sequential = engine.run(
        spec, WORKLOAD, Deployment.sharded(2, check_every=5, latency=0)
    )
    checked = engine.run(
        spec,
        WORKLOAD,
        Deployment.sharded(2, parallel=True, check_every=5, latency=0),
    )
    assert checked.checks == sequential.checks > 0
    assert list(checked.violations) == list(sequential.violations)
    assert checked.ledger == sequential.ledger


def test_spatial_checking_requires_a_query():
    from repro.server.transport import SpatialTransportShardedServer  # noqa: F401

    spec = SPATIAL_SPECS["zt-rp-2d"]
    trace = WORKLOAD.materialize()
    protocol = spec.build()
    protocol.query = None
    from repro.api.engine import _execute_transport

    with pytest.raises(ValueError, match="checking requires a query"):
        _execute_transport(
            "spatial",
            trace,
            protocol,
            None,
            None,
            Deployment.sharded(2, parallel=True, check_every=5),
            "",
        )


# ----------------------------------------------------------------------
# Vocabulary scope
# ----------------------------------------------------------------------
def test_spatial_transport_has_no_scalar_broadcast():
    from repro.server.transport import SpatialTransportShardedServer

    trace = WORKLOAD.materialize()
    protocol = SPATIAL_SPECS["rtp-2d"].build()
    server = SpatialTransportShardedServer(trace, protocol, 2)
    with pytest.raises(TypeError, match="per-stream regions"):
        server.broadcast(0.0, 1.0)


# ----------------------------------------------------------------------
# Worker crash: raise cleanly, never hang, never emit a partial ledger
# ----------------------------------------------------------------------
def test_spatial_worker_crash_raises_cleanly_without_hanging():
    from repro.server.transport import (
        SpatialTransportShardedServer,
        TransportError,
    )

    trace = WORKLOAD.materialize()
    protocol = SPATIAL_SPECS["rtp-2d"].build()
    server = SpatialTransportShardedServer(trace, protocol, 2)
    with server:
        server.initialize(0.0)
        workers = [server.bus.handle(index).process for index in range(2)]
        workers[1].terminate()
        workers[1].join(timeout=5.0)
        started = time.perf_counter()
        with pytest.raises(TransportError):
            server.replay(horizon=trace.horizon)
        # Liveness polling, not the 60 s receive deadline.
        assert time.perf_counter() - started < 30.0
    assert server.transport_stats().get("worker_busy_seconds") is None
    for process in workers:
        assert not process.is_alive()
