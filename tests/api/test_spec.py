"""Validation and value-semantics of the declarative vocabulary."""

import pytest

from repro.api import PROTOCOLS, Deployment, QuerySpec, Workload
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.tolerance.rank_tolerance import RankTolerance


# ----------------------------------------------------------------------
# QuerySpec
# ----------------------------------------------------------------------
def test_query_spec_rejects_unknown_protocol():
    with pytest.raises(ValueError, match="unknown protocol"):
        QuerySpec(protocol="nope", query=RangeQuery(0.0, 1.0))


def test_query_spec_normalizes_protocol_case():
    spec = QuerySpec(protocol="ZT-NRP", query=RangeQuery(0.0, 1.0))
    assert spec.protocol == "zt-nrp"
    assert spec.stack == "streams"


def test_query_spec_requires_query():
    with pytest.raises(ValueError, match="requires a query"):
        QuerySpec(protocol="zt-nrp", query=None)


def test_query_spec_tolerance_required_for_tolerant_protocols():
    spec = QuerySpec(protocol="rtp", query=TopKQuery(k=3))
    with pytest.raises(ValueError, match="requires a tolerance"):
        spec.build()


def _queries_and_tolerances():
    from repro.queries.knn import KMinQuery, KnnQuery
    from repro.spatial.geometry import BoxRegion
    from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
    from repro.tolerance.fraction_tolerance import FractionTolerance

    queries = [
        RangeQuery(0.0, 1.0),
        TopKQuery(k=3),
        KMinQuery(k=3),
        KnnQuery(q=0.5, k=3),
        SpatialRangeQuery(BoxRegion((0.0, 0.0), (1.0, 1.0))),
        SpatialKnnQuery((0.5, 0.5), 3),
    ]
    tolerances = [FractionTolerance(0.2, 0.2), RankTolerance(k=3, r=2)]
    return queries, tolerances


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_query_spec_checks_query_and_tolerance_types(name):
    """Every protocol accepts exactly its PROTOCOLS entry's query and
    tolerance types (a rank tolerance only with a rank query); anything
    else fails at construction, naming the protocol and what it got."""
    from repro.queries.base import RankBasedQuery
    from repro.spatial.queries import SpatialKnnQuery

    entry = PROTOCOLS[name]
    options = {"eps": 10.0} if name == "value-eps" else {}
    queries, tolerances = _queries_and_tolerances()
    good = [q for q in queries if isinstance(q, entry.queries)]
    bad = [q for q in queries if not isinstance(q, entry.queries)]
    assert good and bad
    for query in good:
        assert QuerySpec(name, query, options=options).query is query
        ranked = isinstance(query, (RankBasedQuery, SpatialKnnQuery))
        for tolerance in tolerances:
            if isinstance(tolerance, entry.tolerances) and (
                ranked or not isinstance(tolerance, RankTolerance)
            ):
                QuerySpec(name, query, tolerance, options=options)
                continue
            with pytest.raises(ValueError) as error:
                QuerySpec(name, query, tolerance, options=options)
            message = str(error.value)
            assert repr(name) in message
            assert type(tolerance).__name__ in message
            if not isinstance(tolerance, entry.tolerances):
                assert all(t.__name__ in message for t in entry.tolerances)
    for query in bad:
        with pytest.raises(ValueError) as error:
            QuerySpec(name, query, options=options)
        message = str(error.value)
        assert repr(name) in message
        assert type(query).__name__ in message
        assert all(t.__name__ in message for t in entry.queries)


def test_query_spec_rejects_the_mismatches_that_used_to_fail_mid_run():
    from repro.tolerance.fraction_tolerance import FractionTolerance

    with pytest.raises(ValueError, match="'zt-rp' got a RangeQuery query"):
        QuerySpec("zt-rp", RangeQuery(400.0, 600.0))
    with pytest.raises(ValueError, match="'ft-rp' got a RankTolerance"):
        QuerySpec("ft-rp", TopKQuery(10), RankTolerance(k=10, r=5))
    QuerySpec("ft-rp", TopKQuery(10), FractionTolerance(0.2, 0.2))
    with pytest.raises(ValueError, match="rank tolerance needs a rank-based"):
        QuerySpec("no-filter", RangeQuery(0.0, 1.0), RankTolerance(k=3, r=2))


def test_query_spec_builds_fresh_instances():
    spec = QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=3),
        tolerance=RankTolerance(k=3, r=2),
    )
    first, second = spec.build(), spec.build()
    assert first is not second
    assert first.name == "RTP"


def test_query_spec_value_eps_requires_eps_option():
    with pytest.raises(ValueError, match="eps"):
        QuerySpec(protocol="value-eps", query=TopKQuery(k=3))
    spec = QuerySpec(
        protocol="value-eps", query=TopKQuery(k=3), options={"eps": 10.0}
    )
    assert spec.stack == "valuebased"


def test_query_spec_options_flow_to_protocol():
    spec = QuerySpec(
        protocol="rtp",
        query=TopKQuery(k=3),
        tolerance=RankTolerance(k=3, r=2),
        options={"expand_search": False},
    )
    assert spec.build().expand_search is False


def test_spatial_protocol_names_map_to_spatial_stack():
    from repro.spatial.geometry import BoxRegion
    from repro.spatial.queries import SpatialRangeQuery

    spec = QuerySpec(
        protocol="zt-nrp-2d",
        query=SpatialRangeQuery(BoxRegion((0.0, 0.0), (1.0, 1.0))),
    )
    assert spec.stack == "spatial"
    assert spec.build().name == "ZT-NRP-2d"


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def test_workload_materialize_caches_and_is_deterministic():
    workload = Workload.synthetic(n_streams=20, horizon=30.0, seed=5)
    first = workload.materialize()
    assert workload.materialize() is first
    again = Workload.synthetic(n_streams=20, horizon=30.0, seed=5)
    assert (again.materialize().values == first.values).all()


def test_workload_equality_survives_materialization():
    # The cached trace is derived state: it must not participate in
    # equality (ndarray comparison inside __eq__ would also raise).
    a = Workload.synthetic(n_streams=10, horizon=5.0, seed=1)
    b = Workload.synthetic(n_streams=10, horizon=5.0, seed=1)
    assert a == b
    a.materialize()
    assert a == b
    b.materialize()
    assert a == b
    assert a != Workload.synthetic(n_streams=10, horizon=5.0, seed=2)


def test_workload_from_trace_wraps_verbatim():
    trace = Workload.synthetic(n_streams=5, horizon=10.0, seed=0).materialize()
    assert Workload.from_trace(trace).materialize() is trace


def test_workload_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        Workload(kind="csv")
    with pytest.raises(ValueError, match="trace"):
        Workload(kind="trace")


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
def test_deployment_constructors_and_describe():
    assert Deployment.single().describe() == "single"
    assert Deployment.sharded(4).describe() == "sharded(4)"


def test_deployment_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="one of"):
        Deployment(topology="mesh")
    with pytest.raises(ValueError, match="exactly one shard"):
        Deployment(topology="single", n_shards=3)
    with pytest.raises(ValueError, match="n_shards >= 2"):
        Deployment.sharded(1)
    with pytest.raises(TypeError, match="int"):
        Deployment.sharded(True)


def test_deployment_validates_replay_and_checking_knobs_eagerly():
    with pytest.raises(ValueError, match="replay_mode"):
        Deployment.single(replay_mode="fast")
    with pytest.raises(ValueError, match="batch_size"):
        Deployment.single(batch_size=0)
    with pytest.raises(ValueError, match="check_every"):
        Deployment.single(check_every=-1)


def test_deployment_knobs_compare_by_value():
    deployment = Deployment.single(
        replay_mode="event", batch_size=128, check_every=3, strict=True
    )
    assert (deployment.replay_mode, deployment.batch_size) == ("event", 128)
    assert (deployment.check_every, deployment.strict) == (3, True)
    rebuilt = Deployment(
        replay_mode="event", batch_size=128, check_every=3, strict=True
    )
    assert rebuilt == deployment


def test_with_checking_returns_updated_copy():
    base = Deployment.sharded(2)
    checked = base.with_checking(5)
    assert checked.check_every == 5 and checked.n_shards == 2
    assert base.check_every == 0
