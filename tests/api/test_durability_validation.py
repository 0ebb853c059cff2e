"""Up-front rejection of incompatible durability knob combinations.

Every unsupported pairing must fail at :class:`Deployment` construction
(or, for stack-level mismatches, at engine dispatch) with an error that
names the conflict — never silently degrade to a non-durable run.
"""

import pytest

from repro.api import Deployment, Engine, QuerySpec, Workload
from repro.durability import DurabilityPolicy
from repro.queries.knn import TopKQuery
from repro.queries.range_query import RangeQuery
from repro.spatial.geometry import BoxRegion
from repro.spatial.queries import SpatialRangeQuery


def _policy(tmp_path) -> DurabilityPolicy:
    return DurabilityPolicy(run_dir=str(tmp_path / "run"))


def test_durable_requires_a_policy_object(tmp_path):
    with pytest.raises(TypeError, match="DurabilityPolicy"):
        Deployment.single(durable=str(tmp_path))


def test_durable_rejects_parallel_transport(tmp_path):
    with pytest.raises(ValueError, match="parallel"):
        Deployment.sharded(2, parallel=True, durable=_policy(tmp_path))


def test_durable_rejects_latency_models(tmp_path):
    with pytest.raises(ValueError, match="latency"):
        Deployment.single(latency=1.0, durable=_policy(tmp_path))


def test_durable_rejects_checking(tmp_path):
    with pytest.raises(ValueError, match="check_every"):
        Deployment.single(check_every=10, durable=_policy(tmp_path))


def test_durable_rejects_spatial_stack(tmp_path):
    spec = QuerySpec(
        protocol="zt-nrp-2d",
        query=SpatialRangeQuery(BoxRegion((400.0, 400.0), (600.0, 600.0))),
    )
    workload = Workload.moving_objects(n_objects=20, horizon=20.0, seed=1)
    with pytest.raises(ValueError, match="spatial"):
        Engine().run(spec, workload, Deployment.single(durable=_policy(tmp_path)))


def test_durable_rejects_multiquery_stack(tmp_path):
    specs = {
        "q": QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0))
    }
    workload = Workload.synthetic(n_streams=20, horizon=20.0, seed=1)
    with pytest.raises(ValueError, match="multi-query"):
        Engine().run_queries(
            specs, workload, Deployment.single(durable=_policy(tmp_path))
        )


def test_durable_rejects_value_window_stack(tmp_path):
    spec = QuerySpec(
        protocol="value-eps",
        query=TopKQuery(k=3),
        options={"eps": 50.0},
    )
    workload = Workload.synthetic(n_streams=20, horizon=20.0, seed=1)
    with pytest.raises(ValueError, match="value-window"):
        Engine().run(spec, workload, Deployment.single(durable=_policy(tmp_path)))


def test_policy_validates_its_own_knobs(tmp_path):
    with pytest.raises(ValueError, match="fsync"):
        DurabilityPolicy(run_dir=str(tmp_path), fsync="sometimes")
    with pytest.raises(ValueError, match="storage"):
        DurabilityPolicy(run_dir=str(tmp_path), storage="tape")
    with pytest.raises(ValueError, match="segment_records"):
        DurabilityPolicy(run_dir=str(tmp_path), segment_records=0)
    with pytest.raises(ValueError, match="fsync_interval"):
        DurabilityPolicy(run_dir=str(tmp_path), fsync_interval=0)
    with pytest.raises(ValueError, match="snapshot_every"):
        DurabilityPolicy(run_dir=str(tmp_path), snapshot_every=-1)


def test_durable_deployments_stay_hashable_and_describable(tmp_path):
    policy = _policy(tmp_path)
    deployment = Deployment.sharded(2, durable=policy)
    assert hash(deployment) == hash(Deployment.sharded(2, durable=policy))
    assert deployment.describe() == "sharded(2)+durable"
    assert Deployment.single().describe() == "single"


def test_mmap_policy_rejected_for_container_planes(tmp_path):
    """storage='mmap' cannot back the object-dtype containers column;
    the table refuses allocation with an actionable error."""
    from repro.state.table import StreamStateTable

    table = StreamStateTable(
        4, storage="mmap", plane_dir=str(tmp_path / "planes")
    )
    with pytest.raises(ValueError, match="mmap"):
        table._ensure_containers()
