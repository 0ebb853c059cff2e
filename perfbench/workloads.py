"""The four benchmark workloads, built only from the public ``repro`` API.

Each workload is a ``(QuerySpec, Workload, Deployment)`` triple.  The
generator parameters, generator seed included, are fixed per workload:
they set the workload's shape (how many streams, records, dispatches and
population-wide redeploys it costs).  The benchmark's ``--seed`` draws a
relabeling of stream ids (:func:`relabel`), so every seed feeds the
program a different input of the same difficulty.  Drawing the generator
seed instead moves the message counts of ``topk-rtp``, ``tcp-range`` and
``knn2d-transport`` by 10-25% between seeds, because each of them pays
for a handful of population-wide redeploys or probe sweeps, and that
spread would swamp any regression bound.

Each workload also has ``small`` parameters: the reduced inputs the
self-test runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import (
    Deployment,
    FractionTolerance,
    QuerySpec,
    RangeQuery,
    RankTolerance,
    TopKQuery,
    Workload,
)
from repro.spatial import SpatialKnnQuery


@dataclass(frozen=True)
class BenchWorkload:
    """One named workload: what is asked, of what, on which deployment."""

    name: str
    why: str
    spec: Callable[[], QuerySpec]
    workload: Callable[[dict], Workload]
    deployment: Callable[[], Deployment]
    #: Generator parameters per size: ``full`` is the benchmark's input,
    #: ``small`` the self-test's.
    params: dict


WORKLOADS: dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload(
            name="topk-rtp",
            why=(
                "RTP top-10 on 10k streams, single server: population-wide "
                "bound redeploys make the control plane dominate"
            ),
            spec=lambda: QuerySpec(
                "rtp", TopKQuery(10), RankTolerance(k=10, r=5)
            ),
            workload=lambda p: Workload.synthetic(**p),
            deployment=Deployment.single,
            params={
                "full": {"n_streams": 10_000, "horizon": 8.0, "seed": 0},
                "small": {"n_streams": 500, "horizon": 8.0, "seed": 0},
            },
        ),
        BenchWorkload(
            name="range-init",
            why=(
                "ZT-NRP on 80k streams over 4 sequential shards: population "
                "assembly and the initial probe+deploy sweep dominate"
            ),
            spec=lambda: QuerySpec("zt-nrp", RangeQuery(400.0, 600.0)),
            workload=lambda p: Workload.synthetic(**p),
            deployment=lambda: Deployment.sharded(4),
            params={
                "full": {"n_streams": 80_000, "horizon": 1.0, "seed": 7},
                "small": {"n_streams": 4_000, "horizon": 1.0, "seed": 7},
            },
        ),
        BenchWorkload(
            name="tcp-range",
            why=(
                "FT-NRP on the Zipf-skewed TCP trace (800 streams, 303k "
                "records): the replay kernel and protocol reactions dominate"
            ),
            spec=lambda: QuerySpec(
                "ft-nrp",
                RangeQuery(400.0, 600.0),
                FractionTolerance(0.1, 0.1),
            ),
            workload=lambda p: Workload.tcp(**p),
            deployment=Deployment.single,
            params={
                "full": {
                    "n_subnets": 800,
                    "n_connections": 303_248,
                    "days": 15.0,
                    "seed": 0,
                },
                "small": {
                    "n_subnets": 200,
                    "n_connections": 20_000,
                    "days": 15.0,
                    "seed": 0,
                },
            },
        ),
        BenchWorkload(
            name="knn2d-transport",
            why=(
                "ZT-RP-2d kNN on 10k moving objects over 2 worker processes: "
                "probe sweeps and region deploys cross the shard transport"
            ),
            spec=lambda: QuerySpec(
                "zt-rp-2d", SpatialKnnQuery((500.0, 500.0), 10)
            ),
            workload=lambda p: Workload.moving_objects(**p),
            deployment=lambda: Deployment.sharded(2, parallel=True),
            params={
                "full": {"n_objects": 10_000, "horizon": 4.0, "seed": 0},
                "small": {"n_objects": 600, "horizon": 4.0, "seed": 0},
            },
        ),
    )
}

SIZES = ("full", "small")


def make_workload(bench: BenchWorkload, size: str) -> Workload:
    """A fresh, not yet materialized workload value."""
    return bench.workload(dict(bench.params[size]))


def relabel(trace, seed: int):
    """*trace* with its stream ids permuted by a permutation drawn from *seed*.

    Stream ``i`` of the input becomes stream ``perm[i]``: its initial
    value or point moves to row ``perm[i]`` and every record of it is
    re-addressed.  Record order, times and payloads are unchanged.
    """
    perm = np.random.default_rng(seed).permutation(trace.n_streams)
    scalar = hasattr(trace, "initial_values")
    column = "initial_values" if scalar else "initial_points"
    initial = getattr(trace, column)
    moved = np.empty_like(initial)
    moved[perm] = initial
    return dataclasses.replace(
        trace,
        **{column: moved, "stream_ids": perm[trace.stream_ids]},
        metadata={**trace.metadata, "relabel_seed": seed},
    )
