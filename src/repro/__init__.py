"""Adaptive stream filters for entity-based queries with non-value tolerance.

A from-scratch reproduction of Cheng, Kao, Prabhakar, Kwan and Tu,
"Adaptive Stream Filters for Entity-based Queries with Non-Value
Tolerance", VLDB 2005.

All four execution stacks — the paper's scalar filters
(``repro.streams``), the spatial generalization (``repro.spatial``), the
Olston-style value windows (``repro.valuebased``) and the shared
multi-query engine (``repro.multiquery``) — run on one runtime kernel,
``repro.runtime``: a generic membership-flip source
(:class:`~repro.runtime.source.FilteredSource` parameterized by a
:class:`~repro.runtime.membership.MembershipStrategy`) and a single
assembly/replay core (:class:`~repro.runtime.session.ExecutionSession`)
with a vectorized batched fast path for runs without correctness
checking.  Parameter sweeps (:func:`run_grid`, :func:`sweep_values`)
optionally fan out over a process pool.

Execution entry is the declarative facade ``repro.api``: a run is a
value — :class:`~repro.api.QuerySpec` (query + tolerance + protocol),
:class:`~repro.api.Workload` (trace parameters) and
:class:`~repro.api.Deployment` (topology, replay mode, checking) —
compiled by an :class:`~repro.api.Engine` into an executable plan and
returning one unified :class:`~repro.api.RunReport`.  The deployment
axis includes a sharded topology (``Deployment.sharded(n)``: per-shard
state tables and servers behind a k-way-merge coordinator) whose
message ledgers are byte-identical to the single-server run.

Quickstart
----------
>>> from repro import (
...     Deployment, Engine, FractionTolerance, QuerySpec, RangeQuery,
...     Workload,
... )
>>> report = Engine().run(
...     QuerySpec(
...         protocol="ft-nrp",
...         query=RangeQuery(400.0, 600.0),
...         tolerance=FractionTolerance(eps_plus=0.2, eps_minus=0.2),
...     ),
...     Workload.synthetic(n_streams=100, horizon=200.0, seed=7),
...     Deployment.single(check_every=1),
... )
>>> report.tolerance_ok
True

Scaling out is one argument change: ``Deployment.sharded(4)``.

See ``examples/`` for richer scenarios and ``repro.experiments`` for the
paper's figures.
"""

from repro.api import (
    Deployment,
    Engine,
    QuerySpec,
    RunReport,
    Workload,
    run_grid,
    sweep_values,
)
from repro.correctness import Oracle, ToleranceChecker
from repro.harness import format_series, format_table
from repro.network import (
    ExponentialLatency,
    FixedLatency,
    LatencyChannel,
    MessageKind,
    MessageLedger,
    SynchronousChannel,
    UniformLatency,
)
from repro.protocols import (
    BoundaryNearestSelection,
    FilterProtocol,
    FractionToleranceKnnProtocol,
    FractionToleranceRangeProtocol,
    NoFilterProtocol,
    RandomSelection,
    RankToleranceProtocol,
    ZeroToleranceKnnProtocol,
    ZeroToleranceRangeProtocol,
)
from repro.queries import (
    KMinQuery,
    KnnQuery,
    RangeQuery,
    TopKQuery,
)
from repro.runtime import (
    ExecutionSession,
    FilteredSource,
    MembershipStrategy,
)
from repro.server import Server, ShardedServer
from repro.sim import SimulationEngine
from repro.state import (
    RankView,
    ShardedRankView,
    SilencerPools,
    StateShardView,
    StreamStateTable,
)
from repro.streams import (
    FilterConstraint,
    StreamSource,
    StreamTrace,
    SyntheticConfig,
    TcpTraceConfig,
    TraceRecord,
    generate_synthetic_trace,
    generate_tcp_trace,
)
from repro.tolerance import (
    FractionTolerance,
    RankTolerance,
    RhoPolicy,
    answer_size_bounds,
    derive_rho,
)

__version__ = "2.0.0"

__all__ = [
    "__version__",
    "answer_size_bounds",
    "BoundaryNearestSelection",
    "Deployment",
    "derive_rho",
    "Engine",
    "ExecutionSession",
    "ExponentialLatency",
    "FilterConstraint",
    "FilteredSource",
    "FilterProtocol",
    "FixedLatency",
    "format_series",
    "format_table",
    "FractionTolerance",
    "FractionToleranceKnnProtocol",
    "FractionToleranceRangeProtocol",
    "generate_synthetic_trace",
    "generate_tcp_trace",
    "KMinQuery",
    "KnnQuery",
    "LatencyChannel",
    "MembershipStrategy",
    "MessageKind",
    "MessageLedger",
    "NoFilterProtocol",
    "Oracle",
    "QuerySpec",
    "RandomSelection",
    "RangeQuery",
    "RankTolerance",
    "RankToleranceProtocol",
    "RankView",
    "RhoPolicy",
    "run_grid",
    "RunReport",
    "Server",
    "ShardedRankView",
    "ShardedServer",
    "SilencerPools",
    "SimulationEngine",
    "StateShardView",
    "StreamSource",
    "StreamStateTable",
    "StreamTrace",
    "sweep_values",
    "SynchronousChannel",
    "SyntheticConfig",
    "TcpTraceConfig",
    "ToleranceChecker",
    "TopKQuery",
    "TraceRecord",
    "UniformLatency",
    "Workload",
    "ZeroToleranceKnnProtocol",
    "ZeroToleranceRangeProtocol",
]
