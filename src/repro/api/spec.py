"""The declarative vocabulary: a run is a value.

Three frozen dataclasses describe everything about a run *before* any
execution machinery exists:

* :class:`QuerySpec` — *what* is asked: the standing query, the
  tolerance, and which protocol exploits it.
* :class:`Workload` — *what happens*: a replayable trace, either given
  directly or described by generator parameters and materialized
  lazily (and cached, so one ``Workload`` value feeds many runs with
  the identical record sequence — the paper's same-trace comparison
  discipline for free).
* :class:`Deployment` — *where and how*: the physical topology
  (``single()`` or ``sharded(n)``), the replay mode, correctness
  checking, and process parallelism.

The :class:`~repro.api.engine.Engine` compiles a ``(spec, workload,
deployment)`` triple into an executable plan; protocol and trace
construction happen lazily at build/materialize time, so specs are
cheap to construct, compare by value, and ship across process
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, NamedTuple

from repro.network.latency import as_latency_model
from repro.queries.base import NonRankBasedQuery, RankBasedQuery
from repro.runtime.session import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_MIN_CHUNK,
    REPLAY_MODES,
)
from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

#: Stack identifiers (which execution assembly a protocol runs on).
STACK_STREAMS = "streams"
STACK_SPATIAL = "spatial"
STACK_VALUEBASED = "valuebased"

TOPOLOGIES = ("single", "sharded")


def _build_streams(name: str) -> Callable:
    def build(spec: "QuerySpec"):
        from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
        from repro.protocols.ft_rp import FractionToleranceKnnProtocol
        from repro.protocols.no_filter import NoFilterProtocol
        from repro.protocols.rtp import RankToleranceProtocol
        from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
        from repro.protocols.zt_rp import ZeroToleranceKnnProtocol

        options = dict(spec.options)
        if name == "no-filter":
            return NoFilterProtocol(spec.query)
        if name == "zt-nrp":
            return ZeroToleranceRangeProtocol(spec.query)
        if name == "zt-rp":
            return ZeroToleranceKnnProtocol(spec.query)
        if name == "rtp":
            return RankToleranceProtocol(
                spec.query, spec.require_tolerance(), **options
            )
        if name == "ft-nrp":
            return FractionToleranceRangeProtocol(
                spec.query, spec.require_tolerance(), **options
            )
        assert name == "ft-rp"
        return FractionToleranceKnnProtocol(
            spec.query, spec.require_tolerance(), **options
        )

    return build


def _build_spatial(name: str) -> Callable:
    def build(spec: "QuerySpec"):
        from repro.spatial.protocols import (
            SpatialFractionKnnProtocol,
            SpatialFractionRangeProtocol,
            SpatialNoFilterProtocol,
            SpatialRankToleranceProtocol,
            SpatialZeroKnnProtocol,
            SpatialZeroRangeProtocol,
        )

        options = dict(spec.options)
        if name == "no-filter-2d":
            return SpatialNoFilterProtocol(spec.query)
        if name == "zt-nrp-2d":
            return SpatialZeroRangeProtocol(spec.query)
        if name == "zt-rp-2d":
            return SpatialZeroKnnProtocol(spec.query)
        if name == "rtp-2d":
            return SpatialRankToleranceProtocol(
                spec.query, spec.require_tolerance(), **options
            )
        if name == "ft-nrp-2d":
            return SpatialFractionRangeProtocol(
                spec.query, spec.require_tolerance(), **options
            )
        assert name == "ft-rp-2d"
        return SpatialFractionKnnProtocol(
            spec.query, spec.require_tolerance(), **options
        )

    return build


class ProtocolEntry(NamedTuple):
    """One :data:`PROTOCOLS` row: the stack, the builder, and the query
    and tolerance types the protocol accepts."""

    stack: str
    build: Callable | None
    queries: tuple[type, ...]
    tolerances: tuple[type, ...]


def _protocol_table() -> dict[str, ProtocolEntry]:
    fraction, rank = (FractionTolerance,), (RankTolerance,)
    table = {}
    for suffix, stack, builder, range_q, rank_q in (
        ("", STACK_STREAMS, _build_streams, NonRankBasedQuery, RankBasedQuery),
        ("-2d", STACK_SPATIAL, _build_spatial, SpatialRangeQuery,
         SpatialKnnQuery),
    ):
        # Exact protocols take a tolerance only for checking.
        for name, queries, tolerances in (
            ("no-filter", (range_q, rank_q), fraction + rank),
            ("zt-nrp", (range_q,), fraction),
            ("ft-nrp", (range_q,), fraction),
            ("rtp", (rank_q,), rank),
            ("zt-rp", (rank_q,), fraction + rank),
            ("ft-rp", (rank_q,), fraction),
        ):
            name += suffix
            table[name] = ProtocolEntry(
                stack, builder(name), queries, tolerances
            )
    table["value-eps"] = ProtocolEntry(
        STACK_VALUEBASED, None, (RankBasedQuery,), ()
    )
    return table


#: Protocol name -> :class:`ProtocolEntry`.  Names are the paper's,
#: lowercased; ``-2d`` marks the spatial generalizations and
#: ``value-eps`` the Olston-style value-window scheme Figure 1 compares
#: against.  A spec may omit the tolerance; a tolerance-exploiting
#: protocol then fails in :meth:`QuerySpec.build`, naming what is missing.
PROTOCOLS = _protocol_table()


def _accepted(value, types: tuple[type, ...], what: str, name: str) -> None:
    if isinstance(value, types):
        return
    names = " | ".join(t.__name__ for t in types) or "none"
    raise ValueError(
        f"protocol {name!r} got a {type(value).__name__} {what}; "
        f"it accepts {names}"
    )


@dataclass(frozen=True)
class QuerySpec:
    """One standing query plus the protocol chosen to serve it.

    Attributes
    ----------
    protocol:
        Protocol name (see :data:`PROTOCOLS`): ``"rtp"``, ``"zt-nrp"``,
        ``"ft-nrp"``, ``"zt-rp"``, ``"ft-rp"``, ``"no-filter"``, their
        ``-2d`` spatial variants, or ``"value-eps"``.
    query:
        The standing query object (``RangeQuery``, ``TopKQuery``,
        ``KnnQuery``, ``KMinQuery``, or a spatial query).
    tolerance:
        ``RankTolerance`` / ``FractionTolerance``; required by the
        tolerance-exploiting protocols, optional (checking-only) for the
        exact ones.
    options:
        Protocol-specific keyword options (e.g. ``selection=`` for
        FT-NRP, ``expand_search=False`` for RTP ablations,
        ``eps=50.0`` for ``value-eps``).
    """

    protocol: str
    query: Any
    tolerance: Any = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        name = str(self.protocol).lower()
        if name not in PROTOCOLS:
            known = ", ".join(sorted(PROTOCOLS))
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose one of: {known}"
            )
        object.__setattr__(self, "protocol", name)
        if self.query is None:
            raise ValueError("QuerySpec requires a query")
        if name == "value-eps" and "eps" not in self.options:
            raise ValueError("value-eps requires options={'eps': <width>}")
        entry = PROTOCOLS[name]
        _accepted(self.query, entry.queries, "query", name)
        if self.tolerance is not None:
            _accepted(self.tolerance, entry.tolerances, "tolerance", name)
        if isinstance(self.tolerance, RankTolerance) and not isinstance(
            self.query, (RankBasedQuery, SpatialKnnQuery)
        ):
            raise ValueError(
                f"protocol {name!r} got a RankTolerance for a "
                f"{type(self.query).__name__} query; a rank tolerance "
                "needs a rank-based query"
            )

    @property
    def stack(self) -> str:
        """Which execution stack serves this spec."""
        return PROTOCOLS[self.protocol].stack

    def require_tolerance(self):
        if self.tolerance is None:
            raise ValueError(
                f"protocol {self.protocol!r} requires a tolerance"
            )
        return self.tolerance

    def build(self):
        """A fresh protocol instance (protocols are single-use)."""
        builder = PROTOCOLS[self.protocol].build
        if builder is None:
            raise TypeError(
                f"{self.protocol!r} has no protocol object; the engine "
                "runs it directly"
            )
        return builder(self)


@dataclass(frozen=True)
class Workload:
    """A replayable trace, given directly or described by parameters.

    Use the constructors — :meth:`from_trace`, :meth:`synthetic`,
    :meth:`tcp`, :meth:`moving_objects` — rather than ``__init__``.
    ``materialize()`` generates (once, cached) and returns the trace;
    generation is deterministic in the parameters, so equal workload
    values always produce identical record sequences.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    # The cached trace is derived state: it must not participate in
    # equality (two equal-parameter workloads stay equal after one
    # materializes — and ndarray comparison would raise in __eq__).
    trace: Any = field(default=None, compare=False, repr=False)

    _KINDS = ("trace", "synthetic", "tcp", "moving_objects")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"workload kind must be one of {self._KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "trace" and self.trace is None:
            raise ValueError("kind='trace' requires a trace object")

    @classmethod
    def from_trace(cls, trace) -> "Workload":
        """Wrap an already-materialized trace."""
        return cls(kind="trace", trace=trace)

    @classmethod
    def synthetic(cls, **params) -> "Workload":
        """The Section-6.2 synthetic model; params as
        :class:`repro.streams.synthetic.SyntheticConfig`."""
        return cls(kind="synthetic", params=dict(params))

    @classmethod
    def tcp(cls, **params) -> "Workload":
        """The TCP connection workload; params as
        :class:`repro.streams.tcp.TcpTraceConfig`."""
        return cls(kind="tcp", params=dict(params))

    @classmethod
    def moving_objects(cls, **params) -> "Workload":
        """The spatial moving-objects workload; params as
        :class:`repro.spatial.workloads.MovingObjectsConfig`."""
        return cls(kind="moving_objects", params=dict(params))

    def materialize(self):
        """The trace (generated on first call, then cached)."""
        if self.trace is not None:
            return self.trace
        if self.kind == "synthetic":
            from repro.streams.synthetic import (
                SyntheticConfig,
                generate_synthetic_trace,
            )

            trace = generate_synthetic_trace(SyntheticConfig(**self.params))
        elif self.kind == "tcp":
            from repro.streams.tcp import TcpTraceConfig, generate_tcp_trace

            trace = generate_tcp_trace(TcpTraceConfig(**self.params))
        else:
            assert self.kind == "moving_objects"
            from repro.spatial.workloads import (
                MovingObjectsConfig,
                generate_moving_objects_trace,
            )

            trace = generate_moving_objects_trace(
                MovingObjectsConfig(**self.params)
            )
        object.__setattr__(self, "trace", trace)
        return trace


@dataclass(frozen=True)
class Deployment:
    """The physical shape of a run.

    Attributes
    ----------
    topology:
        ``"single"`` — the paper's one logical server — or
        ``"sharded"`` — the population partitioned into ``n_shards``
        contiguous ranges behind per-shard servers with a k-way-merge
        coordinator (rank-query ledger semantics unchanged; see
        ``repro.server.sharded``).  Every stack shards: the scalar
        protocols, the value-window scheme, and — via the geometric
        quiescence planes — the spatial ``-2d`` protocols.
    n_shards:
        Shard count (``>= 1``; must be ``>= 2`` for ``sharded``).
    replay_mode:
        ``"auto"`` uses the vectorized batched fast path whenever no
        correctness checking is active and falls back to faithful
        per-event replay otherwise; ``"event"`` forces the per-event
        path.  ``"batch"`` requests the fast path unconditionally but
        still downgrades (silently) to per-event replay where batching
        is unsound, so forcing it can never change results, only speed.
        All paths produce identical message ledgers: batching only skips
        records that provably cannot flip any filter.
    batch_size:
        Chunk size of the batched quiescence pre-scan.
    min_chunk:
        Floor of the batched replay's adaptive chunk heuristic: lively
        stretches shrink the scan window, but never below this many
        records per pre-scan.  ``batch_size`` still caps every scan.
    check_every, strict:
        Validate tolerance every N-th applied record (``0`` disables
        checking; ``1`` checks after every record; checking forces
        per-event replay).  ``strict`` raises on the first violation
        instead of recording it.
    parallel, max_workers:
        Process parallelism.  Under ``sharded``, protocols whose
        maintenance needs no server feedback (``decomposable_maintenance``)
        replay their shards concurrently on a process pool; coupled
        protocols run on the shard transport — worker processes behind
        an epoch-stepped coordinator message bus
        (``repro/server/transport.py``) with ledgers byte-identical to
        sequential sharded serving.  The transport speaks both the
        scalar vocabulary (RTP, ZT-RP, FT-RP, FT-NRP: probe/constraint
        intervals) and the spatial one (the ``-2d`` protocols: point
        frames and region-constraint frames scattered into the
        geometric plane), and checking runs (``check_every > 0``)
        route through it with coordinator-side oracle probes at epoch
        boundaries.  Sweeps fan combinations out regardless of
        topology.  Latency models compose with ``parallel=True``:
        messages whose modeled delivery falls between transport epochs
        ride the coordinator's in-flight plane (``repro/server/
        transport.py``), which merges every worker's pending heap under
        the channel's own ``(delivery time, send seq)`` discipline, so
        the parallel ledger stays byte-identical to sequential sharded
        serving under the same model.
    latency:
        The channel delivery discipline.  ``None`` (default) is the
        paper's synchronous channel; a non-negative number is a
        symmetric fixed delay; a :class:`repro.network.latency.
        LatencyModel` (``FixedLatency``, ``UniformLatency``,
        ``ExponentialLatency``) gives per-direction / distributional
        delays.  ``latency=0`` deliberately compiles to the
        latency-modeled channel with inline delivery — the
        differential-testing configuration proven byte-identical to the
        synchronous channel.  With checking enabled, a latency-modeled
        run classifies each violation as inherent-to-latency vs a
        protocol bug (DESIGN.md §8) — on the scalar and spatial stacks
        alike.  ``parallel=True`` composes on every sharded path:
        decomposable protocols fan out (each worker drains its own
        engine; decomposable sources decide reports locally, so
        delivery timing never changes the message multiset), and
        coupled protocols run the shard transport with in-flight
        deliveries stepped on the coordinator's merged plane.
        Unsupported only for the multi-query stack, whose coordinator
        bypasses the channel.
    durable:
        ``None`` (default) or a :class:`repro.durability.policy.
        DurabilityPolicy`: the run keeps a write-ahead journal (and,
        per the policy, periodic snapshots and memmap-backed state
        planes) under the policy's run directory, recoverable to a
        byte-identical message ledger after a crash.  Scalar single and
        sharded stacks only; the incompatible knob combinations —
        ``parallel=True`` (worker processes own the sources, so one
        journal cannot observe their charges), a latency model (the
        engine queue is never empty between segments, so no consistent
        snapshot cut exists yet), and ``check_every > 0`` (oracle
        callbacks are not journaled) — are rejected here, at
        construction.
    """

    topology: str = "single"
    n_shards: int = 1
    replay_mode: str = "auto"
    batch_size: int = DEFAULT_BATCH_SIZE
    min_chunk: int = DEFAULT_MIN_CHUNK
    check_every: int = 0
    strict: bool = False
    parallel: bool = False
    max_workers: int | None = None
    latency: Any = None
    durable: Any = None

    def __post_init__(self) -> None:
        # Reject wrong shapes eagerly and loudly: a malformed knob that
        # slips through here surfaces far downstream as a silently wrong
        # replay path or an opaque numpy error mid-replay.
        for knob, low in (
            ("check_every", 0), ("batch_size", 1), ("min_chunk", 1)
        ):
            value = getattr(self, knob)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(
                    f"{knob} must be an int, got {type(value).__name__}"
                )
            if value < low:
                hint = " (0 disables checking)" if low == 0 else ""
                raise ValueError(f"{knob} must be >= {low}{hint}, got {value}")
        if not isinstance(self.replay_mode, str):
            raise TypeError(
                f"replay_mode must be a str, got "
                f"{type(self.replay_mode).__name__}"
            )
        if self.replay_mode not in REPLAY_MODES:
            raise ValueError(
                f"replay_mode must be one of {REPLAY_MODES}, "
                f"got {self.replay_mode!r}"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        if not isinstance(self.n_shards, int) or isinstance(
            self.n_shards, bool
        ):
            raise TypeError("n_shards must be an int")
        if self.topology == "single" and self.n_shards != 1:
            raise ValueError("single topology runs exactly one shard")
        if self.topology == "sharded" and self.n_shards < 2:
            raise ValueError(
                "sharded topology needs n_shards >= 2 "
                "(use Deployment.single() for one server)"
            )
        # Normalize the latency knob to a model (or None) up front, so
        # invalid values fail at construction and equal deployments
        # compare equal whether built from a number or a model.
        object.__setattr__(self, "latency", as_latency_model(self.latency))
        if self.durable is not None:
            from repro.durability.policy import DurabilityPolicy

            if not isinstance(self.durable, DurabilityPolicy):
                raise TypeError(
                    "durable must be a DurabilityPolicy (or None), got "
                    f"{type(self.durable).__name__}"
                )
            if self.parallel:
                raise ValueError(
                    "durable runs do not support parallel=True: worker "
                    "processes own the sources, so a single write-ahead "
                    "journal cannot observe their ledger charges; drop "
                    "parallel or the durability policy"
                )
            if self.latency is not None:
                raise ValueError(
                    "durable runs do not support a latency model: with "
                    "messages in flight the engine queue is never empty "
                    "between segments, so no consistent snapshot cut "
                    "exists; drop latency or the durability policy"
                )
            if self.check_every > 0:
                raise ValueError(
                    "durable runs do not support check_every > 0: oracle "
                    "callbacks are not journaled, so a recovered run "
                    "could not reproduce the checker's observations; "
                    "check the same spec in a separate non-durable run"
                )

    @classmethod
    def single(cls, **knobs) -> "Deployment":
        """One logical server (the paper's Figure-3 system)."""
        return cls(topology="single", n_shards=1, **knobs)

    @classmethod
    def sharded(cls, n_shards: int, **knobs) -> "Deployment":
        """``n_shards`` shard servers behind a merging coordinator."""
        return cls(topology="sharded", n_shards=n_shards, **knobs)

    def with_checking(self, check_every: int, strict: bool = False):
        """A copy with a different checking cadence."""
        return replace(self, check_every=check_every, strict=strict)

    def describe(self) -> str:
        """Human-readable topology tag for reports."""
        base = (
            "single"
            if self.topology == "single"
            else f"sharded({self.n_shards})"
        )
        if self.latency is not None:
            base = f"{base}+latency"
        if self.durable is not None:
            base = f"{base}+durable"
        return base
