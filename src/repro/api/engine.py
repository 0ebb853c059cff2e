"""The deployment compiler: specs in, unified reports out.

:class:`Engine` turns a ``(QuerySpec, Workload, Deployment)`` triple
into an executable plan and runs it.  Compilation is a pair of small
decisions:

1. **Assembly** — which :class:`~repro.runtime.session.ExecutionSession`
   builder matches the spec's stack and the deployment's topology
   (``for_streams`` vs ``for_streams_sharded``, etc.).
2. **Schedule** — whether the plan runs in-process or across
   processes: a sharded deployment with ``parallel=True`` replays the
   shards of a *decomposable* protocol (no server feedback during
   maintenance, e.g. ZT-NRP) on independent pool workers and merges
   the per-shard ledgers; a *coupled* protocol runs on the shard
   transport — scalar vocabularies (RTP, ZT-RP, FT-RP, FT-NRP) on
   :class:`repro.server.transport.TransportShardedServer`, spatial
   vocabularies (the ``-2d`` protocols) on
   :class:`repro.server.transport.SpatialTransportShardedServer` —
   worker processes replay their shards under an epoch-stepped
   coordinator whose ledgers are byte-identical to sequential sharded
   serving, checking runs (``check_every > 0``) included; everything
   else runs the sequential coordinator in-process.

Every executor takes the :class:`Deployment` and returns the
:class:`RunReport`; there is no other result shape.
"""

from __future__ import annotations

import copy
import time as _time
from concurrent.futures import ProcessPoolExecutor
from typing import Mapping

from repro.api.report import RunReport, build_report
from repro.api.spec import (
    STACK_SPATIAL,
    STACK_STREAMS,
    STACK_VALUEBASED,
    Deployment,
    QuerySpec,
    Workload,
)
from repro.correctness.checker import ToleranceChecker
from repro.correctness.oracle import Oracle
from repro.correctness.staleness import StalenessWindow
from repro.network.accounting import LedgerSnapshot
from repro.runtime.session import ExecutionSession
from repro.spatial.trace import SpatialTrace


def _as_workload(workload) -> Workload:
    """Accept a Workload or a bare trace object."""
    if isinstance(workload, Workload):
        return workload
    return Workload.from_trace(workload)


def _collect_extras(protocol) -> dict:
    """Harvest optional protocol-specific counters for the result row."""
    extras: dict = {}
    for attr in (
        "reinitializations",
        "recomputations",
        "expansions",
        "n_plus",
        "n_minus",
        "count",
    ):
        value = getattr(protocol, attr, None)
        if isinstance(value, (int, float)):
            extras[attr] = value
    return extras


# ----------------------------------------------------------------------
# Scalar and spatial stacks
# ----------------------------------------------------------------------
def _checker(stack, trace, protocol, query, tolerance, deployment, channels):
    """``(checker, replay hooks)`` of a run; no checker without checking.

    The hooks are the ``oracle_apply`` / ``after_apply`` replay
    callbacks.  This is the one checker assembly of every scalar and spatial executor: the
    stack supplies only its oracle and its evaluation.  Under a latency
    model the checker classifies each violation as inherent to the
    modeled staleness vs a genuine protocol bug, reading *channels* —
    the session's per-shard channels, or the transport coordinator's
    merged in-flight plane, which models the same evidence.
    """
    if deployment.check_every == 0:
        return None, {"oracle_apply": None, "after_apply": None}
    if query is None:
        query = getattr(protocol, "query", None)
    if query is None:
        raise ValueError("checking requires a query")
    staleness = None
    if deployment.latency is not None:
        staleness = StalenessWindow(channels)
    knobs = dict(
        every=deployment.check_every,
        strict=deployment.strict,
        staleness=staleness,
    )
    if stack == STACK_SPATIAL:
        from repro.spatial.oracle import (
            SpatialOracle,
            SpatialToleranceViolationError,
            evaluate_spatial,
        )

        oracle = SpatialOracle(trace.initial_points)
        # check_offset keeps the spatial stack's historical sampling
        # phase (ticks every, 2*every, ... rather than 1, 1+every, ...).
        checker = ToleranceChecker(
            oracle=None,
            query=None,
            tolerance=tolerance,
            answer_of=None,
            evaluate=lambda: evaluate_spatial(
                protocol, oracle, query, tolerance
            ),
            error_cls=SpatialToleranceViolationError,
            check_offset=deployment.check_every - 1,
            **knobs,
        )
    else:
        oracle = Oracle(trace.initial_values)
        oracle.register_query(query)
        checker = ToleranceChecker(
            oracle=oracle,
            query=query,
            tolerance=tolerance,
            answer_of=lambda: protocol.answer,
            **knobs,
        )
    return checker, {"oracle_apply": oracle.apply, "after_apply": checker.check}


def _execute(
    stack: str,
    trace,
    protocol,
    query=None,
    tolerance=None,
    deployment: Deployment | None = None,
    label: str = "",
) -> RunReport:
    """Replay *trace* against a scalar or spatial *protocol*."""
    deployment = deployment or Deployment.single()
    if deployment.durable is not None:
        if stack != STACK_STREAMS:
            raise ValueError(
                "durable deployments are not yet supported for spatial "
                "protocols: the spatial stack's object-dtype containers "
                "column cannot live in a memmap plane and its point traces "
                "have no journal record type yet; use the scalar stacks "
                "for durable runs"
            )
        # Deployment validation already rejected the incompatible knobs
        # (parallel, latency, check_every); both scalar topologies run
        # through the durable WAL loop.
        from repro.durability.runner import execute_durable_streams

        return execute_durable_streams(trace, protocol, deployment, label)
    if deployment.topology == "sharded" and deployment.parallel:
        if (
            stack == STACK_STREAMS
            and deployment.check_every == 0
            and getattr(protocol, "decomposable_maintenance", False)
        ):
            return _execute_streams_fanout(trace, protocol, deployment, label)
        # Coupled maintenance: worker processes under the epoch-stepped
        # transport coordinator, checking runs included.
        return _execute_transport(
            stack, trace, protocol, query, tolerance, deployment, label
        )
    return _execute_sequential(
        stack, trace, protocol, query, tolerance, deployment, label
    )


def _execute_sequential(
    stack, trace, protocol, query, tolerance, deployment: Deployment, label
) -> RunReport:
    """In-process replay on one server or the sharded coordinator."""
    started = _time.perf_counter()
    # Looked up by name on every run, so a patched builder is honoured.
    builder = "for_streams" if stack == STACK_STREAMS else "for_spatial"
    if deployment.topology == "sharded":
        session = getattr(ExecutionSession, builder + "_sharded")(
            trace, protocol, deployment.n_shards, latency=deployment.latency
        )
    else:
        session = getattr(ExecutionSession, builder)(
            trace, protocol, latency=deployment.latency
        )
    checker, hooks = _checker(
        stack, trace, protocol, query, tolerance, deployment,
        session.latency_channels,
    )

    session.initialize(time=0.0)
    if checker is not None:
        checker.check_now(0.0)
    session.replay_trace(
        trace,
        mode=deployment.replay_mode,
        batch_size=deployment.batch_size,
        min_chunk=deployment.min_chunk,
        **hooks,
    )

    extras = _collect_extras(protocol)
    if session.last_replay_stats is not None:
        extras["replay"] = dict(session.last_replay_stats)
    return build_report(
        stack=stack,
        deployment=deployment,
        trace=trace,
        protocol=protocol.name,
        ledger=session.snapshot(),
        started=started,
        label=label,
        checker=checker,
        extras=extras,
        final_answer=protocol.answer,
    )


def _restrict_to_shard(trace, lo: int, hi: int):
    """The shard's sub-trace, re-indexed to local stream ids."""
    from repro.streams.trace import StreamTrace

    keep = (trace.stream_ids >= lo) & (trace.stream_ids < hi)
    return StreamTrace(
        initial_values=trace.initial_values[lo:hi].copy(),
        times=trace.times[keep],
        stream_ids=trace.stream_ids[keep] - lo,
        values=trace.values[keep],
        horizon=trace.horizon,
        metadata={**trace.metadata, "shard": (lo, hi)},
    )


def _shard_replay_worker(job):
    """One shard's independent replay (runs in a pool worker).

    Valid only for decomposable protocols: maintenance sends nothing
    server-to-source, so the shard's message sequence depends only on
    its own records and the merged per-shard ledgers equal the
    single-server ledger exactly.  A latency model rides along (frozen
    dataclasses pickle): each worker drains its own engine, and since
    decomposable sources decide reports locally at record time, delivery
    timing never changes which messages are sent.
    """
    shard_trace, protocol, replay_mode, batch_size, min_chunk, lo, latency = (
        job
    )
    session = ExecutionSession.for_streams(shard_trace, protocol, latency=latency)
    session.initialize(time=0.0)
    session.replay_trace(
        shard_trace, mode=replay_mode, batch_size=batch_size,
        min_chunk=min_chunk,
    )
    answer = frozenset(int(i) + lo for i in protocol.answer)
    extras = _collect_extras(protocol)
    if session.last_replay_stats is not None:
        extras["replay"] = dict(session.last_replay_stats)
    return session.snapshot(), answer, extras


def _merge_replay_stats(parts: list[dict]) -> dict:
    """Fold per-shard replay stats into one fleet-level stats dict.

    Counters sum; the mode/kernel labels collapse to ``"mixed"`` when
    the shards disagree (e.g. one shard bailed to per-event while the
    rest stayed on the run kernel); a bailout position is the earliest
    any shard bailed, ``None`` when none did.
    """
    merged = {
        key: sum(int(part.get(key, 0)) for part in parts)
        for key in (
            "records",
            "dispatches",
            "staged",
            "columnar_reports",
            "chunk_scans",
            "suffix_rescans",
            "broadcast_truncations",
            "inflight_truncations",
        )
    }
    for label in ("mode", "kernel"):
        seen = {part.get(label) for part in parts}
        merged[label] = seen.pop() if len(seen) == 1 else "mixed"
    bailouts = [
        part["dispatch_bailout_at"]
        for part in parts
        if part.get("dispatch_bailout_at") is not None
    ]
    merged["dispatch_bailout_at"] = min(bailouts) if bailouts else None
    merged["workers"] = len(parts)
    return merged


def _merge_snapshots(parts: list[LedgerSnapshot]) -> LedgerSnapshot:
    initialization: dict = {}
    maintenance: dict = {}
    for part in parts:
        for kind, count in part.initialization.items():
            initialization[kind] = initialization.get(kind, 0) + count
        for kind, count in part.maintenance.items():
            maintenance[kind] = maintenance.get(kind, 0) + count
    return LedgerSnapshot(
        initialization=initialization, maintenance=maintenance
    )


def _execute_streams_fanout(
    trace, protocol, deployment: Deployment, label: str
) -> RunReport:
    """Sharded + parallel replay of a decomposable protocol."""
    from repro.state.sharding import shard_ranges

    started = _time.perf_counter()
    ranges = shard_ranges(trace.n_streams, deployment.n_shards)
    jobs = [
        (
            _restrict_to_shard(trace, lo, hi),
            copy.deepcopy(protocol),
            deployment.replay_mode,
            deployment.batch_size,
            deployment.min_chunk,
            lo,
            deployment.latency,
        )
        for lo, hi in ranges
    ]
    max_workers = deployment.max_workers or len(ranges)
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        parts = list(pool.map(_shard_replay_worker, jobs))

    answer: frozenset[int] = frozenset()
    extras: dict = {}
    replay_parts: list[dict] = []
    for _, shard_answer, shard_extras in parts:
        answer |= shard_answer
        for key, value in shard_extras.items():
            if key == "replay":
                replay_parts.append(value)
                continue
            extras[key] = extras.get(key, 0) + value
    if replay_parts:
        extras["replay"] = _merge_replay_stats(replay_parts)
    return build_report(
        stack=STACK_STREAMS,
        deployment=deployment,
        trace=trace,
        protocol=protocol.name,
        ledger=_merge_snapshots([snapshot for snapshot, _, _ in parts]),
        started=started,
        label=label,
        extras=extras,
        final_answer=answer,
    )


def _execute_transport(
    stack, trace, protocol, query, tolerance, deployment: Deployment, label
) -> RunReport:
    """Sharded + parallel replay of a *coupled* protocol.

    Worker processes own the shard traces and source populations; the
    protocol runs once, at the epoch-stepped coordinator, whose message
    ledger is byte-identical to sequential sharded serving (see
    ``repro/server/transport.py`` and DESIGN.md §10).  A checking run
    (``check_every > 0``) applies the oracle at the coordinator and
    checks at epoch boundaries — checks charge nothing, so the ledger
    and violation sequence match the sequential checking run while the
    workers keep their batched pre-scan.
    """
    from repro.server.transport import (
        SpatialTransportShardedServer,
        TransportShardedServer,
    )

    started = _time.perf_counter()
    server_cls = (
        SpatialTransportShardedServer
        if stack == STACK_SPATIAL
        else TransportShardedServer
    )
    server = server_cls(
        trace,
        protocol,
        deployment.n_shards,
        latency=deployment.latency,
        replay_mode=deployment.replay_mode,
        batch_size=deployment.batch_size,
        min_chunk=deployment.min_chunk,
    )
    checker, hooks = _checker(
        stack, trace, protocol, query, tolerance, deployment,
        [server.in_flight_plane],
    )
    with server:
        server.initialize(0.0)
        if checker is not None:
            checker.check_now(0.0)
        worker_stats = server.replay(horizon=trace.horizon, **hooks)
        transport_stats = server.transport_stats()

    extras = _collect_extras(protocol)
    replay = _merge_replay_stats(worker_stats)
    replay["transport"] = transport_stats
    extras["replay"] = replay
    return build_report(
        stack=stack,
        deployment=deployment,
        trace=trace,
        protocol=protocol.name,
        ledger=server.snapshot(),
        started=started,
        label=label,
        checker=checker,
        extras=extras,
        final_answer=protocol.answer,
    )


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class Engine:
    """Compiles declarative run descriptions into executions.

    >>> from repro.api import Deployment, Engine, QuerySpec, Workload
    >>> from repro import RangeQuery
    >>> engine = Engine()
    >>> report = engine.run(
    ...     QuerySpec(protocol="zt-nrp", query=RangeQuery(400.0, 600.0)),
    ...     Workload.synthetic(n_streams=100, horizon=100.0, seed=1),
    ... )
    >>> report.tolerance_ok
    True

    The engine itself is stateless apart from its default deployment;
    one instance can run any number of specs, and the same ``(spec,
    workload)`` pair re-runs identically under any topology.
    """

    def __init__(self, deployment: Deployment | None = None) -> None:
        self.deployment = deployment or Deployment.single()

    # ------------------------------------------------------------------
    # Declarative entry
    # ------------------------------------------------------------------
    def run(
        self,
        spec: QuerySpec,
        workload: Workload,
        deployment: Deployment | None = None,
        label: str = "",
    ) -> RunReport:
        """Execute one spec over one workload; returns a unified report."""
        deployment = deployment or self.deployment
        trace = _as_workload(workload).materialize()
        if spec.stack == STACK_VALUEBASED:
            from repro.valuebased.protocol import run_value_tolerance

            return run_value_tolerance(
                trace, spec.query, float(spec.options["eps"]), deployment,
                label,
            )
        return _execute(
            spec.stack,
            trace,
            spec.build(),
            query=spec.query,
            tolerance=spec.tolerance,
            deployment=deployment,
            label=label,
        )

    def run_queries(
        self,
        specs: Mapping[str, QuerySpec],
        workload: Workload,
        deployment: Deployment | None = None,
        label: str = "",
    ) -> RunReport:
        """Run several specs as one shared multi-query deployment."""
        from repro.multiquery.runner import execute_multi_query

        trace = _as_workload(workload).materialize()
        queries = {
            query_id: (spec.build(), spec.query, spec.tolerance)
            for query_id, spec in specs.items()
        }
        return execute_multi_query(
            trace, queries, deployment or self.deployment, label
        )

    # ------------------------------------------------------------------
    # Escape hatch for pre-built protocol instances
    # ------------------------------------------------------------------
    def run_protocol(
        self,
        trace,
        protocol,
        query=None,
        tolerance=None,
        deployment: Deployment | None = None,
        label: str = "",
    ) -> RunReport:
        """Run an already-constructed protocol instance.

        For ablations and tests that tweak protocol internals before
        running; figure-style runs should prefer :meth:`run` with a
        :class:`QuerySpec`.  A :class:`~repro.spatial.trace.SpatialTrace`
        runs on the spatial stack, any other trace on the scalar one.
        """
        return _execute(
            STACK_SPATIAL if isinstance(trace, SpatialTrace) else STACK_STREAMS,
            trace,
            protocol,
            query=query,
            tolerance=tolerance,
            deployment=deployment or self.deployment,
            label=label,
        )


def run(
    spec: QuerySpec,
    workload: Workload,
    deployment: Deployment | None = None,
    label: str = "",
) -> RunReport:
    """Module-level convenience: ``Engine().run(...)``."""
    return Engine().run(spec, workload, deployment, label=label)
