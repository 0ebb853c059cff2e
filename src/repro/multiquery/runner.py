"""Replay a trace against several standing queries at once.

Assembly and replay are the runtime kernel's
:class:`~repro.runtime.session.ExecutionSession` (the multi-query
coordinator is the session host); with checking disabled the batched
fast path pre-scans records against every query's slot bounds at once.
:func:`execute_multi_query` is the mechanism
:meth:`repro.api.Engine.run_queries` compiles onto.
"""

from __future__ import annotations

import time

from repro.api.report import RunReport, build_report
from repro.api.spec import Deployment
from repro.correctness.oracle import Oracle
from repro.protocols.base import FilterProtocol
from repro.queries.base import EntityQuery, RankBasedQuery
from repro.runtime.session import ExecutionSession
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

Tolerance = RankTolerance | FractionTolerance | None


def execute_multi_query(
    trace: StreamTrace,
    queries: dict[str, tuple[FilterProtocol, EntityQuery, Tolerance]],
    deployment: Deployment | None = None,
    label: str = "",
) -> RunReport:
    """Run every registered query's protocol over one shared population.

    Parameters
    ----------
    trace:
        The shared workload.
    queries:
        ``query_id -> (protocol, query, tolerance)``.  The protocol is a
        normal single-query protocol instance; the query/tolerance pair
        is used for the optional correctness checking.
    deployment:
        A single-server deployment without latency or durability; its
        ``check_every`` / ``strict`` / replay knobs apply.

    The report carries per-query ``answers`` and, in ``extras``, the
    physical ``shared_updates``, the ``logical_deliveries`` and their
    ratio ``sharing_factor`` (average queries served per physical
    update, ``>= 1``).
    """
    deployment = deployment or Deployment.single()
    if deployment.durable is not None:
        raise ValueError(
            "durable deployments are not supported for the multi-query "
            "stack: its coordinator delivers shared updates to protocol "
            "slots directly, bypassing the channel and ledger charge "
            "points the journal mirrors; run each query durably on its "
            "own single-query deployment instead"
        )
    if deployment.topology != "single":
        raise ValueError(
            "the multi-query stack supports only Deployment.single()"
        )
    if deployment.latency is not None:
        raise ValueError(
            "latency-modeled delivery is not supported for the multi-query "
            "stack: its coordinator delivers shared updates to protocol "
            "slots directly, bypassing the channel, so there is no wire "
            "on which messages could fly; use the single-query stacks for "
            "staleness studies"
        )
    started = time.perf_counter()
    session = ExecutionSession.for_multiquery(trace.initial_values)
    coordinator = session.host
    for query_id, (protocol, _, _) in queries.items():
        coordinator.register(query_id, protocol)

    oracle: Oracle | None = None
    if deployment.check_every > 0:
        oracle = Oracle(trace.initial_values)
        for _, (_, query, _) in queries.items():
            oracle.register_query(query)

    session.initialize(time=0.0)

    checks = 0
    violations: list[str] = []

    def check(time: float) -> None:
        nonlocal checks
        assert oracle is not None
        checks += 1
        for query_id, (protocol, query, tolerance) in queries.items():
            reason = _evaluate(protocol, oracle, query, tolerance)
            if reason is not None:
                note = f"t={time} [{query_id}]: {reason}"
                if len(violations) < 100:
                    violations.append(note)
                if deployment.strict:
                    raise AssertionError(note)

    oracle_apply = None
    after_apply = None
    if oracle is not None:
        check(0.0)
        oracle_apply = oracle.apply
        tick = 0

        def after_apply(time: float) -> None:
            nonlocal tick
            tick += 1
            if tick % deployment.check_every == 0:
                check(time)

    session.replay_trace(
        trace,
        oracle_apply=oracle_apply,
        after_apply=after_apply,
        mode=deployment.replay_mode,
        batch_size=deployment.batch_size,
        min_chunk=deployment.min_chunk,
    )

    shared = coordinator.shared_updates
    logical = coordinator.logical_deliveries
    return build_report(
        stack="multiquery",
        deployment=deployment,
        trace=trace,
        protocol="multi-query",
        ledger=session.snapshot(),
        started=started,
        label=label,
        extras={
            "shared_updates": shared,
            "logical_deliveries": logical,
            "sharing_factor": logical / shared if shared else 1.0,
        },
        checks=checks,
        violations=tuple(violations),
        answers={
            query_id: coordinator.answer(query_id) for query_id in queries
        },
    )


def _evaluate(
    protocol: FilterProtocol,
    oracle: Oracle,
    query: EntityQuery,
    tolerance: Tolerance,
) -> str | None:
    answer = set(protocol.answer)
    if isinstance(tolerance, RankTolerance):
        assert isinstance(query, RankBasedQuery)
        return tolerance.violation(answer, query, oracle.values)
    true_set = oracle.true_answer(query)
    if isinstance(tolerance, FractionTolerance):
        return tolerance.violation(answer, true_set)
    if answer != true_set:
        return (
            f"exact answer required: {len(answer - true_set)} spurious, "
            f"{len(true_set - answer)} missing"
        )
    return None
