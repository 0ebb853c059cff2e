"""The value-tolerance top-k protocol and its measurement harness.

The server answers a top-k query from the window centres it knows; the
value guarantee is ``eps`` (every known value is within ``eps/2`` of the
truth, so every returned stream's true value is within ``eps`` of the
true k-th best).  The harness additionally measures what the user
actually cares about for an entity-based query — the *true ranks* of the
returned streams — to quantify Figure 1's complaint.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.report import RunReport, build_report
from repro.api.spec import STACK_VALUEBASED, Deployment
from repro.correctness.oracle import Oracle
from repro.queries.base import RankBasedQuery
from repro.queries.rank import ranked_ids
from repro.runtime.session import ExecutionSession
from repro.sim.stats import Tally
from repro.streams.trace import StreamTrace


class ValueToleranceTopKProtocol:
    """Server side of the value-window scheme for a rank-based query."""

    name = "value-eps"

    def __init__(self, query: RankBasedQuery, eps: float) -> None:
        if eps < 0:
            raise ValueError("eps must be non-negative")
        self.query = query
        self.eps = float(eps)
        self._known: np.ndarray | None = None
        self._cache: frozenset[int] | None = None

    def seed(self, values: dict[int, float]) -> None:
        """Install the initial collection of window centres."""
        self._known = np.empty(len(values), dtype=np.float64)
        for stream_id, value in values.items():
            self._known[stream_id] = value
        self._cache = None

    def on_update(self, stream_id: int, value: float) -> None:
        assert self._known is not None, "seed() must run first"
        self._known[stream_id] = value
        self._cache = None

    @property
    def answer(self) -> frozenset[int]:
        """The k best streams by *known* (window-centre) values."""
        if self._known is None:
            return frozenset()
        if self._cache is None:
            order = ranked_ids(self.query, self._known)
            self._cache = frozenset(int(i) for i in order[: self.query.k])
        return self._cache


def run_value_tolerance(
    trace: StreamTrace,
    query: RankBasedQuery,
    eps: float,
    deployment: Deployment | None = None,
    label: str = "",
) -> RunReport:
    """Replay *trace* under value tolerance *eps*; measure rank quality.

    The report's ``extras`` carry ``worst_rank``, the worst true rank
    any returned stream held at a checkpoint; ``mean_rank_error``, the
    mean of ``max(0, rank - k)`` over all sampled answer members; and
    ``value_guarantee_held``, the scheme's own contract (every known
    value within ``eps/2`` of truth), whose breach is the report's one
    violation.  ``checks`` counts the sampled answer members.

    *deployment* defaults to ``Deployment.single(check_every=1)``: rank
    quality sampled after every record.  With ``check_every=0`` nothing
    is sampled and the batched replay fast path applies.  A sharded
    deployment partitions the sources over per-shard channels (one
    ledger); window reports are purely local decisions, so the ledger is
    identical to the single-channel run.
    """
    deployment = deployment or Deployment.single(check_every=1)
    if deployment.durable is not None:
        raise ValueError(
            "durable deployments are not yet supported for the "
            "value-window stack: its runner owns its own session "
            "assembly and does not thread a journaling ledger; use the "
            "scalar stacks for durable runs"
        )
    started = time.perf_counter()
    latency = deployment.latency
    if deployment.n_shards > 1:
        session = ExecutionSession.for_windows_sharded(
            trace, width=eps, n_shards=deployment.n_shards, latency=latency
        )
    else:
        session = ExecutionSession.for_windows(trace, width=eps, latency=latency)
    protocol = ValueToleranceTopKProtocol(query, eps)
    for channel in session.channels:
        channel.bind_server(
            lambda message: protocol.on_update(message.stream_id, message.value)
        )

    # Initialization: one snapshot of every value (charged separately).
    session.initialize(
        run=lambda time: protocol.seed(
            {
                stream_id: source.value
                for stream_id, source in enumerate(session.sources)
            }
        )
    )

    worst_rank = query.k
    rank_error = Tally("rank-error")
    guarantee_held = True
    oracle_apply = None
    after_apply = None
    check_every = deployment.check_every
    if check_every:
        oracle = Oracle(trace.initial_values)
        oracle_apply = oracle.apply
        tick = 0

        def after_apply(time: float) -> None:
            nonlocal tick, worst_rank, guarantee_held
            tick += 1
            if tick % check_every != 0:
                return
            order = ranked_ids(query, oracle.values)
            positions = {int(s): i + 1 for i, s in enumerate(order)}
            for member in protocol.answer:
                rank = positions[member]
                worst_rank = max(worst_rank, rank)
                rank_error.record(max(0, rank - query.k))
            drift = np.max(
                np.abs(oracle.values - protocol._known)  # noqa: SLF001
            )
            if drift > eps / 2.0 + 1e-9:
                guarantee_held = False

    session.replay_trace(
        trace,
        oracle_apply=oracle_apply,
        after_apply=after_apply,
        mode=deployment.replay_mode,
        batch_size=deployment.batch_size,
        min_chunk=deployment.min_chunk,
    )

    return build_report(
        stack=STACK_VALUEBASED,
        deployment=deployment,
        trace=trace,
        protocol=protocol.name,
        ledger=session.snapshot(),
        started=started,
        label=label,
        extras={
            "eps": eps,
            "worst_rank": worst_rank,
            "mean_rank_error": rank_error.mean if rank_error.count else 0.0,
            "value_guarantee_held": guarantee_held,
        },
        checks=rank_error.count,
        violations=() if guarantee_held else ("value guarantee violated",),
    )
