"""The execution session: one assembly + one replay loop for all stacks.

An :class:`ExecutionSession` owns the Figure-3 system of one run — the
discrete-event engine, the message ledger, the channel, the sources and
the host (server or coordinator) — and provides the single
:meth:`~ExecutionSession.replay` loop every runner uses.

``replay`` has three modes:

* **event** — the faithful per-record path: each trace record fires as a
  simulation event, the source evaluates its filter, messages flow.
  Required whenever per-record callbacks (oracle maintenance, tolerance
  checking) are active.
* **batch** — the columnar dispatch kernel (DESIGN.md §9): each trace
  chunk is evaluated columnarly against the currently-deployed
  constraint bounds, grouped into per-stream *runs* (stable argsort),
  and drained through a heap of per-run first crossings.  Records that
  provably cannot flip any filter (*quiescent* records) are applied in
  bulk windows; only actual crossings go through the per-event
  machinery, and the state table's constraint-plane watch tells the
  kernel exactly which runs a dispatch invalidated.
* **auto** — batch when it is both safe and useful (see below), event
  otherwise.

Because quiescent records produce no messages by definition and every
crossing dispatches at its own virtual time through the same source
code path, the resulting :class:`MessageLedger` snapshot of the fast
path is byte-identical to the per-event path's.

The pre-scan reads the deployed bounds and believed memberships directly
from the session's :class:`~repro.state.table.StreamStateTable` columns
(one table per standing query): source membership strategies write their
filter state through to the table (:meth:`~repro.runtime.membership.
MembershipStrategy.bind_state`), so the columns *are* the live filter
state — no per-source polling, no dirty-tracking, no rebuilds.

Scalar payloads are tested against the scalar interval columns; vector
payloads (the spatial stack) against the table's *geometric plane* —
the deployed regions' inscribed/circumscribed bboxes — via
:meth:`~repro.state.table.StreamStateTable.geometric_quiescence_mask`.
The geometric test is conservative: a record the boxes cannot decide is
treated as a potential violation and dispatches per-event, so ledger
byte-identity holds exactly as in the scalar case.

``mode="auto"`` picks batch exactly when it is both safe (no callbacks)
and useful (at least one stream has a scalar or geometric filter
installed).
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

from repro.network.accounting import MessageLedger, Phase
from repro.network.channel import Channel
from repro.network.messages import MessageKind
from repro.network.latency import LatencyChannel, as_latency_model
from repro.runtime.source import FilteredSource
from repro.sim.engine import SimulationEngine
from repro.state.runs import first_true_per_run, segment_runs
from repro.state.table import StreamStateTable

#: Chunk size of the batched quiescence pre-scan.
DEFAULT_BATCH_SIZE = 4096

#: Minimum pre-scan chunk: below this, numpy call overhead beats the
#: per-event loop anyway.  The adaptive chunk heuristic never shrinks a
#: window below it; tunable per run via ``Deployment``.
DEFAULT_MIN_CHUNK = 32

#: ``"batch"`` is the run-based columnar dispatch kernel (DESIGN.md §9).
REPLAY_MODES = ("auto", "event", "batch")


def in_flight_barrier(channels):
    """``(earliest delivery time, lagging stream ids)`` over latency
    channels, or ``(None, empty)`` when nothing flies.

    While a message is in flight the pre-scan's claims are unsafe in
    two ways: the in-flight streams' table rows mix deployed-but-not-
    installed bounds with the source's old filter state, and any
    delivery can run a protocol step that rewrites *other* streams'
    bounds.  The batched loop therefore treats in-flight streams as
    always-potential and never claims quiescence at or past the
    earliest pending delivery.

    Shared with the shard transport's workers, whose pre-scan must
    re-check the same barrier against their local heaps — the
    coordinator's merged in-flight plane holds the extracted uplink
    half, so a worker's barrier covers exactly the deliveries that
    stayed local (pending constraint installs).
    """
    t_barrier = None
    lagging: set[int] = set()
    for channel in channels:
        t = channel.next_delivery_time
        if t is not None:
            t_barrier = t if t_barrier is None else min(t_barrier, t)
            lagging |= channel.in_flight_stream_ids()
    return t_barrier, lagging


class ExecutionSession:
    """Engine + ledger + channel + sources + host, assembled once.

    Parameters
    ----------
    sources:
        The source population, indexed by stream id.
    host:
        The server-side owner (``Server``, ``SpatialServer``,
        ``MultiQueryCoordinator`` or ``None`` for bare assemblies).
    initialize:
        Callable running the initialization phase at a given time;
        defaults to ``host.initialize`` when the host has one.
    """

    def __init__(
        self,
        *,
        sources: Sequence[FilteredSource],
        ledger: MessageLedger | None = None,
        engine: SimulationEngine | None = None,
        channel: Channel | None = None,
        channels: Sequence[Channel] | None = None,
        host=None,
        initialize: Callable[[float], None] | None = None,
    ) -> None:
        self.engine = engine or SimulationEngine()
        self.ledger = ledger or MessageLedger()
        self.channel = channel
        #: Every channel in the assembly: one for single-server
        #: topologies, one per shard for sharded ones.  The batched
        #: replay taps each of them for deferred-write flushing.
        if channels is not None:
            self.channels = list(channels)
        else:
            self.channels = [channel] if channel is not None else []
        #: Channels with a latency-modeled delivery discipline: the
        #: replay loops must respect their in-flight barriers and drain
        #: them at end of run.
        self.latency_channels = [
            c for c in self.channels if isinstance(c, LatencyChannel)
        ]
        self.sources = sources
        self.host = host
        if initialize is None and host is not None:
            initialize = getattr(host, "initialize", None)
        self._initialize = initialize
        #: Session-owned state table (hostless assemblies only; hosted
        #: sessions use the host's table(s)).
        self.state: StreamStateTable | None = None
        #: Counters of the most recent :meth:`replay` (resolved mode,
        #: dispatches, staged records, kernel truncations/bailouts);
        #: surfaced through ``RunReport`` extras.
        self.last_replay_stats: dict | None = None
        self._bind_state()

    def _bind_state(self) -> None:
        """Bind every source's membership to a state-table row.

        Hosts with per-query tables (the multi-query coordinator) bind
        their own sources; otherwise the host's table — or a session-owned
        one for bare assemblies — becomes the write-through target.
        Strategies without scalar filter state ignore the binding.
        """
        if self.host is not None and hasattr(self.host, "state_tables"):
            return
        table = getattr(self.host, "state", None)
        if table is None and self.sources:
            table = self.state = StreamStateTable(len(self.sources))
        if table is None:
            return
        for source in self.sources:
            source.membership.bind_state(table, source.stream_id)

    def _state_tables(self) -> list[StreamStateTable]:
        """Every state table whose constraint columns guard a filter."""
        if self.host is not None:
            tables = getattr(self.host, "state_tables", None)
            if tables is not None:
                return list(tables.values())
            table = getattr(self.host, "state", None)
            if table is not None:
                return [table]
        return [self.state] if self.state is not None else []

    # ------------------------------------------------------------------
    # Builders: one per stack
    # ------------------------------------------------------------------
    @staticmethod
    def _make_channel(
        ledger: MessageLedger,
        engine: SimulationEngine,
        latency,
        channel_index: int = 0,
    ) -> Channel:
        """The deployment's delivery discipline: ``latency=None`` is the
        synchronous channel; anything else (including ``0``) compiles to
        a :class:`~repro.network.latency.LatencyChannel` draining through
        *engine* — ``latency=0`` keeps a distinct code path on purpose,
        so the differential suite can prove it byte-identical.
        ``channel_index`` salts the model's RNG streams so per-shard
        channels draw independent delay sequences."""
        model = as_latency_model(latency)
        if model is None:
            return Channel(ledger)
        return LatencyChannel(ledger, engine, model, channel_index=channel_index)

    @classmethod
    def for_streams(
        cls, trace, protocol, latency=None, *, ledger=None, state_factory=None
    ) -> "ExecutionSession":
        """Scalar stack: ``StreamSource`` population + ``Server``.

        ``ledger`` substitutes the session's accounting object (the
        durability tier passes a journaling subclass); ``state_factory``
        substitutes the server's state-table constructor (memmap-backed
        planes).  Both default to the plain RAM objects.
        """
        from repro.server.server import Server
        from repro.streams.source import StreamSource

        engine = SimulationEngine()
        ledger = ledger if ledger is not None else MessageLedger()
        channel = cls._make_channel(ledger, engine, latency)
        sources = [
            StreamSource(stream_id, value, channel)
            for stream_id, value in enumerate(trace.initial_values)
        ]
        server = Server(channel, protocol, state_factory=state_factory)
        return cls(
            sources=sources,
            ledger=ledger,
            engine=engine,
            channel=channel,
            host=server,
        )

    @classmethod
    def _sharded_parts(
        cls,
        trace,
        n_shards: int,
        make_source,
        initials=None,
        latency=None,
        ledger=None,
    ):
        """Shared sharded assembly: ranges, engine, per-shard channels
        (one ledger, each compiled to the deployment's delivery
        discipline), and sources built by ``make_source(stream_id,
        initial, channel)`` in global id order.  ``initials`` defaults
        to the trace's ``initial_values`` (scalar stacks); spatial
        builders pass ``initial_points``."""
        from repro.state.sharding import shard_ranges

        if initials is None:
            initials = trace.initial_values
        ranges = shard_ranges(trace.n_streams, n_shards)
        engine = SimulationEngine()
        ledger = ledger if ledger is not None else MessageLedger()
        channels = [
            cls._make_channel(ledger, engine, latency, channel_index=index)
            for index in range(len(ranges))
        ]
        sources = [
            make_source(stream_id, initials[stream_id], channel)
            for channel, (lo, hi) in zip(channels, ranges)
            for stream_id in range(lo, hi)
        ]
        return ranges, engine, ledger, channels, sources

    @classmethod
    def for_streams_sharded(
        cls,
        trace,
        protocol,
        n_shards: int,
        latency=None,
        *,
        ledger=None,
        state_factory=None,
    ) -> "ExecutionSession":
        """Scalar stack over a sharded topology.

        The population is partitioned into contiguous id ranges, one
        ``Channel`` + :class:`~repro.server.sharded.ShardServer` per
        shard (every channel charging the *same* ledger), coordinated by
        a :class:`~repro.server.sharded.ShardedServer` hosting the
        protocol.  Message ledgers are byte-identical to
        :meth:`for_streams` — see ``repro.server.sharded``.
        """
        from repro.server.sharded import ShardedServer
        from repro.streams.source import StreamSource

        ranges, engine, ledger, channels, sources = cls._sharded_parts(
            trace, n_shards, StreamSource, latency=latency, ledger=ledger
        )
        coordinator = ShardedServer(
            channels, protocol, ranges, state_factory=state_factory
        )
        return cls(
            sources=sources,
            ledger=ledger,
            engine=engine,
            channel=None,
            channels=channels,
            host=coordinator,
        )

    @classmethod
    def for_spatial(cls, trace, protocol, latency=None) -> "ExecutionSession":
        """Spatial stack: ``SpatialStreamSource`` + ``SpatialServer``."""
        from repro.spatial.server import SpatialServer
        from repro.spatial.source import SpatialStreamSource

        engine = SimulationEngine()
        ledger = MessageLedger()
        channel = cls._make_channel(ledger, engine, latency)
        sources = [
            SpatialStreamSource(
                stream_id, trace.initial_points[stream_id], channel
            )
            for stream_id in range(trace.n_streams)
        ]
        server = SpatialServer(channel, protocol)
        return cls(
            sources=sources,
            ledger=ledger,
            engine=engine,
            channel=channel,
            host=server,
        )

    @classmethod
    def for_spatial_sharded(
        cls, trace, protocol, n_shards: int, latency=None
    ) -> "ExecutionSession":
        """Spatial stack over a sharded topology.

        The point population is partitioned exactly as
        :meth:`for_streams_sharded` partitions scalar streams: one
        ``Channel`` + :class:`~repro.server.sharded.SpatialShardServer`
        per contiguous id range (every channel charging the *same*
        ledger), coordinated by a :class:`~repro.server.sharded.
        ShardedSpatialServer` hosting the protocol.  Message ledgers are
        byte-identical to :meth:`for_spatial` — the geometric plane of
        the coordinator's table is aliased by every shard view, so the
        batched AABB pre-scan works unchanged.
        """
        from repro.server.sharded import ShardedSpatialServer
        from repro.spatial.source import SpatialStreamSource

        ranges, engine, ledger, channels, sources = cls._sharded_parts(
            trace,
            n_shards,
            SpatialStreamSource,
            initials=trace.initial_points,
            latency=latency,
        )
        coordinator = ShardedSpatialServer(channels, protocol, ranges)
        return cls(
            sources=sources,
            ledger=ledger,
            engine=engine,
            channel=None,
            channels=channels,
            host=coordinator,
        )

    @classmethod
    def for_windows(cls, trace, width: float, latency=None) -> "ExecutionSession":
        """Value-window stack: ``WindowFilterSource`` population.

        The caller binds its own server-side handler on ``.channel`` and
        runs initialization via ``initialize(run=...)``.
        """
        from repro.valuebased.source import WindowFilterSource

        engine = SimulationEngine()
        ledger = MessageLedger()
        channel = cls._make_channel(ledger, engine, latency)
        sources = [
            WindowFilterSource(stream_id, value, channel, width=width)
            for stream_id, value in enumerate(trace.initial_values)
        ]
        return cls(
            sources=sources, ledger=ledger, engine=engine, channel=channel
        )

    @classmethod
    def for_windows_sharded(
        cls, trace, width: float, n_shards: int, latency=None
    ) -> "ExecutionSession":
        """Value-window stack over per-shard channels (shared ledger).

        The window scheme has no server-to-source maintenance traffic,
        so sharding it is pure channel partitioning; the caller binds
        its handler on every channel in ``.channels``.  Ledgers are
        byte-identical to :meth:`for_windows` because each source's
        report decisions are purely local.
        """
        from repro.valuebased.source import WindowFilterSource

        _, engine, ledger, channels, sources = cls._sharded_parts(
            trace,
            n_shards,
            lambda stream_id, value, channel: WindowFilterSource(
                stream_id, value, channel, width=width
            ),
            latency=latency,
        )
        return cls(
            sources=sources,
            ledger=ledger,
            engine=engine,
            channel=None,
            channels=channels,
        )

    @classmethod
    def for_multiquery(cls, initial_values) -> "ExecutionSession":
        """Shared stack: ``MultiQuerySource`` + ``MultiQueryCoordinator``.

        The coordinator is the session's ``host``; register standing
        queries on it before :meth:`initialize`.
        """
        from repro.multiquery.coordinator import MultiQueryCoordinator

        ledger = MessageLedger()
        coordinator = MultiQueryCoordinator(ledger)
        coordinator.attach_sources(initial_values)
        return cls(
            sources=coordinator.sources,
            ledger=ledger,
            channel=None,
            host=coordinator,
            initialize=coordinator.initialize_all,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(
        self, time: float = 0.0, run: Callable[[float], None] | None = None
    ) -> None:
        """Run the initialization phase; messages are charged to it."""
        run = run or self._initialize
        self.ledger.phase = Phase.INITIALIZATION
        if run is not None:
            run(time)
        self.ledger.phase = Phase.MAINTENANCE

    def snapshot(self):
        """Freeze the ledger for results reporting."""
        return self.ledger.snapshot()

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(
        self,
        times: np.ndarray,
        stream_ids: np.ndarray,
        payloads: np.ndarray,
        *,
        horizon: float | None = None,
        oracle_apply: Callable[[int, float], None] | None = None,
        after_apply: Callable[[float], None] | None = None,
        mode: str = "auto",
        batch_size: int = DEFAULT_BATCH_SIZE,
        min_chunk: int = DEFAULT_MIN_CHUNK,
    ) -> None:
        """Feed the record arrays through the assembled system.

        Parameters
        ----------
        times, stream_ids, payloads:
            Parallel, time-sorted record arrays (``payloads`` is 1-D for
            scalar stacks, ``(m, d)`` for spatial).
        horizon:
            Virtual end time; the engine clock is advanced to it.
        oracle_apply:
            Ground-truth maintenance hook, called *before* each record is
            applied.  Forces per-event replay.
        after_apply:
            Correctness hook, called with the record time *after* each
            record is applied.  Forces per-event replay.
        mode:
            ``"auto"`` | ``"event"`` | ``"batch"``.
        batch_size:
            Chunk size of the batched quiescence pre-scan.
        min_chunk:
            Floor of the adaptive chunk heuristic: a lively stretch
            shrinks the scan window, but never below this.
        """
        mode = self._resolve_mode(mode, payloads, oracle_apply, after_apply)
        stats = {
            "mode": mode,
            "kernel": None,
            "records": int(len(times)),
            "dispatches": 0,
            "staged": 0,
            "columnar_reports": 0,
            "chunk_scans": 0,
            "suffix_rescans": 0,
            "broadcast_truncations": 0,
            "inflight_truncations": 0,
            "dispatch_bailout_at": None,
        }
        self.last_replay_stats = stats
        if mode == "batch":
            self._replay_run_kernel(
                times, stream_ids, payloads, horizon, batch_size, min_chunk,
                stats,
            )
        else:
            stats["dispatches"] = int(len(times))
            self._replay_events(
                times, stream_ids, payloads, horizon, oracle_apply, after_apply
            )
        # A bounded run can leave messages scheduled past the horizon;
        # deliver them so the final state reflects every sent message
        # (a no-op for the synchronous discipline and for latency=0).
        for channel in self.latency_channels:
            channel.drain_in_flight()

    def replay_trace(self, trace, **kwargs) -> None:
        """Replay a ``StreamTrace`` or ``SpatialTrace`` object."""
        payloads = getattr(trace, "values", None)
        if payloads is None:
            payloads = trace.points
        self.replay(
            trace.times,
            trace.stream_ids,
            payloads,
            horizon=trace.horizon,
            **kwargs,
        )

    def _resolve_mode(self, mode, payloads, oracle_apply, after_apply) -> str:
        if mode not in REPLAY_MODES:
            raise ValueError(
                f"replay mode must be one of {REPLAY_MODES}, got {mode!r}"
            )
        if mode == "event":
            return "event"
        # Batching is *sound* only without per-record callbacks (they
        # must observe every record).
        if oracle_apply is not None or after_apply is not None:
            return "event"
        ndim = np.ndim(payloads)
        if ndim not in (1, 2):
            return "event"
        if mode == "auto":
            # Pre-scanning pays off only when some stream carries a
            # columnar filter: scalar intervals for 1-D payloads, the
            # geometric plane's region bboxes for 2-D (spatial) ones.
            tables = self._state_tables()
            if ndim == 1 and not any(t.scannable.any() for t in tables):
                return "event"
            if ndim == 2 and not any(t.geo_scannable.any() for t in tables):
                return "event"
        return "batch" if mode == "auto" else mode

    # ------------------------------------------------------------------
    # Per-event path
    # ------------------------------------------------------------------
    def _replay_events(
        self, times, stream_ids, payloads, horizon, oracle_apply, after_apply
    ) -> None:
        """Fire each record as a simulation event.

        Records are pre-sorted, so each fired event schedules its
        successor — O(1) heap work per record instead of heaping the
        whole trace up front.
        """
        n = len(times)
        engine = self.engine
        sources = self.sources
        if n:

            def fire(index: int) -> Callable[[], None]:
                def action() -> None:
                    stream_id = int(stream_ids[index])
                    payload = payloads[index]
                    time = float(times[index])
                    if oracle_apply is not None:
                        oracle_apply(stream_id, payload)
                    sources[stream_id].apply(payload, time)
                    if after_apply is not None:
                        after_apply(time)
                    nxt = index + 1
                    if nxt < n:
                        engine.schedule_at(float(times[nxt]), fire(nxt))

                return action

            engine.schedule_at(float(times[0]), fire(0))
        engine.run(until=horizon)

    # ------------------------------------------------------------------
    # Batched fast paths
    # ------------------------------------------------------------------
    # Bail out to per-event replay when, after a fair sample, more than
    # this fraction of records dispatched: the workload is too lively for
    # pre-scanning to pay off.  The rate is high because a dispatch costs
    # the kernel only one heap pop and a suffix check.
    _RUN_BAILOUT_RATE = 0.6
    _RUN_BAILOUT_MIN_DISPATCHES = 512
    # A dispatch whose protocol reaction rewrites more than this many
    # *other* streams' constraint rows (a broadcast/reinitialization) is
    # cheaper to handle by truncating the chunk and rescanning than by
    # re-validating suffixes one stream at a time.
    _BROADCAST_CAP = 32

    def _in_flight_barrier(self):
        return in_flight_barrier(self.latency_channels)

    def _dispatch_record(self, deferred, stream_ids, payloads, times, j) -> None:
        """Run one record through the faithful per-event machinery."""
        stream_id = int(stream_ids[j])
        time = float(times[j])
        if time > self.engine.now:
            self.engine.run(until=time)
        deferred.flush_for_dispatch(stream_id)
        self.sources[stream_id].apply(payloads[j], time)

    def _replay_run_kernel(
        self, times, stream_ids, payloads, horizon, batch_size, min_chunk,
        stats,
    ) -> None:
        """The columnar dispatch kernel (DESIGN.md §9).

        Each chunk is evaluated columnarly in one shot — the crossing
        mask over the live constraint columns — then grouped into
        per-stream runs (stable argsort).  A heap of per-run first
        crossings drives dispatch in strict time order: the provably-
        quiescent window before each crossing is bulk-staged, the
        crossing record runs through the per-event machinery, and the
        constraint-plane watch reports exactly which streams the
        protocol's reaction touched, so only those runs' suffixes are
        re-validated.  Ledger byte-identity with per-event replay holds
        because every record either dispatches at its own virtual time
        through the same source code path, or is staged while provably
        unable to flip any filter.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if min_chunk < 1:
            raise ValueError("min_chunk must be >= 1")
        bulk_table = self._columnar_bulk_table(payloads)
        if bulk_table is not None:
            self._replay_columnar(
                times, stream_ids, payloads, horizon, batch_size, bulk_table,
                stats,
            )
            return
        stats["kernel"] = "run"
        n = len(times)
        tables = self._state_tables()
        prescan = _StatePrescan(tables)
        deferred = _DeferredAssignments(self.sources, self.channels, payloads)
        dispatches = 0
        # Adaptive chunk: consumption-driven — truncations (broadcasts,
        # in-flight barriers) shrink the scan window, clean chunks grow
        # it back toward ``batch_size``.
        avg_consumed = float(batch_size)
        for table in tables:
            table.watch_constraints()
        try:
            i = 0
            while i < n:
                chunk = int(
                    min(batch_size, max(min_chunk, 4 * avg_consumed))
                )
                end = min(i + chunk, n)
                lagging: set[int] = set()
                if self.latency_channels:
                    t_barrier, lagging = self._in_flight_barrier()
                    if t_barrier is not None:
                        # Claim nothing at or past the pending delivery.
                        cap = i + int(
                            np.searchsorted(
                                times[i:end], t_barrier, side="left"
                            )
                        )
                        if cap == i:
                            # Next record needs the delivery first:
                            # dispatching it per-event runs the engine up
                            # to its time, draining what is due.
                            self._dispatch_record(
                                deferred, stream_ids, payloads, times, i
                            )
                            dispatches += 1
                            i += 1
                            continue
                        end = cap
                consumed, chunk_dispatches = self._run_kernel_chunk(
                    stream_ids[i:end],
                    payloads[i:end],
                    times,
                    i,
                    prescan,
                    deferred,
                    tables,
                    lagging,
                    stats,
                )
                i += consumed
                dispatches += chunk_dispatches
                if consumed == end - (i - consumed):
                    avg_consumed = min(
                        float(batch_size), 2.0 * max(avg_consumed, 1.0)
                    )
                else:
                    avg_consumed = 0.75 * avg_consumed + 0.25 * consumed
                if (
                    dispatches >= self._RUN_BAILOUT_MIN_DISPATCHES
                    and dispatches > self._RUN_BAILOUT_RATE * i
                ):
                    break
        finally:
            deferred.close()
            for table in tables:
                table.unwatch_constraints()
        stats["dispatches"] += dispatches
        if i < n:
            # Too lively even for the kernel: finish per-event.
            stats["dispatch_bailout_at"] = int(i)
            stats["dispatches"] += n - i
            self._replay_events(
                times[i:], stream_ids[i:], payloads[i:], horizon, None, None
            )
            return
        if horizon is None or horizon > self.engine.now:
            self.engine.run(until=horizon)

    def _run_kernel_chunk(
        self,
        ids_chunk,
        vals_chunk,
        times,
        base,
        prescan,
        deferred,
        tables,
        lagging,
        stats,
    ) -> tuple[int, int]:
        """Drain one chunk through the run kernel.

        Returns ``(records consumed, records dispatched)``; consuming
        fewer records than the chunk holds means the chunk was truncated
        (broadcast-scale invalidation or an in-flight latency message)
        and the caller must rescan from the truncation point.
        """
        stats["chunk_scans"] += 1
        # Stale watch entries (initialization, earlier chunks' protocol
        # reactions) are already reflected in the live columns this scan
        # is about to read; drop them.
        for table in tables:
            table.drain_constraint_watch()
        mask = prescan.crossing_mask(ids_chunk, vals_chunk)
        if lagging:
            # In-flight streams are never provably quiescent.
            mask = mask | np.isin(
                ids_chunk,
                np.fromiter(lagging, dtype=np.int64, count=len(lagging)),
            )
        n_chunk = len(ids_chunk)
        if not mask.any():
            deferred.stage(ids_chunk, vals_chunk)
            stats["staged"] += n_chunk
            return n_chunk, 0
        # Group the chunk into per-stream runs and seed the dispatch heap
        # with each run's first crossing (chunk position order == time
        # order, so the heap pops crossings exactly as per-event replay
        # would reach them).
        order, starts, run_ids = segment_runs(ids_chunk)
        n_runs = len(run_ids)
        counts = np.diff(starts)
        run_of_pos = np.empty(n_chunk, dtype=np.intp)
        run_of_pos[order] = np.repeat(
            np.arange(n_runs, dtype=np.intp), counts
        )
        rank_in_run = np.empty(n_chunk, dtype=np.intp)
        rank_in_run[order] = np.arange(n_chunk, dtype=np.intp) - np.repeat(
            starts[:-1], counts
        )
        first = first_true_per_run(mask[order], starts)
        epoch = [0] * n_runs
        heap = [
            (int(order[g]), int(r), 0)
            for r, g in enumerate(first)
            if g >= 0
        ]
        heapq.heapify(heap)
        run_of_stream: dict[int, int] | None = None
        engine = self.engine
        sources = self.sources
        latency_channels = self.latency_channels
        cursor = 0
        chunk_dispatches = 0

        def rescan_suffix(r: int, lo_grouped: int) -> None:
            """Re-validate run *r* from grouped index *lo_grouped* on
            against the now-live columns; push its new first crossing."""
            epoch[r] += 1
            hi_grouped = int(starts[r + 1])
            if lo_grouped >= hi_grouped:
                return
            stats["suffix_rescans"] += 1
            suffix = order[lo_grouped:hi_grouped]
            sub = prescan.crossing_mask(
                ids_chunk[suffix], vals_chunk[suffix]
            )
            hits = np.nonzero(sub)[0]
            if hits.size:
                heapq.heappush(
                    heap, (int(suffix[hits[0]]), r, epoch[r])
                )

        while heap:
            pos, r, ep = heapq.heappop(heap)
            if ep != epoch[r]:
                continue
            if pos > cursor:
                # Everything before the crossing is provably quiescent
                # under the columns it was scanned against, which are
                # still live: stage it in bulk.
                deferred.stage(
                    ids_chunk[cursor:pos], vals_chunk[cursor:pos]
                )
                stats["staged"] += pos - cursor
            stream_id = int(ids_chunk[pos])
            time = float(times[base + pos])
            if time > engine.now:
                engine.run(until=time)
            deferred.flush_for_dispatch(stream_id)
            sources[stream_id].apply(vals_chunk[pos], time)
            cursor = pos + 1
            chunk_dispatches += 1
            if latency_channels:
                t_next, _ = self._in_flight_barrier()
                if t_next is not None:
                    # A latency message is in flight: no claim is safe at
                    # or past its delivery.  Truncate; the caller rescans
                    # from here with a fresh barrier.
                    stats["inflight_truncations"] += 1
                    return cursor, chunk_dispatches
            touched: list[int] = []
            for table in tables:
                noted = table.drain_constraint_watch()
                if noted:
                    touched.extend(noted)
            # The dispatched stream's own suffix is always re-validated:
            # even an untouched filter keeps dispatching when the stream
            # carries none (the ~guarded rule).
            rescan_suffix(r, int(starts[r]) + int(rank_in_run[pos]) + 1)
            if touched:
                others = set(touched)
                others.discard(stream_id)
                if len(others) > self._BROADCAST_CAP:
                    # Broadcast-scale reaction: rescanning the remainder
                    # wholesale beats per-stream suffix checks.
                    stats["broadcast_truncations"] += 1
                    return cursor, chunk_dispatches
                if others:
                    if run_of_stream is None:
                        run_of_stream = dict(
                            zip(run_ids.tolist(), range(n_runs))
                        )
                    for other in others:
                        r_other = run_of_stream.get(int(other))
                        if r_other is None:
                            continue
                        # Only positions the cursor has not yet claimed
                        # are still pending for this run.
                        span = order[
                            starts[r_other] : starts[r_other + 1]
                        ]
                        lo = int(np.searchsorted(span, cursor))
                        rescan_suffix(r_other, int(starts[r_other]) + lo)
        if cursor < n_chunk:
            deferred.stage(ids_chunk[cursor:], vals_chunk[cursor:])
            stats["staged"] += n_chunk - cursor
        return n_chunk, chunk_dispatches

    def _columnar_bulk_table(self, payloads) -> StreamStateTable | None:
        """The one state table when crossings themselves are columnar.

        The fully-columnar path (DESIGN.md §9) applies *every* record —
        quiescent or crossing — as window operations, so it is sound
        only when a dispatch's entire observable effect is derivable
        from the constraint columns: the hosted protocol declares
        ``columnar_maintenance`` (reports mutate nothing but the answer
        mask), every source carries a plain deployed interval, no
        silencers rewrite report decisions, no listeners or channel taps
        observe per-message traffic, and no latency model puts reports
        in flight.  Anything else returns ``None`` and the run-heap
        kernel handles the replay.
        """
        if np.ndim(payloads) != 1 or self.latency_channels:
            return None
        protocol = getattr(self.host, "protocol", None)
        if not getattr(protocol, "columnar_maintenance", False):
            return None
        tables = self._state_tables()
        if len(tables) != 1:
            return None
        table = tables[0]
        if not (bool(table.known.all()) and bool(table.scannable.all())):
            return None
        if table.silencer.any() or table._listeners:
            return None
        if any(channel._taps for channel in self.channels):
            return None
        from repro.runtime.membership import IntervalMembership

        for source in self.sources:
            membership = source.membership
            if (
                type(membership) is not IntervalMembership
                or membership.container is None
            ):
                return None
        return table

    def _replay_columnar(
        self, times, stream_ids, payloads, horizon, batch_size, table, stats
    ) -> None:
        """Apply whole chunks — crossings included — columnarly.

        For a ``columnar_maintenance`` protocol a source's belief after
        record ``k`` always equals record ``k``'s containment (a report
        happens exactly when consecutive containments differ), so each
        run's report positions are one vectorized ``diff`` over its
        containment sequence seeded with the table's believed
        membership.  The ledger is charged the exact report count, the
        value/constraint/answer planes take each run's final report, and
        sources are resynchronized once at close — byte-identical to
        per-event replay, with no Python in the loop at all.
        """
        stats["kernel"] = "columnar"
        n = len(times)
        deferred = _DeferredAssignments(self.sources, self.channels, payloads)
        dirty = np.zeros(len(self.sources), dtype=bool)
        ledger = self.ledger
        try:
            i = 0
            while i < n:
                end = min(i + batch_size, n)
                ids_chunk = stream_ids[i:end]
                vals_chunk = payloads[i:end]
                stats["chunk_scans"] += 1
                order, starts, run_ids = segment_runs(ids_chunk)
                contains = (table.lower[ids_chunk] <= vals_chunk) & (
                    vals_chunk <= table.upper[ids_chunk]
                )
                grouped = contains[order]
                previous = np.empty_like(grouped)
                previous[1:] = grouped[:-1]
                previous[starts[:-1]] = table.inside[run_ids]
                report_grouped = grouped != previous
                report_idx = np.nonzero(report_grouped)[0]
                if report_idx.size:
                    ledger.record_kind(
                        MessageKind.UPDATE, int(report_idx.size)
                    )
                    stats["columnar_reports"] += int(report_idx.size)
                    # Each reporting run's *last* report is what the
                    # server remembers: value plane, believed side,
                    # answer membership.
                    last = (
                        np.searchsorted(report_idx, starts[1:], side="left")
                        - 1
                    )
                    first = np.searchsorted(
                        report_idx, starts[:-1], side="left"
                    )
                    reported = last >= first
                    last_report = report_idx[last[reported]]
                    pos = order[last_report]
                    rows = ids_chunk[pos]
                    table.values[rows] = vals_chunk[pos]
                    table.report_time[rows] = times[i:end][pos]
                    final_inside = grouped[last_report]
                    table.inside[rows] = final_inside
                    table.answer_assign_rows(rows, final_inside)
                    dirty[rows] = True
                deferred.stage(ids_chunk, vals_chunk)
                stats["staged"] += end - i
                i = end
        finally:
            deferred.close()
            # One belief resync per reporting source replaces the
            # per-report write-through of the event path.
            for row in np.nonzero(dirty)[0].tolist():
                membership = self.sources[row].membership
                membership.reported_inside = bool(table.inside[row])
        if horizon is None or horizon > self.engine.now:
            self.engine.run(until=horizon)


class _DeferredAssignments:
    """Lazily materialized quiescent writes.

    A quiescent record only changes its source's stored value — nothing
    observable happens until somebody *reads* that value.  So the batched
    replay stages quiescent writes in one numpy vector (two vectorized
    scatters per chunk, last write per stream winning) and flushes a
    source's value only at its next read point:

    * a server-to-source message (probe request or constraint) is about
      to be handled — caught by a channel tap, which runs before the
      source's handler;
    * the source itself is about to dispatch a record per-event;
    * the replay ends (or bails out to the per-event path).

    Sharded assemblies have one channel per shard; the tap is attached
    to every one, so a server-to-source message on any shard flushes its
    target.  Without channels (the multi-query coordinator talks to its
    sources directly) every staged write is flushed before each
    dispatch.

    The shard-transport workers (``repro/server/transport.py``) reuse
    this class and :class:`_StatePrescan` verbatim: each worker process
    stages its shard's quiescent prefixes against its own table and
    flushes through its own channel's taps, so the process boundary
    changes where the primitives run, not what they prove.
    """

    def __init__(
        self, sources, channels: Sequence[Channel], payloads=None
    ) -> None:
        self._sources = sources
        self._channels = list(channels)
        # Scalar stacks stage into a vector; spatial ones into an (n, d)
        # matrix shaped like the trace's payload rows.
        shape: tuple[int, ...] = (len(sources),)
        self._vector = payloads is not None and np.ndim(payloads) == 2
        if self._vector:
            shape = (len(sources), np.shape(payloads)[1])
        self._values = np.empty(shape, dtype=np.float64)
        self._touched = np.zeros(len(sources), dtype=bool)
        for channel in self._channels:
            channel.add_tap(self._tap)

    def close(self) -> None:
        self.flush_all()
        for channel in self._channels:
            channel.remove_tap(self._tap)

    def _tap(self, message) -> None:
        if not message.kind.is_uplink:
            self.flush_one(message.stream_id)

    def stage(self, ids_chunk, vals_chunk) -> None:
        """Record a run of quiescent writes (later records win)."""
        self._values[ids_chunk] = vals_chunk
        self._touched[ids_chunk] = True

    def _staged_payload(self, stream_id: int):
        # Vector rows must be copied out: the staging matrix keeps being
        # scattered into, and spatial sources adopt ndarray payloads
        # without copying.
        value = self._values[stream_id]
        return value.copy() if self._vector else value

    def flush_one(self, stream_id: int) -> None:
        if self._touched[stream_id]:
            self._touched[stream_id] = False
            self._sources[stream_id].assign(self._staged_payload(stream_id))

    def flush_for_dispatch(self, stream_id: int) -> None:
        """Make values readable before a record dispatches per-event."""
        if self._channels:
            # Other sources' reads are flushed by the channel taps.
            self.flush_one(stream_id)
        else:
            self.flush_all()

    def flush_all(self) -> None:
        for stream_id in np.nonzero(self._touched)[0].tolist():
            self._touched[stream_id] = False
            self._sources[stream_id].assign(self._staged_payload(stream_id))


class _StatePrescan:
    """Vectorized "can this record flip any filter?" test.

    Reads the deployed bounds and believed memberships straight from the
    live :class:`~repro.state.table.StreamStateTable` columns — one table
    per standing query, written through by the source membership
    strategies — so there is nothing to poll, tap, or rebuild: the
    columns *are* the filter state at every instant.

    A record is quiescent iff, for every table, either the stream has no
    columnar filter in that table (that query cannot be proven to flip)
    or the filter provably keeps its believed membership: for scalar
    payloads an interval containment equal to the believed side, for
    vector payloads the table's conservative AABB quiescence mask
    (:meth:`~repro.state.table.StreamStateTable.
    geometric_quiescence_mask`).  Streams with no columnar filter in
    *any* table always dispatch — with no filters installed a source
    reports every change, and an undecidable region record must run
    exact geometry per-event.
    """

    def __init__(self, tables: Sequence[StreamStateTable]) -> None:
        self._tables = list(tables)

    def crossing_mask(self, ids_chunk, vals_chunk) -> np.ndarray:
        """Which records might flip a filter, evaluated columnarly.

        ``True`` marks a *potential* crossing — a record that must take
        the per-event path; ``False`` is a proof of quiescence against
        the live columns.  Without any table every record dispatches.
        """
        geometric = vals_chunk.ndim == 2
        potential: np.ndarray | None = None
        guarded: np.ndarray | None = None
        for table in self._tables:
            if geometric:
                scan = table.geo_scannable[ids_chunk]
                quiescent = table.geometric_quiescence_mask(
                    vals_chunk, ids_chunk
                )
                flips = scan & ~quiescent
            else:
                scan = table.scannable[ids_chunk]
                new_inside = (table.lower[ids_chunk] <= vals_chunk) & (
                    vals_chunk <= table.upper[ids_chunk]
                )
                flips = scan & (new_inside != table.inside[ids_chunk])
            potential = flips if potential is None else potential | flips
            guarded = scan if guarded is None else guarded | scan
        if potential is None or guarded is None:
            return np.ones(len(ids_chunk), dtype=bool)
        # Filterless streams report every change.
        potential |= ~guarded
        return potential
