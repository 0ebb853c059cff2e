"""Outside-in span recorder: wraps the public functions of each layer.

Nothing in ``src/`` knows about tracing.  :class:`LayerTracer` patches
the methods named in :data:`LAYERS` on their classes for the length of
one traced run, records one span per call (name, start, end, parent) in
flat in-memory arrays, and puts the original methods back afterwards.
A layer's self time is its spans' durations minus the part covered by
their child spans, so the self times of all spans add up to the root
span's wall exactly.

Two rules keep the numbers honest:

* A call of a layer from directly inside the same layer (a subclass
  method calling ``super()``, or a method calling its sibling under the
  same layer name) opens no new span, so ``.calls`` counts entries into
  the layer, not hops inside it.
* A forked child process (the shard transport's workers) gets the
  original, unwrapped methods back at once: worker time is read from
  the transport's own counters, never from spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

#: Every protocol class, whose ``initialize`` and ``on_update`` are spans.
PROTOCOL_CLASSES = (
    ("repro.protocols.no_filter", "NoFilterProtocol"),
    ("repro.protocols.zt_nrp", "ZeroToleranceRangeProtocol"),
    ("repro.protocols.ft_nrp", "FractionToleranceRangeProtocol"),
    ("repro.protocols.rtp", "RankToleranceProtocol"),
    ("repro.protocols.zt_rp", "ZeroToleranceKnnProtocol"),
    ("repro.protocols.ft_rp", "FractionToleranceKnnProtocol"),
    ("repro.spatial.protocols", "SpatialNoFilterProtocol"),
    ("repro.spatial.protocols", "SpatialZeroRangeProtocol"),
    ("repro.spatial.protocols", "SpatialFractionRangeProtocol"),
    ("repro.spatial.protocols", "SpatialRankToleranceProtocol"),
    ("repro.spatial.protocols", "SpatialZeroKnnProtocol"),
    ("repro.spatial.protocols", "SpatialFractionKnnProtocol"),
)

#: Layer name -> (module, class, methods) targets.  A target missing
#: from the program (renamed or deleted) is skipped and reported on
#: stderr, so the benchmark keeps running across refactors.
LAYERS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "server.deploy": [
        ("repro.server.server", "Server", ("deploy",)),
        ("repro.spatial.server", "SpatialServer", ("deploy",)),
    ],
    "server.probe": [
        ("repro.server.server", "Server", ("probe",)),
        ("repro.spatial.server", "SpatialServer", ("probe",)),
    ],
    "server.probe_all": [
        ("repro.server.server", "Server", ("probe_all",)),
        ("repro.spatial.server", "SpatialServer", ("probe_all",)),
    ],
    "server.broadcast": [
        ("repro.server.server", "Server", ("broadcast",)),
    ],
    "server.coordinator": [
        (
            "repro.server.sharded",
            "ShardedServer",
            ("probe", "probe_all", "deploy", "broadcast"),
        ),
        (
            "repro.server.sharded",
            "ShardedSpatialServer",
            ("probe", "probe_all", "deploy"),
        ),
        (
            "repro.server.transport",
            "TransportShardedServer",
            ("probe", "probe_all", "deploy", "broadcast"),
        ),
        (
            "repro.server.transport",
            "SpatialTransportShardedServer",
            ("probe", "probe_all", "deploy", "broadcast"),
        ),
    ],
    "server.shard": [
        ("repro.server.sharded", "ShardServer", ("probe", "deploy")),
        ("repro.server.sharded", "SpatialShardServer", ("probe", "deploy")),
    ],
    "network.send_to_source": [
        ("repro.network.channel", "Channel", ("send_to_source",)),
        ("repro.network.latency", "LatencyChannel", ("send_to_source",)),
    ],
    "network.send_to_server": [
        ("repro.network.channel", "Channel", ("send_to_server",)),
        ("repro.network.latency", "LatencyChannel", ("send_to_server",)),
    ],
    "network.ledger": [
        (
            "repro.network.accounting",
            "MessageLedger",
            ("record", "record_kind"),
        ),
    ],
    "runtime.membership.install": [
        ("repro.runtime.membership", "ContainmentMembership", ("install",)),
        ("repro.runtime.membership", "IntervalMembership", ("install",)),
        ("repro.runtime.membership", "RegionMembership", ("install",)),
    ],
    "state.table.writes": [
        (
            "repro.state.table",
            "StreamStateTable",
            (
                "set_filter",
                "record_deploy",
                "record_container_deploy",
                "record_region_deploy",
            ),
        ),
    ],
    "state.table.reports": [
        (
            "repro.state.table",
            "StreamStateTable",
            ("record_report", "record_report_bulk"),
        ),
    ],
    "state.rank.reads": [
        (
            "repro.state.rank",
            "RankView",
            ("leaders", "leader_pairs", "order", "order_pairs"),
        ),
        ("repro.state.sharding", "ShardedRankView", ("leaders", "order")),
    ],
    "runtime.assemble": [
        (
            "repro.runtime.session",
            "ExecutionSession",
            (
                "for_streams",
                "for_streams_sharded",
                "for_spatial",
                "for_spatial_sharded",
            ),
        ),
    ],
    "streams.source_init": [
        ("repro.streams.source", "StreamSource", ("__init__",)),
        ("repro.spatial.source", "SpatialStreamSource", ("__init__",)),
    ],
    "runtime.initialize": [
        ("repro.runtime.session", "ExecutionSession", ("initialize",)),
    ],
    "protocols.initialize": [
        (module, cls, ("initialize",))
        for module, cls in PROTOCOL_CLASSES
    ],
    "runtime.replay": [
        ("repro.runtime.session", "ExecutionSession", ("replay",)),
    ],
    "streams.source_apply": [
        ("repro.runtime.source", "FilteredSource", ("apply",)),
    ],
    "protocols.on_update": [
        (module, cls, ("on_update",))
        for module, cls in PROTOCOL_CLASSES
    ],
    "transport.lifecycle": [
        (
            "repro.server.transport",
            "TransportShardedServer",
            ("launch", "close"),
        ),
    ],
    "transport.replay": [
        ("repro.server.transport", "TransportShardedServer", ("replay",)),
    ],
    "transport.bus": [
        ("repro.server.transport", "CoordinatorBus", ("post", "collect")),
    ],
}

#: Name of the root span the benchmark opens around ``Engine.run``.
ROOT = "api.run"


class SpanRecorder:
    """Spans of one traced run in flat arrays: name id, parent, start, end."""

    def __init__(self, names: list[str]) -> None:
        self.names = names
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Indices of the open spans, innermost last; -1 is "no span".
        self.stack = [-1]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) and self seconds.

        Also returns each name's span durations (``durations``), for
        percentiles.
        """
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - covered
        n_names = len(self.names)
        calls = np.bincount(spans["name"], minlength=n_names)
        total = np.bincount(spans["name"], weights=duration, minlength=n_names)
        self_s = np.bincount(spans["name"], weights=own, minlength=n_names)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
                "durations": duration[spans["name"] == i],
            }
            for i, name in enumerate(self.names)
        }


class LayerTracer:
    """Installs span wrappers on the :data:`LAYERS` targets, and removes them.

    Use as a context manager around one traced run; :attr:`recorder`
    holds that run's spans afterwards.
    """

    def __init__(self) -> None:
        self.names = [ROOT, *LAYERS]
        self.recorder = SpanRecorder(self.names)
        self._saved: list[tuple[type, str, object]] = []
        #: ``(class, method, name id)`` of every target found.
        self.targets: list[tuple[type, str, int]] = []
        missing = []
        for name_id, (layer, targets) in enumerate(LAYERS.items(), start=1):
            for module_name, class_name, methods in targets:
                module = importlib.import_module(module_name)
                cls = getattr(module, class_name, None)
                for method in methods:
                    if cls is None or method not in vars(cls):
                        missing.append(f"{layer}: {module_name}.{class_name}.{method}")
                    else:
                        self.targets.append((cls, method, name_id))
        if missing:
            print(
                "perfbench: trace targets not found (skipped): "
                + ", ".join(missing),
                file=sys.stderr,
            )
        os.register_at_fork(after_in_child=self._restore)

    def __enter__(self) -> "LayerTracer":
        self.recorder = SpanRecorder(self.names)
        for cls, method, name_id in self.targets:
            self._patch(cls, method, name_id)
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    @contextlib.contextmanager
    def root(self):
        """The root span, which the benchmark opens around ``Engine.run``."""
        index = self.recorder.open(self.names.index(ROOT))
        try:
            yield
        finally:
            self.recorder.close(index)

    def _restore(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def _patch(self, cls: type, method: str, name_id: int) -> None:
        original = vars(cls)[method]
        tracer = self
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # SpanRecorder.open/close, inlined: this runs once per call.
            rec = tracer.recorder
            stack = rec.stack
            top = stack[-1]
            if top >= 0 and rec.name[top] == name_id:
                return fn(*args, **kwargs)
            index = len(rec.start)
            rec.name.append(name_id)
            rec.parent.append(top)
            rec.end.append(0.0)
            stack.append(index)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[index] = clock()
                stack.pop()

        self._saved.append((cls, method, original))
        setattr(cls, method, classmethod(traced) if is_classmethod else traced)


def tail_percentile(samples: np.ndarray, beyond: int = 10) -> tuple[float, float]:
    """The highest sample with at least *beyond* samples above it.

    Returns ``(value, percentile)``; ``(0.0, 0.0)`` when there are no
    more than *beyond* samples.
    """
    n = len(samples)
    if n <= beyond:
        return 0.0, 0.0
    rank = n - 1 - beyond
    value = float(np.partition(samples, rank)[rank])
    return value, 100.0 * rank / (n - 1)
