"""The repository benchmark: four workloads through ``Engine.run``.

Run from the repository root::

    python3 perfbench/run.py --workload topk-rtp --seed 0 --seconds 20 --trace 0

Each invocation runs one workload in a fresh process, closed loop with
one client: the next ``Engine.run`` starts when the previous one ends.

``--trace 0`` reports the end-to-end metrics, with no tracing code
installed: ``run_s`` (median host-scaled ``Engine.run`` wall over the
repeats made in ``--seconds``, trace already materialized), ``setup_s``
(median host-scaled ``Workload.materialize()`` wall of fresh workload
values, one made before each repeat and not counted in ``run_s``).  A
host-scaled wall is the measured wall times
``CALIBRATION_REFERENCE_S`` ÷ the mean wall of a fixed pure-Python loop
run just before and just after it (:func:`host_scaled`), so that a
change in the host's speed cancels out; the measured walls are printed
on standard output.  Then ``peak_rss_mb`` (this
process's peak resident set plus the largest peak among its finished
child processes, the shard transport's workers), ``messages_total`` and
``maintenance_messages``.

``--trace 1`` reports the per-layer metrics: it times untraced runs for
half of ``--seconds`` and runs with :class:`tracer.LayerTracer` for the
other half, and reports the traced run with the median wall.  Its spans
and per-layer totals are written to ``perfbench/out/``.

Every run is checked: its ledger snapshot and final answer must equal
the reference, pinned in ``pinned.json`` for seed 0 and otherwise
computed by an untimed ``Deployment.single(replay_mode="event")`` run of
the same input after the timed runs (and after ``peak_rss_mb`` is
read).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
PINNED = HERE / "pinned.json"

#: Floor on timed ``Engine.run`` repeats, however short ``--seconds``.
MIN_REPEATS = 3
#: Floor on untraced and on traced repeats in a ``--trace 1`` run.
MIN_TRACE_REPEATS = 2

#: Iterations of the calibration loop (:func:`calibrate`).
CALIBRATION_LOOPS = 1_000_000
#: The calibration loop's wall on the reference host, a 2-vCPU Xeon
#: virtual machine.  ``run_s`` and ``setup_s`` are scaled to it; changing
#: it rescales both, so it stays fixed.
CALIBRATION_REFERENCE_S = 0.08

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "messages_total": "msgs",
    "maintenance_messages": "msgs",
}


#: Share of the traced wall per group: the layers' self times, or the
#: inclusive time of the ``total_s`` layers.  The control plane is the
#: server-to-source direction: constraint installs and probes.
SHARES = {
    "control_plane": (
        "server.deploy",
        "server.probe",
        "server.probe_all",
        "server.broadcast",
        "server.coordinator",
        "server.shard",
        "network.send_to_source",
        "runtime.membership.install",
        "state.table.writes",
    ),
    "assembly_init": ("runtime.assemble.total_s", "runtime.initialize.total_s"),
    "replay_self": ("runtime.replay",),
}

#: ``RunReport.extras["replay"]`` counters reported as-is.
REPLAY_COUNTERS = (
    "records",
    "dispatches",
    "staged",
    "chunk_scans",
    "suffix_rescans",
)
#: Metric -> (unit, key) of ``RunReport.extras["replay"]["transport"]``.
TRANSPORT_COUNTERS = {
    "epochs": ("count", "epochs"),
    "posts": ("count", "posts"),
    "bytes_out": ("bytes", "bytes_out"),
    "bytes_in": ("bytes", "bytes_in"),
    "recv_wait_s": ("s", "recv_wait_seconds"),
}


def per_layer_units(layers) -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, which direction is better)."""
    out: dict[str, tuple[str, str]] = {}
    for layer in layers:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    for layer in ("runtime.initialize", "protocols.initialize", "runtime.replay"):
        out[f"{layer}.total_s"] = ("s", "lower")
    out["protocols.on_update.p50_us"] = ("us", "lower")
    out["protocols.on_update.tail_us"] = ("us", "lower")
    for counter in REPLAY_COUNTERS:
        out[f"runtime.replay.{counter}"] = ("count", "lower")
    out["runtime.replay.dispatch_ratio"] = ("ratio", "lower")
    for name, (unit, _) in TRANSPORT_COUNTERS.items():
        out[f"transport.{name}"] = (unit, "lower")
    out["transport.worker_busy_s.max"] = ("s", "lower")
    out["transport.worker_busy_s.sum"] = ("s", "lower")
    out["transport.worker_skew"] = ("ratio", "lower")
    out["transport.modeled_parallel_s"] = ("s", "lower")
    out["api.untraced_run_s"] = ("s", "lower")
    out["api.traced_wall_s"] = ("s", "lower")
    out["api.trace_overhead"] = ("ratio", "lower")
    out["api.run.self_s"] = ("s", "lower")
    out["api.coverage"] = ("ratio", "higher")
    for group in SHARES:
        out[f"share.{group}"] = ("ratio", "lower")
    return out


# ----------------------------------------------------------------------
# Outcomes and the reference
# ----------------------------------------------------------------------
def outcome(report) -> dict:
    """What a run must reproduce: its ledger and its final answer."""
    answer = sorted(int(i) for i in report.final_answer)
    return {
        "ledger": {
            "initialization": {
                kind.value: int(count)
                for kind, count in sorted(
                    report.ledger.initialization.items(),
                    key=lambda item: item[0].value,
                )
            },
            "maintenance": {
                kind.value: int(count)
                for kind, count in sorted(
                    report.ledger.maintenance.items(),
                    key=lambda item: item[0].value,
                )
            },
        },
        "answer_size": len(answer),
        "answer_sha256": hashlib.sha256(
            ",".join(map(str, answer)).encode()
        ).hexdigest(),
    }


def pinned_reference(name: str, seed: int, size: str) -> dict | None:
    """The outcome pinned in ``pinned.json`` for this input, if any."""
    if not PINNED.is_file():
        return None
    pinned = json.loads(PINNED.read_text())
    return pinned.get(size, {}).get(name, {}).get(str(seed))


def run_reference(bench, workload) -> dict:
    """The differential oracle: the same input on one server, per event."""
    from repro import Deployment, Engine

    report = Engine().run(
        bench.spec(), workload, Deployment.single(replay_mode="event")
    )
    return outcome(report)


# ----------------------------------------------------------------------
# Timed runs
# ----------------------------------------------------------------------
class Runner:
    """Runs one workload input repeatedly; checks every run afterwards."""

    def __init__(self, bench, workload) -> None:
        self.bench = bench
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        #: The outcome of every run that returned, checked by :meth:`check`.
        self.outcomes: list[dict] = []

    def once(self, tracer=None):
        """One ``Engine.run``; returns ``(wall, counters)`` or None.

        Only the run's outcome and its message and replay counters are
        kept, not its report, so that the reports of earlier repeats do
        not add to the peak resident set.
        """
        from repro import Engine

        self.attempted += 1
        spec, deployment = self.bench.spec(), self.bench.deployment()
        # Start from a collected heap: the previous repeat's garbage is then
        # neither collected inside this timed run nor added to the peak
        # resident set, which would otherwise grow with the repeat count.
        gc.collect()
        try:
            if tracer is None:
                started = time.perf_counter()
                report = Engine().run(spec, self.workload, deployment)
                wall = time.perf_counter() - started
            else:
                with tracer:
                    started = time.perf_counter()
                    with tracer.root():
                        report = Engine().run(spec, self.workload, deployment)
                    wall = time.perf_counter() - started
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        self.outcomes.append(outcome(report))
        return wall, {
            "total_messages": report.total_messages,
            "maintenance_messages": report.maintenance_messages,
            "replay": report.extras.get("replay", {}),
        }

    def repeat(self, seconds: float, floor: int, tracer=None, between=None):
        """Closed-loop repeats until *seconds* pass and *floor* are done.

        Returns ``(wall, counters, extra)`` per repeat that returned.
        *between*, if given, is called before each repeat; *extra* is the
        tracer's recorder when tracing, else what *between* returned.
        """
        done = []
        deadline = time.perf_counter() + seconds
        tries = 0
        while tries < floor or time.perf_counter() < deadline:
            tries += 1
            extra = between() if between is not None else None
            result = self.once(tracer)
            if result is None:
                continue
            done.append((*result, tracer.recorder if tracer else extra))
        return done

    def check(self, seed: int, size: str) -> None:
        """Compare every run's outcome with the reference, counting and
        printing each mismatch.  Runs last, so that the untimed reference
        run stays out of the timings and out of ``peak_rss_mb``."""
        expected = pinned_reference(self.bench.name, seed, size)
        if expected is None:
            try:
                expected = run_reference(self.bench, self.workload)
            except Exception:
                traceback.print_exc()
        for index, got in enumerate(self.outcomes, 1):
            if expected is None or got != expected:
                self.failed += 1
                print(
                    f"perfbench: {self.bench.name} run {index} does not "
                    f"match the reference\n  got      {json.dumps(got)}\n"
                    f"  expected {json.dumps(expected)}",
                    file=sys.stderr,
                )
        self.outcomes = []


def median_entry(entries: list) -> tuple:
    """The entry whose wall (first field) is the lower median, so that the
    metrics read off it come from one real run."""
    ordered = sorted(entries, key=lambda entry: entry[0])
    return ordered[(len(ordered) - 1) // 2]


def warm_up(bench) -> None:
    """Pay lazy imports and first-call costs on the small input, untimed."""
    from repro import Engine
    from workloads import make_workload

    Engine().run(bench.spec(), make_workload(bench, "small"), bench.deployment())


def calibrate() -> float:
    """Wall of a fixed pure-Python loop that touches no program code."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - started


def host_scaled(wall: float, calibration: float) -> float:
    """*wall* as it would read if the calibration loop took
    :data:`CALIBRATION_REFERENCE_S`: a wall scaled by the host's speed."""
    return wall * CALIBRATION_REFERENCE_S / calibration


def materialize_timed(bench, size: str):
    """Materialize a fresh workload value; returns the trace and its wall."""
    from workloads import make_workload

    workload = make_workload(bench, size)
    started = time.perf_counter()
    trace = workload.materialize()
    return trace, time.perf_counter() - started


# ----------------------------------------------------------------------
# The two kinds of benchmark run
# ----------------------------------------------------------------------
def end_to_end(bench, args) -> tuple[Runner, dict]:
    from repro import Workload
    from workloads import make_workload, relabel

    warm_up(bench)
    trace = make_workload(bench, args.size).materialize()
    workload = Workload.from_trace(relabel(trace, args.seed))
    del trace
    # Set-up samples are spread over the whole window, one before each
    # repeat, so that they see the same host as the runs do.  A
    # calibration loop runs on either side of every set-up sample and
    # every repeat; each wall is scaled by the mean of the two around it.
    setup_walls: list[float] = []
    calibrations: list[float] = []

    def setup_sample() -> int:
        calibrations.append(calibrate())
        setup_walls.append(materialize_timed(bench, args.size)[1])
        calibrations.append(calibrate())
        return len(calibrations) - 1

    def around(index: int) -> float:
        return (calibrations[index] + calibrations[index + 1]) / 2

    runner = Runner(bench, workload)
    runs = runner.repeat(args.seconds, MIN_REPEATS, between=setup_sample)
    calibrations.append(calibrate())
    walls = [wall for wall, _, _ in runs]
    metrics = {name: 0.0 for name in END_TO_END}
    if runs:
        counters = runs[0][1]
        metrics.update(
            run_s=statistics.median(
                host_scaled(wall, around(index)) for wall, _, index in runs
            ),
            messages_total=float(counters["total_messages"]),
            maintenance_messages=float(counters["maintenance_messages"]),
        )
        print(
            f"{bench.name}: run_s {metrics['run_s']:.4f}; measured wall "
            f"median {statistics.median(walls):.4f} over {len(walls)} runs: "
            + " ".join(f"{wall:.4f}" for wall in walls)
        )
    metrics["setup_s"] = statistics.median(
        host_scaled(wall, around(2 * sample))
        for sample, wall in enumerate(setup_walls)
    )
    print(
        f"{bench.name}: setup_s {metrics['setup_s']:.4f}; measured wall "
        f"median {statistics.median(setup_walls):.4f} over "
        f"{len(setup_walls)} materializations: "
        + " ".join(f"{t:.4f}" for t in setup_walls)
    )
    print(
        f"{bench.name}: calibration loop median "
        f"{statistics.median(calibrations):.4f} s (reference "
        f"{CALIBRATION_REFERENCE_S} s) over {len(calibrations)}: "
        + " ".join(f"{t:.4f}" for t in calibrations)
    )
    metrics["peak_rss_mb"] = peak_rss_mb()
    runner.check(args.seed, args.size)
    return runner, metrics


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest one among its
    finished children (``ru_maxrss`` of ``RUSAGE_CHILDREN`` is a maximum,
    not a sum).  The shard transport's forked workers are such children:
    they are joined when a run closes."""
    peak_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return peak_kib / 1024.0


def per_layer(bench, args) -> tuple[Runner, dict]:
    from repro import Workload
    from tracer import LAYERS, ROOT, LayerTracer, tail_percentile
    from workloads import relabel

    warm_up(bench)
    trace, _ = materialize_timed(bench, args.size)
    workload = Workload.from_trace(relabel(trace, args.seed))
    del trace
    runner = Runner(bench, workload)
    plain = runner.repeat(args.seconds / 2, MIN_TRACE_REPEATS)
    traced = runner.repeat(
        args.seconds / 2, MIN_TRACE_REPEATS, tracer=LayerTracer()
    )
    runner.check(args.seed, args.size)
    units = per_layer_units(LAYERS)
    metrics = {name: 0.0 for name in units}
    if not plain or not traced:
        return runner, metrics
    untraced_s = statistics.median(wall for wall, *_ in plain)
    plain_wall, plain_counters, _ = median_entry(plain)
    _, _, recorder = median_entry(traced)

    totals = recorder.layer_totals()
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = float(totals[layer]["calls"])
        metrics[f"{layer}.self_s"] = totals[layer]["self_s"]
    for layer in ("runtime.initialize", "protocols.initialize", "runtime.replay"):
        metrics[f"{layer}.total_s"] = totals[layer]["total_s"]
    reactions = totals["protocols.on_update"]["durations"] * 1e6
    if len(reactions):
        metrics["protocols.on_update.p50_us"] = float(
            statistics.median(reactions)
        )
    tail, tail_pct = tail_percentile(reactions)
    metrics["protocols.on_update.tail_us"] = tail
    print(
        f"{bench.name}: protocols.on_update.tail_us {tail:.1f} at percentile "
        f"{tail_pct:.2f} of {len(reactions)} reactions"
    )

    replay = plain_counters["replay"]
    for counter in REPLAY_COUNTERS:
        metrics[f"runtime.replay.{counter}"] = float(replay.get(counter, 0))
    if replay.get("records"):
        metrics["runtime.replay.dispatch_ratio"] = (
            replay.get("dispatches", 0) / replay["records"]
        )
    transport = replay.get("transport")
    if transport:
        for name, (_, key) in TRANSPORT_COUNTERS.items():
            metrics[f"transport.{name}"] = float(transport.get(key, 0))
        busy = transport.get("worker_busy_seconds") or [0.0]
        metrics["transport.worker_busy_s.max"] = max(busy)
        metrics["transport.worker_busy_s.sum"] = sum(busy)
        if sum(busy) > 0:
            metrics["transport.worker_skew"] = max(busy) / (sum(busy) / len(busy))
        # Capacity model beside the measured wall, never in its place:
        # coordinator time not spent waiting, plus the busiest worker.
        metrics["transport.modeled_parallel_s"] = (
            plain_wall - float(transport.get("recv_wait_seconds", 0.0)) + max(busy)
        )

    root = totals[ROOT]
    metrics["api.untraced_run_s"] = untraced_s
    metrics["api.traced_wall_s"] = root["total_s"]
    metrics["api.trace_overhead"] = root["total_s"] / untraced_s
    metrics["api.run.self_s"] = root["self_s"]
    metrics["api.coverage"] = 1.0 - root["self_s"] / root["total_s"]
    for group, members in SHARES.items():
        seconds = 0.0
        for member in members:
            if member.endswith(".total_s"):
                seconds += totals[member.removesuffix(".total_s")]["total_s"]
            else:
                seconds += totals[member]["self_s"]
        metrics[f"share.{group}"] = seconds / root["total_s"]

    print_shares(bench.name, totals, root["total_s"])
    write_spans(bench.name, args.seed, recorder, metrics, tail_pct)
    return runner, metrics


def print_shares(name: str, totals: dict, wall: float) -> None:
    print(f"{name}: traced wall {wall:.4f} s; self time by layer:")
    for layer, row in sorted(totals.items(), key=lambda item: -item[1]["self_s"]):
        if row["calls"]:
            print(
                f"  {layer:<28} {row['self_s']:9.4f} s "
                f"{100 * row['self_s'] / wall:6.2f}%  calls {row['calls']}"
            )


def write_spans(
    name: str, seed: int, recorder, metrics: dict, tail_pct: float
) -> None:
    """Write one traced run's spans and per-layer metrics under ``out/``
    (one file pair per workload, replaced by the next traced run)."""
    import numpy as np

    OUT.mkdir(exist_ok=True)
    np.savez(
        OUT / f"{name}.spans.npz",
        names=np.array(recorder.names),
        seed=seed,
        **recorder.arrays(),
    )
    (OUT / f"{name}.layers.json").write_text(
        json.dumps(
            {
                "seed": seed,
                "metrics": metrics,
                "protocols.on_update.tail_pct": tail_pct,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        default="full",
        help="'full' (the benchmark) or 'small' (the self-test's inputs)",
    )
    parser.add_argument(
        "--reference",
        action="store_true",
        help="print the single/event reference outcome as JSON and exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {REPO / 'src' / 'repro'} "
            "is missing",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(REPO / "src"))
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS or args.size not in SIZES:
        print(
            f"perfbench: choose --workload from {sorted(WORKLOADS)} and "
            f"--size from {SIZES}",
            file=sys.stderr,
        )
        return 2
    bench = WORKLOADS[args.workload]
    if args.reference:
        from repro import Workload
        from workloads import make_workload, relabel

        trace = relabel(make_workload(bench, args.size).materialize(), args.seed)
        print(json.dumps(run_reference(bench, Workload.from_trace(trace))))
        return 0

    if args.trace:
        from tracer import LAYERS

        runner, metrics = per_layer(bench, args)
        units = {name: unit for name, (unit, _) in per_layer_units(LAYERS).items()}
    else:
        runner, metrics = end_to_end(bench, args)
        units = END_TO_END
    print(
        f"{bench.name}: attempted {runner.attempted} failed {runner.failed} "
        f"error_rate {runner.failed / max(runner.attempted, 1):.4f}"
    )
    print(
        json.dumps(
            {
                "correct": runner.failed == 0 and runner.attempted > 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
