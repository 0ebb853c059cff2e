"""Crash recovery: snapshot restore + journal replay = the same run.

:func:`recover_run` reconstructs a crashed durable run from its run
directory alone, in two steps:

1. **Restore a consistent cut.**  Prefer the latest snapshot the
   journal *marks* (a mark is only appended after the snapshot file is
   durably on disk, so a marked snapshot always loads); fall back mark
   by mark; with no usable snapshot, rebuild from the manifest — a
   pristine pre-init protocol clone plus the initial values — and rerun
   initialization, which is deterministic and therefore re-charges the
   exact initialization ledger.
2. **Replay the journaled suffix.**  Every event at or past the cut is
   in the journal (write-ahead: segments are journaled before they are
   applied), so replaying ``events[position:]`` through the ordinary
   session machinery *recomputes* the maintenance messages rather than
   trusting the journal's message frames.  The journal stays detached
   during this replay — recovery recomputes, it never re-journals.

Why the recovered ledger is byte-identical to the uninterrupted run's:
replay is deterministic (same sources, same protocol state, same event
order), batched replay is ledger-identical to per-event replay
(DESIGN.md §9), and segmentation cannot change a ledger (each segment's
event path drains the engine queue completely before the next begins).
The journal's own message frames double as an audit stream of what the
crashed process had charged, but the proof never leans on them.

Restored state tables are always RAM-backed — ``storage="mmap"`` plane
files reflect the instant of the crash (possibly *ahead* of the
journal's durable prefix, since memmap pages flush on the OS's
schedule), so reusing them could double-apply events.  The snapshot
pickles planes by value instead; a resumed mmap run therefore continues
on RAM planes.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time

from repro.api.report import RunReport
from repro.api.spec import Deployment
from repro.durability.journal import (
    Journal,
    JournalContents,
    JournaledLedger,
    load_journal,
)
from repro.durability.policy import DurabilityPolicy
from repro.durability.runner import (
    _build_report,
    _durability_extras,
    _merge_segment_stats,
    _replay_segments,
    build_durable_session,
)
from repro.runtime.session import ExecutionSession
from repro.sim.engine import SimulationEngine


@dataclasses.dataclass
class RecoveredRun:
    """A reconstructed session, caught up to the journal's last event.

    ``position`` is the number of trace records already applied (and
    durably journaled); :func:`resume_run` continues the trace from
    there.  ``snapshot_file`` names the snapshot the restore used,
    ``None`` when recovery rebuilt from the manifest.
    """

    session: ExecutionSession
    position: int
    manifest: dict
    policy: DurabilityPolicy
    snapshot_file: str | None
    scan_reason: str


def _load_manifest(run_dir: str) -> dict:
    path = os.path.join(run_dir, "manifest.pkl")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{run_dir} has no manifest.pkl: not a durable run directory"
        )
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _stub_trace(manifest: dict):
    """An event-less trace carrying only the initial values.

    The manifest path re-assembles the session exactly as the original
    run did — same builders, same initial values — then replays the
    journaled events instead of trace arrays.
    """
    import numpy as np

    from repro.streams.trace import StreamTrace

    return StreamTrace(
        initial_values=manifest["initial_values"],
        times=np.empty(0, dtype=np.float64),
        stream_ids=np.empty(0, dtype=np.int64),
        values=np.empty(0, dtype=np.float64),
        horizon=manifest["horizon"],
    )


def _restore_from_snapshot(
    policy: DurabilityPolicy, mark: dict
) -> tuple[ExecutionSession, int] | None:
    path = os.path.join(policy.snapshot_dir, mark["file"])
    try:
        with open(path, "rb") as handle:
            blob = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError):
        return None
    engine = SimulationEngine()
    if blob["engine_now"] > 0.0:
        # Empty queue: run() just advances the clock to the cut's time.
        engine.run(until=blob["engine_now"])
    channels = blob["channels"]
    session = ExecutionSession(
        sources=blob["sources"],
        ledger=blob["ledger"],
        engine=engine,
        channel=channels[0] if len(channels) == 1 else None,
        channels=channels,
        host=blob["host"],
    )
    return session, int(blob["position"])


def recover_run(run_dir: str) -> RecoveredRun:
    """Reconstruct the crashed run under *run_dir*; see module docs."""
    manifest = _load_manifest(run_dir)
    policy: DurabilityPolicy = manifest["policy"]
    contents: JournalContents = load_journal(policy.journal_path)

    session: ExecutionSession | None = None
    position = 0
    snapshot_file: str | None = None
    for mark in reversed(contents.snapshots):
        restored = _restore_from_snapshot(policy, mark)
        if restored is not None:
            session, position = restored
            snapshot_file = mark["file"]
            break
    if session is None:
        # Manifest path: deterministic re-initialization re-charges the
        # initialization ledger exactly; RAM planes always (see module
        # docs for why crashed mmap planes are never reopened).
        ram_policy = dataclasses.replace(policy, storage="ram")
        ledger = JournaledLedger()
        session = build_durable_session(
            _stub_trace(manifest),
            manifest["protocol"],
            manifest,
            ram_policy,
            ledger,
        )
        session.initialize(time=0.0)

    # Replay the journaled suffix with the journal detached: recovery
    # recomputes messages, it never re-journals them.
    if position < len(contents.times):
        session.replay(
            contents.times[position:],
            contents.stream_ids[position:],
            contents.values[position:],
            horizon=None,
            mode=manifest["replay_mode"],
            batch_size=manifest["batch_size"],
            min_chunk=manifest["min_chunk"],
        )
    scan_reason = contents.scan.reason if contents.scan is not None else "clean"
    return RecoveredRun(
        session=session,
        position=len(contents.times),
        manifest=manifest,
        policy=policy,
        snapshot_file=snapshot_file,
        scan_reason=scan_reason,
    )


def resume_run(run_dir: str, trace, progress=None) -> RunReport:
    """Recover the run under *run_dir* and finish it against *trace*.

    *trace* must be the original run's trace (the journal holds the
    applied prefix, the trace supplies the rest).  The journal reopens
    for append — its torn tail, if any, is physically truncated first —
    and the remaining records flow through the same WAL segment loop as
    an uninterrupted run, so the final ledger, answer, and journal are
    those of a run that never crashed.
    """
    started = time.perf_counter()
    rec = recover_run(run_dir)
    policy = rec.policy
    manifest = rec.manifest
    if trace.n_records < rec.position:
        raise ValueError(
            f"trace has {trace.n_records} records but the journal already "
            f"holds {rec.position}: wrong trace for this run directory"
        )

    journal = Journal.open(
        policy.journal_path,
        fsync=policy.fsync,
        fsync_interval=policy.fsync_interval,
    )
    ledger = rec.session.ledger
    ledger.attach_journal(journal)
    try:
        loop = _replay_segments(
            rec.session,
            journal,
            policy,
            trace,
            rec.position,
            manifest,
            progress=progress,
        )
    except BaseException:
        journal.simulate_crash()
        raise
    journal.close()
    ledger.detach_journal()

    durability = _durability_extras(policy, journal, loop, True)
    durability["recovery"] = {
        "position": rec.position,
        "snapshot_file": rec.snapshot_file,
        "scan_reason": rec.scan_reason,
    }
    extras = {"durability": durability}
    if loop["replay_parts"]:
        extras["replay"] = _merge_segment_stats(loop["replay_parts"])
    deployment = Deployment(
        topology=manifest["topology"],
        n_shards=manifest["n_shards"],
        replay_mode=manifest["replay_mode"],
        batch_size=manifest["batch_size"],
        min_chunk=manifest["min_chunk"],
        durable=policy,
    )
    return _build_report(
        rec.session, trace, deployment, manifest.get("label", ""), extras,
        started,
    )
