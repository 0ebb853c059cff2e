"""Continuous validation of tolerance constraints.

The paper's Correctness Requirements (Section 3.5):

1. at every point in time with no resolution in progress, all running
   queries remain valid within their tolerance constraints;
2. immediately after a resolution completes, the constraint is satisfied
   (values assumed frozen during resolution).

Our default channel delivers messages synchronously, so "resolution" is
atomic within a simulation event; checking right after each applied trace
record therefore validates both requirements at every instant the paper
quantifies over.

Under a latency-modeled channel requirement 2 is deliberately relaxed, so
the checker gains a *staleness-window mode*: pass a
:class:`~repro.correctness.staleness.StalenessWindow` and every observed
violation is classified as ``inherent-latency`` (the network was active —
some data-plane message in flight or recently delivered, so belief and
truth legitimately diverge) or ``protocol-bug`` (the network was quiet,
the state is indistinguishable from a zero-latency quiescent instant, and
the protocol's own guarantee should have held).  See
``repro.correctness.staleness`` for why the split is network-level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.correctness.oracle import Oracle
from repro.correctness.staleness import (
    INHERENT_LATENCY,
    PROTOCOL_BUG,
    StalenessWindow,
    strict_should_raise,
)
from repro.queries.base import EntityQuery, RankBasedQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance


class ToleranceViolationError(AssertionError):
    """Raised in strict mode when a protocol breaks its tolerance."""


@dataclass(frozen=True)
class Violation:
    """One observed tolerance breach.

    ``classification`` is empty outside staleness-window mode; in it,
    either ``"inherent-latency"`` or ``"protocol-bug"``.
    """

    time: float
    reason: str
    classification: str = ""


@dataclass
class CheckerReport:
    """Aggregate outcome of a checked run.

    ``violations`` retains at most ``max_violations`` detailed records;
    ``violation_count`` counts every breach regardless.
    """

    checks: int = 0
    violation_count: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: Staleness-window mode tallies; both stay zero outside it.
    classified: bool = False
    inherent_count: int = 0
    protocol_bug_count: int = 0

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    @property
    def latency_clean(self) -> bool:
        """In staleness-window mode: no violation blamed on the protocol."""
        return self.protocol_bug_count == 0

    @property
    def violation_rate(self) -> float:
        if self.checks == 0:
            return 0.0
        return self.violation_count / self.checks


class ToleranceChecker:
    """Validates a protocol's answer set against ground truth.

    Parameters
    ----------
    oracle:
        The ground-truth value store.
    query:
        The standing query under test.
    tolerance:
        Either a :class:`RankTolerance` or a :class:`FractionTolerance`;
        ``None`` demands the exact answer (zero tolerance).
    answer_of:
        Callable returning the protocol's current answer set.
    every:
        Check every *every*-th invocation (1 = every event); lets large
        benchmark runs sample instead of paying O(n) per event.
    strict:
        Raise :class:`ToleranceViolationError` on the first breach instead
        of accumulating it — the mode unit tests use.  In
        staleness-window mode only ``protocol-bug`` violations raise;
        inherent-latency breaches are the phenomenon under study and are
        accumulated even when strict.
    max_violations:
        Retain at most this many violation records (counters keep going).
    staleness:
        A :class:`~repro.correctness.staleness.StalenessWindow` enabling
        classification of every violation; ``None`` (the default, and
        the only sound choice under the synchronous channel) records
        violations unclassified.
    evaluate:
        Override of the built-in scalar evaluation: a callable returning
        a violation reason string or ``None``.  The spatial stack plugs
        its geometric evaluation in here, so classification, sampling,
        truncation, and strict handling live in one place.  With an
        override, ``oracle``/``query``/``tolerance``/``answer_of`` are
        unused and may be ``None``.
    error_cls:
        The exception type strict mode raises — stacks keep their own
        (e.g. ``SpatialToleranceViolationError``).
    check_offset:
        Which of each ``every``-length window's ticks fires, in
        ``[0, every)``.  The scalar engine checks ticks ``1, 1+every,
        ...`` (offset 0); the spatial stack historically checked ticks
        ``every, 2*every, ...`` (offset ``every - 1``), and its check
        count — and thus its strict-mode behaviour — is part of the
        recorded results, so the phase is a parameter rather than a
        convention change.
    """

    def __init__(
        self,
        oracle: Oracle | None,
        query: EntityQuery | None,
        tolerance: RankTolerance | FractionTolerance | None,
        answer_of: Callable[[], Iterable[int]] | None,
        every: int = 1,
        strict: bool = False,
        max_violations: int = 100,
        staleness: StalenessWindow | None = None,
        evaluate: Callable[[], str | None] | None = None,
        error_cls: type[AssertionError] = ToleranceViolationError,
        check_offset: int = 0,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if not 0 <= check_offset < every:
            raise ValueError("check_offset must be in [0, every)")
        if evaluate is None:
            if oracle is None or query is None or answer_of is None:
                raise TypeError(
                    "oracle, query and answer_of are required without an "
                    "evaluate override"
                )
            if isinstance(tolerance, RankTolerance) and not isinstance(
                query, RankBasedQuery
            ):
                raise TypeError("rank tolerance requires a rank-based query")
        self.oracle = oracle
        self.query = query
        self.tolerance = tolerance
        self.answer_of = answer_of
        self.every = every
        self.strict = strict
        self.max_violations = max_violations
        self.staleness = staleness
        self.error_cls = error_cls
        self.check_offset = check_offset
        if evaluate is not None:
            self._evaluate = evaluate
        self.report = CheckerReport(classified=staleness is not None)
        self._tick = 0

    def check(self, time: float) -> Violation | None:
        """Validate the current answer; honours the sampling interval."""
        self._tick += 1
        if (self._tick - 1) % self.every != self.check_offset:
            return None
        return self.check_now(time)

    def check_now(self, time: float) -> Violation | None:
        """Validate immediately, ignoring the sampling interval."""
        self.report.checks += 1
        reason = self._evaluate()
        if reason is None:
            return None
        classification = ""
        if self.staleness is not None:
            classification = self.staleness.classify(time)
            if classification == INHERENT_LATENCY:
                self.report.inherent_count += 1
            else:
                assert classification == PROTOCOL_BUG
                self.report.protocol_bug_count += 1
        violation = Violation(
            time=time, reason=reason, classification=classification
        )
        self.report.violation_count += 1
        if len(self.report.violations) < self.max_violations:
            self.report.violations.append(violation)
        if self.strict and strict_should_raise(classification):
            raise self.error_cls(f"t={time}: {reason}")
        return violation

    def _evaluate(self) -> str | None:
        assert self.answer_of is not None and self.oracle is not None
        answer = set(int(i) for i in self.answer_of())
        if isinstance(self.tolerance, RankTolerance):
            assert isinstance(self.query, RankBasedQuery)
            return self.tolerance.violation(
                answer, self.query, self.oracle.values
            )
        true_set = self.oracle.true_answer(self.query)
        if isinstance(self.tolerance, FractionTolerance):
            return self.tolerance.violation(answer, true_set)
        # Zero tolerance: answers must match exactly.
        if answer != true_set:
            extra = answer - true_set
            missing = true_set - answer
            return (
                f"exact answer required: {len(extra)} spurious, "
                f"{len(missing)} missing"
            )
        return None
