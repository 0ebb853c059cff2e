"""Ground truth for vector-valued streams, and the spatial tolerance test."""

from __future__ import annotations

import numpy as np

from repro.spatial.queries import SpatialKnnQuery, SpatialRangeQuery
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance


class SpatialToleranceViolationError(AssertionError):
    """Raised in strict mode when a spatial protocol breaks tolerance."""


class SpatialOracle:
    """Tracks the true point of every stream."""

    def __init__(self, initial_points: np.ndarray) -> None:
        self._points = np.asarray(initial_points, dtype=np.float64).copy()
        if self._points.ndim != 2:
            raise ValueError("initial_points must be an (n, d) matrix")

    @property
    def points(self) -> np.ndarray:
        view = self._points.view()
        view.flags.writeable = False
        return view

    def apply(self, stream_id: int, point: np.ndarray) -> None:
        self._points[stream_id] = point

    def true_answer(
        self, query: SpatialRangeQuery | SpatialKnnQuery
    ) -> frozenset[int]:
        return query.true_answer(self._points)


def evaluate_spatial(
    protocol,
    oracle: SpatialOracle,
    query: SpatialRangeQuery | SpatialKnnQuery,
    tolerance: RankTolerance | FractionTolerance | None,
) -> str | None:
    """Why *protocol*'s answer breaks *tolerance* now, or ``None``."""
    answer = set(protocol.answer)
    if isinstance(tolerance, RankTolerance):
        assert isinstance(query, SpatialKnnQuery)
        if len(answer) != tolerance.k:
            return f"|A| = {len(answer)}, expected exactly k = {tolerance.k}"
        order = query.ranked_ids(oracle.points)
        admissible = set(int(i) for i in order[: tolerance.eps])
        stragglers = answer - admissible
        if stragglers:
            return f"stream {min(stragglers)} ranks worse than {tolerance.eps}"
        return None
    true_set = oracle.true_answer(query)
    if isinstance(tolerance, FractionTolerance):
        return tolerance.violation(answer, true_set)
    if answer != true_set:
        return (
            f"exact answer required: {len(answer - true_set)} spurious, "
            f"{len(true_set - answer)} missing"
        )
    return None
