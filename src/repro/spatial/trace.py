"""Replayable traces of vector-valued streams."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.streams.trace import require_finite


@dataclass
class SpatialTrace:
    """A workload over ``n`` streams of d-dimensional points.

    Attributes
    ----------
    initial_points:
        ``(n, d)`` matrix; row ``i`` is stream ``i``'s point at time 0.
    times, stream_ids:
        Parallel record arrays, time-sorted.
    points:
        ``(m, d)`` matrix of record payloads.
    horizon:
        Virtual end time.
    """

    initial_points: np.ndarray
    times: np.ndarray
    stream_ids: np.ndarray
    points: np.ndarray
    horizon: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.initial_points = np.asarray(self.initial_points, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        self.stream_ids = np.asarray(self.stream_ids, dtype=np.int64)
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.initial_points.ndim != 2:
            raise ValueError("initial_points must be an (n, d) matrix")
        if len(self.times) != len(self.stream_ids) or len(self.times) != len(
            self.points
        ):
            raise ValueError("record arrays must have equal length")
        if len(self.points) and self.points.shape[1] != self.dimension:
            raise ValueError("record dimension differs from initial points")
        require_finite(
            self, ("initial_points", "times", "points", "horizon")
        )
        if len(self.times) and np.any(np.diff(self.times) < 0):
            raise ValueError("trace records must be sorted by time")
        if len(self.times) and self.horizon < self.times[-1]:
            raise ValueError("horizon precedes the last record")
        if len(self.times):
            bad = (self.stream_ids < 0) | (
                self.stream_ids >= self.n_streams
            )
            if np.any(bad):
                raise ValueError("record references an unknown stream id")

    @property
    def n_streams(self) -> int:
        return self.initial_points.shape[0]

    @property
    def dimension(self) -> int:
        return self.initial_points.shape[1]

    @property
    def n_records(self) -> int:
        return len(self.times)

    def __len__(self) -> int:
        return self.n_records

    def __iter__(self) -> Iterator[tuple[float, int, np.ndarray]]:
        for i in range(self.n_records):
            yield float(self.times[i]), int(self.stream_ids[i]), self.points[i]

    def truncate(self, horizon: float) -> "SpatialTrace":
        """Keep records at or before *horizon*."""
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        keep = self.times <= horizon
        return SpatialTrace(
            initial_points=self.initial_points.copy(),
            times=self.times[keep],
            stream_ids=self.stream_ids[keep],
            points=self.points[keep],
            horizon=horizon,
            metadata={**self.metadata, "truncated_to": horizon},
        )
