"""Tests for spatial traces and the moving-objects workload."""

import numpy as np
import pytest

from repro.spatial.trace import SpatialTrace
from repro.spatial.workloads import (
    MovingObjectsConfig,
    generate_moving_objects_trace,
)


class TestSpatialTrace:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SpatialTrace(
                initial_points=np.zeros(3),  # not a matrix
                times=np.array([]),
                stream_ids=np.array([]),
                points=np.empty((0, 2)),
                horizon=1.0,
            )
        with pytest.raises(ValueError):
            SpatialTrace(
                initial_points=np.zeros((2, 2)),
                times=np.array([2.0, 1.0]),  # unsorted
                stream_ids=np.array([0, 1]),
                points=np.zeros((2, 2)),
                horizon=3.0,
            )
        with pytest.raises(ValueError):
            SpatialTrace(
                initial_points=np.zeros((2, 2)),
                times=np.array([1.0]),
                stream_ids=np.array([5]),  # unknown stream
                points=np.zeros((1, 2)),
                horizon=2.0,
            )
        with pytest.raises(ValueError):
            SpatialTrace(
                initial_points=np.zeros((2, 2)),
                times=np.array([1.0]),
                stream_ids=np.array([0]),
                points=np.zeros((1, 3)),  # wrong dimension
                horizon=2.0,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "column", ["initial_points", "times", "points", "horizon"]
    )
    def test_non_finite_columns_rejected(self, column, bad):
        fields = {
            "initial_points": np.zeros((2, 2)),
            "times": np.array([1.0, 2.0]),
            "stream_ids": np.array([0, 1]),
            "points": np.ones((2, 2)),
            "horizon": 3.0,
        }
        if column == "horizon":
            fields["horizon"] = bad
        else:
            fields[column][-1] = bad
        with pytest.raises(ValueError, match=f"{column} must be finite"):
            SpatialTrace(**fields)

    def test_iteration_and_truncate(self):
        trace = SpatialTrace(
            initial_points=np.zeros((2, 2)),
            times=np.array([1.0, 2.0]),
            stream_ids=np.array([0, 1]),
            points=np.array([[1.0, 1.0], [2.0, 2.0]]),
            horizon=3.0,
        )
        records = list(trace)
        assert records[0][0] == 1.0
        assert records[0][1] == 0
        truncated = trace.truncate(1.5)
        assert truncated.n_records == 1


class TestMovingObjects:
    def test_deterministic(self):
        config = MovingObjectsConfig(n_objects=20, horizon=100.0, seed=4)
        a = generate_moving_objects_trace(config)
        b = generate_moving_objects_trace(config)
        np.testing.assert_array_equal(a.points, b.points)

    def test_positions_stay_in_extent(self):
        trace = generate_moving_objects_trace(
            MovingObjectsConfig(
                n_objects=30, horizon=300.0, sigma=150.0, extent=1000.0, seed=1
            )
        )
        assert np.all(trace.points >= 0.0)
        assert np.all(trace.points <= 1000.0)
        assert np.all(trace.initial_points >= 0.0)
        assert np.all(trace.initial_points <= 1000.0)

    def test_dimension_parameter(self):
        trace = generate_moving_objects_trace(
            MovingObjectsConfig(n_objects=5, dimension=3, horizon=50.0)
        )
        assert trace.dimension == 3
        assert trace.points.shape[1] == 3

    def test_record_rate(self):
        config = MovingObjectsConfig(
            n_objects=50, horizon=400.0, mean_interarrival=20.0, seed=2
        )
        trace = generate_moving_objects_trace(config)
        expected = 50 * 400.0 / 20.0
        assert expected * 0.85 < trace.n_records < expected * 1.15

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MovingObjectsConfig(n_objects=0)
        with pytest.raises(ValueError):
            MovingObjectsConfig(dimension=0)
        with pytest.raises(ValueError):
            MovingObjectsConfig(sigma=-1.0)

    def test_override_kwargs(self):
        trace = generate_moving_objects_trace(
            MovingObjectsConfig(n_objects=5, horizon=50.0), n_objects=7
        )
        assert trace.n_streams == 7
