"""Unit + property tests for trace containers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.streams.trace import StreamTrace, TraceRecord, merge_traces


def make_trace(times, ids, values, n_streams=5, horizon=None):
    times = np.asarray(times, dtype=float)
    return StreamTrace(
        initial_values=np.zeros(n_streams),
        times=times,
        stream_ids=np.asarray(ids, dtype=np.int64),
        values=np.asarray(values, dtype=float),
        horizon=horizon if horizon is not None else (times[-1] if len(times) else 0.0),
    )


class TestValidation:
    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError):
            make_trace([2.0, 1.0], [0, 1], [1.0, 2.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            StreamTrace(
                initial_values=np.zeros(2),
                times=np.array([1.0]),
                stream_ids=np.array([0, 1]),
                values=np.array([1.0]),
                horizon=2.0,
            )

    def test_unknown_stream_id_rejected(self):
        with pytest.raises(ValueError):
            make_trace([1.0], [7], [1.0], n_streams=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["initial_values", "times", "values"])
    def test_non_finite_columns_rejected(self, column, bad):
        arrays = {
            "initial_values": np.zeros(2),
            "times": np.array([1.0, 2.0]),
            "values": np.array([1.0, 2.0]),
        }
        arrays[column][-1] = bad
        with pytest.raises(ValueError, match=f"{column} must be finite"):
            StreamTrace(
                stream_ids=np.array([0, 1]), horizon=3.0, **arrays
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_horizon_rejected(self, bad):
        with pytest.raises(ValueError, match="horizon must be finite"):
            make_trace([1.0], [0], [1.0], horizon=bad)

    def test_non_finite_values_never_reach_a_run(self):
        """A NaN/inf trace used to replay to a vacuous tolerance_ok."""
        with pytest.raises(ValueError, match="values must be finite"):
            make_trace([1.0, 2.0], [0, 1], [np.nan, np.inf], n_streams=2)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            make_trace([-1.0], [0], [1.0])

    def test_horizon_before_last_record_rejected(self):
        with pytest.raises(ValueError):
            make_trace([5.0], [0], [1.0], horizon=3.0)

    def test_empty_trace_is_valid(self):
        trace = make_trace([], [], [], horizon=10.0)
        assert trace.n_records == 0
        assert list(trace) == []


class TestAccessors:
    def test_iteration_yields_records(self, manual_trace):
        records = list(manual_trace)
        assert records[0] == TraceRecord(1.0, 0, 12.0)
        assert len(records) == manual_trace.n_records == 5

    def test_value_at_follows_updates(self, manual_trace):
        assert manual_trace.value_at(0, 0.5) == 5.0
        assert manual_trace.value_at(0, 1.0) == 12.0
        assert manual_trace.value_at(0, 4.5) == 4.0
        assert manual_trace.value_at(1, 10.0) == 30.0
        assert manual_trace.value_at(3, 4.9) == 12.0

    def test_len_matches_records(self, manual_trace):
        assert len(manual_trace) == 5


class TestTransforms:
    def test_restrict_streams_keeps_prefix(self, manual_trace):
        restricted = manual_trace.restrict_streams(2)
        assert restricted.n_streams == 2
        assert all(r.stream_id < 2 for r in restricted)
        assert restricted.n_records == 3  # records of streams 0 and 1

    def test_restrict_streams_bounds(self, manual_trace):
        with pytest.raises(ValueError):
            manual_trace.restrict_streams(0)
        with pytest.raises(ValueError):
            manual_trace.restrict_streams(99)

    def test_truncate(self, manual_trace):
        truncated = manual_trace.truncate(3.0)
        assert truncated.n_records == 3
        assert truncated.horizon == 3.0

    def test_truncate_negative_rejected(self, manual_trace):
        with pytest.raises(ValueError):
            manual_trace.truncate(-1.0)

    @given(st.integers(1, 4))
    def test_restrict_preserves_relative_order(self, n):
        trace = make_trace(
            [1.0, 1.0, 2.0, 3.0], [0, 3, 1, 0], [1.0, 2.0, 3.0, 4.0]
        )
        restricted = trace.restrict_streams(n)
        assert np.all(np.diff(restricted.times) >= 0)


class TestSerialization:
    def test_save_load_roundtrip(self, manual_trace, tmp_path):
        path = tmp_path / "trace.npz"
        manual_trace.save(path)
        loaded = StreamTrace.load(path)
        np.testing.assert_array_equal(
            loaded.initial_values, manual_trace.initial_values
        )
        np.testing.assert_array_equal(loaded.times, manual_trace.times)
        np.testing.assert_array_equal(loaded.values, manual_trace.values)
        assert loaded.horizon == manual_trace.horizon


class TestMerge:
    def test_merge_offsets_ids_and_sorts(self):
        a = make_trace([1.0, 3.0], [0, 1], [1.0, 2.0], n_streams=2)
        b = make_trace([2.0], [0], [9.0], n_streams=1)
        merged = merge_traces([a, b], horizon=5.0)
        assert merged.n_streams == 3
        assert [r.stream_id for r in merged] == [0, 2, 1]
        assert np.all(np.diff(merged.times) >= 0)

    def test_merge_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_traces([], horizon=1.0)
