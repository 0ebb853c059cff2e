"""Unit + randomized tests for FT-NRP (Figure 7)."""

import numpy as np
import pytest

from repro.api import Deployment, Engine
from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.selection import BoundaryNearestSelection, RandomSelection
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.range_query import RangeQuery
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance

QUERY = RangeQuery(400.0, 600.0)


def run_ft(trace, eps_plus, eps_minus, **kwargs):
    tolerance = FractionTolerance(eps_plus, eps_minus)
    protocol = FractionToleranceRangeProtocol(QUERY, tolerance, **kwargs)
    result = Engine().run_protocol(
        trace,
        protocol,
        tolerance=tolerance,
        deployment=Deployment.single(check_every=1, strict=True),
    )
    return result, protocol


class TestCorrectness:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.45])
    def test_tolerance_held_throughout(self, small_trace, eps):
        result, _ = run_ft(small_trace, eps, eps)
        assert result.tolerance_ok

    @pytest.mark.parametrize("ep,em", [(0.0, 0.4), (0.4, 0.0), (0.1, 0.3)])
    def test_asymmetric_tolerances(self, small_trace, ep, em):
        result, _ = run_ft(small_trace, ep, em)
        assert result.tolerance_ok

    @pytest.mark.parametrize("seed", range(5))
    def test_many_seeds(self, seed):
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=60, horizon=250.0, seed=seed)
        )
        result, _ = run_ft(trace, 0.3, 0.3)
        assert result.tolerance_ok

    def test_random_selection_also_correct(self, small_trace):
        result, _ = run_ft(
            small_trace, 0.3, 0.3, selection=RandomSelection(seed=1)
        )
        assert result.tolerance_ok

    def test_reinitialize_when_exhausted_stays_correct(self):
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=60, horizon=400.0, seed=11)
        )
        result, protocol = run_ft(
            trace, 0.2, 0.2, reinitialize_when_exhausted=True
        )
        assert result.tolerance_ok


class TestStructure:
    def test_zero_tolerance_behaves_like_zt_nrp(self, small_trace):
        ft_result, protocol = run_ft(small_trace, 0.0, 0.0)
        zt_result = Engine().run_protocol(
            small_trace, ZeroToleranceRangeProtocol(QUERY)
        )
        assert protocol.n_plus == 0
        assert protocol.n_minus == 0
        assert ft_result.maintenance_messages == zt_result.maintenance_messages
        assert ft_result.final_answer == zt_result.final_answer

    def test_silencer_budgets_match_equations(self, small_trace):
        tolerance = FractionTolerance(0.3, 0.2)
        protocol = FractionToleranceRangeProtocol(QUERY, tolerance)
        # Inspect state right after initialization on a truncated trace.
        empty = small_trace.truncate(0.0)
        Engine().run_protocol(empty, protocol, tolerance=tolerance)
        in_range = int(
            np.sum(
                (small_trace.initial_values >= 400.0)
                & (small_trace.initial_values <= 600.0)
            )
        )
        assert protocol.n_plus == tolerance.emax_plus(in_range)
        assert protocol.n_minus == min(
            tolerance.emax_minus(in_range),
            small_trace.n_streams - in_range,
        )

    def test_count_slack_defers_fixes(self):
        """An enter followed by a leave consumes slack, not silencers."""
        # Stream 9 holds 300 (outside) and is beyond the FN-silencer pool
        # (boundary-nearest picks ids 1, 3, 5, 7 first on this tie), so
        # its reports reach the server.
        trace = StreamTrace(
            initial_values=np.array([500.0, 300.0, 550.0, 700.0] * 5),
            times=np.array([1.0, 2.0]),
            stream_ids=np.array([9, 9]),
            values=np.array([500.0, 200.0]),  # enters then leaves
            horizon=3.0,
        )
        tolerance = FractionTolerance(0.4, 0.4)
        protocol = FractionToleranceRangeProtocol(QUERY, tolerance)
        before = None
        result = Engine().run_protocol(trace, protocol, tolerance=tolerance)
        assert protocol.count == 0
        assert result.probe_messages == 0  # Fix_Error never ran
        assert result.maintenance_messages == 2

    def test_fix_error_spends_silencers(self):
        """A leave with zero slack must probe a silenced stream."""
        # Streams 0-9 in range, 10-19 outside.  The FP pool holds ids
        # 0-3 (4 = floor(10 * 0.45) on an all-tie boundary ordering), so
        # stream 5's report reaches the server.
        initial = np.array([500.0] * 10 + [900.0] * 10)
        trace = StreamTrace(
            initial_values=initial,
            times=np.array([1.0]),
            stream_ids=np.array([5]),
            values=np.array([100.0]),  # leaves with count == 0
            horizon=2.0,
        )
        tolerance = FractionTolerance(0.45, 0.45)
        protocol = FractionToleranceRangeProtocol(QUERY, tolerance)
        n_plus_initial = tolerance.emax_plus(10)
        result = Engine().run_protocol(trace, protocol, tolerance=tolerance)
        assert result.probe_messages >= 2  # at least one probe round-trip
        spent = (n_plus_initial - protocol.n_plus) >= 1 or protocol.n_minus < min(
            tolerance.emax_minus(10), 10
        )
        assert spent


class TestCostShape:
    def test_tolerance_reduces_messages_on_average(self):
        """Across seeds, FT-NRP at high tolerance beats ZT-NRP in total."""
        ft_total = 0
        zt_total = 0
        for seed in range(4):
            trace = generate_synthetic_trace(
                SyntheticConfig(n_streams=150, horizon=300.0, seed=seed)
            )
            tolerance = FractionTolerance(0.4, 0.4)
            ft = Engine().run_protocol(
                trace,
                FractionToleranceRangeProtocol(QUERY, tolerance),
                tolerance=tolerance,
            )
            zt = Engine().run_protocol(trace, ZeroToleranceRangeProtocol(QUERY))
            ft_total += ft.maintenance_messages
            zt_total += zt.maintenance_messages
        assert ft_total < zt_total

    def test_boundary_nearest_beats_random_on_average(self):
        bn_total = 0
        rnd_total = 0
        for seed in range(4):
            trace = generate_synthetic_trace(
                SyntheticConfig(n_streams=200, horizon=300.0, seed=seed)
            )
            tolerance = FractionTolerance(0.4, 0.4)
            bn = Engine().run_protocol(
                trace,
                FractionToleranceRangeProtocol(
                    QUERY, tolerance, selection=BoundaryNearestSelection()
                ),
                tolerance=tolerance,
            )
            rnd = Engine().run_protocol(
                trace,
                FractionToleranceRangeProtocol(
                    QUERY, tolerance, selection=RandomSelection(seed=seed)
                ),
                tolerance=tolerance,
            )
            bn_total += bn.maintenance_messages
            rnd_total += rnd.maintenance_messages
        assert bn_total < rnd_total
