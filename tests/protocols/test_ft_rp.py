"""Unit + randomized tests for FT-RP (Sections 5.2.2-5.2.3)."""

import pytest

from repro.api import Deployment, Engine
from repro.protocols.ft_rp import FractionToleranceKnnProtocol
from repro.protocols.zt_rp import ZeroToleranceKnnProtocol
from repro.queries.knn import KnnQuery, TopKQuery
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.knn_fraction import RhoPolicy


def run_ftrp(trace, query, eps, policy=RhoPolicy.BALANCED, strict=True):
    tolerance = FractionTolerance(eps, eps)
    protocol = FractionToleranceKnnProtocol(query, tolerance, policy=policy)
    result = Engine().run_protocol(
        trace,
        protocol,
        tolerance=tolerance,
        deployment=Deployment.single(check_every=1, strict=strict),
    )
    return result, protocol


class TestCorrectness:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.2, 0.3, 0.45])
    def test_tolerance_held(self, small_trace, eps):
        result, _ = run_ftrp(small_trace, KnnQuery(500.0, 8), eps)
        assert result.tolerance_ok

    @pytest.mark.parametrize("policy", list(RhoPolicy))
    def test_all_policies_sound(self, small_trace, policy):
        result, _ = run_ftrp(
            small_trace, KnnQuery(500.0, 10), 0.3, policy=policy
        )
        assert result.tolerance_ok

    @pytest.mark.parametrize("seed", range(5))
    def test_many_seeds(self, seed):
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=60, horizon=250.0, seed=seed)
        )
        result, _ = run_ftrp(trace, KnnQuery(450.0, 6), 0.25)
        assert result.tolerance_ok

    def test_topk_variant(self, small_trace):
        result, _ = run_ftrp(small_trace, TopKQuery(k=8), 0.3)
        assert result.tolerance_ok

    def test_answer_size_stays_in_live_bounds(self, small_trace):
        _, protocol = run_ftrp(small_trace, KnnQuery(500.0, 10), 0.3)
        assert (
            protocol.effective_size_min
            <= len(protocol.answer)
            <= protocol.effective_size_max
        )


class TestStructure:
    def test_zero_tolerance_has_no_silencers(self, small_trace):
        _, protocol = run_ftrp(small_trace, KnnQuery(500.0, 5), 0.0)
        assert protocol.rho_plus == 0.0
        assert protocol.rho_minus == 0.0
        assert protocol.size_min == protocol.size_max == 5

    def test_zero_tolerance_matches_zt_rp_cost(self, small_trace):
        query = KnnQuery(500.0, 5)
        ft_result, _ = run_ftrp(small_trace, query, 0.0)
        zt_result = Engine().run_protocol(
            small_trace, ZeroToleranceKnnProtocol(KnnQuery(500.0, 5))
        )
        # Both recompute on every crossing; FT-RP probes all n (it cannot
        # reuse the updater's value in its generic resolve), ZT-RP probes
        # n - 1 — allow that slack.
        assert (
            abs(ft_result.maintenance_messages - zt_result.maintenance_messages)
            <= 2 * zt_result.extras.get("recomputations", 0) + 2
        )

    def test_tolerance_cuts_cost_dramatically(self, small_trace):
        query_factory = lambda: KnnQuery(500.0, 10)
        zero, _ = run_ftrp(small_trace, query_factory(), 0.0)
        tolerant, _ = run_ftrp(small_trace, query_factory(), 0.3)
        assert tolerant.maintenance_messages < zero.maintenance_messages / 2

    def test_recomputations_counted(self, small_trace):
        _, protocol = run_ftrp(small_trace, KnnQuery(500.0, 5), 0.1)
        assert protocol.recomputations >= 0
        assert isinstance(protocol.recomputations, int)

    def test_effective_bounds_relax_as_pools_drain(self):
        tolerance = FractionTolerance(0.3, 0.3)
        protocol = FractionToleranceKnnProtocol(KnnQuery(0.0, 100), tolerance)
        protocol._fp_pool.extend(range(5))
        protocol._fn_pool.extend(range(100, 103))
        tight_max = protocol.effective_size_max
        tight_min = protocol.effective_size_min
        protocol._fn_pool.clear()
        protocol._fp_pool.clear()
        assert protocol.effective_size_max > tight_max
        assert protocol.effective_size_min < tight_min
        # With no silencers the live bounds equal the paper's (Eqs. 7, 9).
        assert protocol.effective_size_max == protocol.size_max
        assert protocol.effective_size_min == protocol.size_min

    def test_too_few_streams_rejected(self, tiny_trace):
        with pytest.raises(ValueError):
            run_ftrp(tiny_trace, KnnQuery(0.0, 25), 0.1)


class TestPaperObservation:
    def test_small_k_small_eps_is_poor(self):
        """Figure 15's k=20 note: at small k and tolerance, FT-RP buys
        little over ZT-RP because hardly any silencers are allocated."""
        trace = generate_synthetic_trace(
            SyntheticConfig(n_streams=120, horizon=200.0, seed=4)
        )
        tolerance = FractionTolerance(0.1, 0.1)
        protocol = FractionToleranceKnnProtocol(KnnQuery(500.0, 4), tolerance)
        assert protocol.rho_plus * 4 < 1  # floor() -> zero FP silencers
