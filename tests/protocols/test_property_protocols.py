"""Property-based protocol tests: random workloads, invariant checks.

Hypothesis generates small adversarial traces (arbitrary jump sizes —
harsher than the Gaussian workloads) and every protocol must hold its
tolerance at every instant.

All values within a trace are drawn *distinct*, matching the paper's
continuous-data model: ``Deploy_bound`` places the bound R "halfway
between" the (k+r)-th and (k+r+1)-st ranked objects, which presupposes
their distances differ.  With exact ties no closed bound can separate
them, and the rank-based protocols can be defeated — a zero-probability
event for continuous data, demonstrated and documented in
``test_exact_ties_defeat_bound_separation`` below.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Deployment, Engine
from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.ft_rp import FractionToleranceKnnProtocol
from repro.protocols.rtp import RankToleranceProtocol
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.knn import KnnQuery
from repro.queries.range_query import RangeQuery
from repro.streams.trace import StreamTrace
from repro.tolerance.fraction_tolerance import FractionTolerance
from repro.tolerance.rank_tolerance import RankTolerance

CHECKED = Deployment.single(check_every=1, strict=True)

N_STREAMS = 14


@st.composite
def adversarial_traces(draw):
    """A small trace with arbitrary jumps and globally distinct values."""
    n_records = draw(st.integers(0, 40))
    # Unique by distance from the k-NN query point (500), so neither
    # values nor distances ever tie — the continuous-data model.
    pool = draw(
        st.lists(
            st.floats(0.0, 1000.0, allow_nan=False),
            min_size=N_STREAMS + n_records,
            max_size=N_STREAMS + n_records,
            unique_by=lambda v: abs(v - 500.0),
        )
    )
    initial, values = pool[:N_STREAMS], pool[N_STREAMS:]
    ids = draw(
        st.lists(
            st.integers(0, N_STREAMS - 1),
            min_size=n_records,
            max_size=n_records,
        )
    )
    times = np.arange(1.0, n_records + 1.0)
    return StreamTrace(
        initial_values=np.array(initial),
        times=times,
        stream_ids=np.array(ids, dtype=np.int64),
        values=np.array(values),
        horizon=float(n_records + 1),
    )


@given(adversarial_traces())
@settings(max_examples=60, deadline=None)
def test_zt_nrp_always_exact(trace):
    result = Engine().run_protocol(
        trace,
        ZeroToleranceRangeProtocol(RangeQuery(300.0, 700.0)),
        deployment=CHECKED,
    )
    assert result.tolerance_ok


@given(adversarial_traces(), st.sampled_from([0.1, 0.25, 0.45]))
@settings(max_examples=60, deadline=None)
def test_ft_nrp_holds_tolerance(trace, eps):
    tolerance = FractionTolerance(eps, eps)
    result = Engine().run_protocol(
        trace,
        FractionToleranceRangeProtocol(RangeQuery(300.0, 700.0), tolerance),
        tolerance=tolerance,
        deployment=CHECKED,
    )
    assert result.tolerance_ok


@given(adversarial_traces(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_rtp_holds_tolerance(trace, r):
    k = 3
    tolerance = RankTolerance(k=k, r=r)
    result = Engine().run_protocol(
        trace,
        RankToleranceProtocol(KnnQuery(500.0, k), tolerance),
        tolerance=tolerance,
        deployment=CHECKED,
    )
    assert result.tolerance_ok
    assert len(result.final_answer) == k


@given(adversarial_traces(), st.sampled_from([0.1, 0.3]))
@settings(max_examples=60, deadline=None)
def test_ft_rp_holds_tolerance(trace, eps):
    tolerance = FractionTolerance(eps, eps)
    result = Engine().run_protocol(
        trace,
        FractionToleranceKnnProtocol(KnnQuery(500.0, 4), tolerance),
        tolerance=tolerance,
        deployment=CHECKED,
    )
    assert result.tolerance_ok


def test_exact_ties_defeat_bound_separation():
    """Documented limitation: with *exactly tied* distances the bound R
    cannot pass strictly between the (k+r)-th and (k+r+1)-st objects.

    Deploy_bound's "halfway between" placement (Figure 5) presupposes the
    two distances differ — true with probability 1 for continuous data,
    which is the paper's implicit model.  When they tie, the deployed
    closed interval necessarily *contains* the (k+r+1)-st object, leaving
    an inside-R stream untracked; from there the rank guarantee can lapse
    without any filter firing (hypothesis exhibited such traces before
    the strategies were constrained to distance-distinct values).  This
    test pins the degenerate-separation mechanism so a future mitigation
    (e.g. open-interval filters) is measurable.
    """
    k, r = 2, 0
    # Streams 0 and 3 are exactly tied at the eps/eps+1 rank boundary.
    initial = np.array([440.0, 490.0, 505.0, 560.0, 900.0, 100.0])
    trace = StreamTrace(
        initial_values=initial,
        times=np.array([]),
        stream_ids=np.array([]),
        values=np.array([]),
        horizon=1.0,
    )
    tolerance = RankTolerance(k=k, r=r)
    protocol = RankToleranceProtocol(KnnQuery(500.0, k), tolerance)
    Engine().run_protocol(trace, protocol, tolerance=tolerance)
    # Ranks by |v - 500|: s2 (5), s1 (10), then s0 and s3 tied at 60.
    # eps = 2, so R should separate rank 2 (s1) from rank 3 (s0) — that
    # works here; but re-deploying with the tie *at* the boundary cannot:
    lower, upper = protocol.region
    assert lower <= 490.0 <= upper          # rank 2 inside
    assert not (lower <= 440.0 <= upper)    # rank 3 excluded (no tie yet)

    # Now force the tie at the eps boundary: k=2, r=1 -> eps=3, and the
    # 3rd and 4th ranked objects (s0 and s3) are exactly tied.
    tolerance = RankTolerance(k=2, r=1)
    protocol = RankToleranceProtocol(KnnQuery(500.0, 2), tolerance)
    Engine().run_protocol(trace, protocol, tolerance=tolerance)
    lower, upper = protocol.region
    inside = [v for v in initial if lower <= v <= upper]
    # The closed bound cannot exclude the tied 4th object: both tied
    # streams are inside, so eps + 1 = 4 objects sit within R.
    assert len(inside) == protocol.eps + 1
    assert 440.0 in inside and 560.0 in inside
