"""Extension bench — multi-query sharing vs independent deployments.

Quantifies the Section-7 extension: four users watch the same zone with
different error budgets.  Independent deployments pay for each user's
filter violations separately; the shared deployment sends one physical
update per violating value change, fanned out server-side.
"""

from repro.harness.reporting import format_table
from repro.api import Engine
from repro.multiquery import execute_multi_query
from repro.protocols.ft_nrp import FractionToleranceRangeProtocol
from repro.protocols.zt_nrp import ZeroToleranceRangeProtocol
from repro.queries.range_query import RangeQuery
from repro.streams.synthetic import SyntheticConfig, generate_synthetic_trace
from repro.tolerance.fraction_tolerance import FractionTolerance

run_protocol = Engine().run_protocol

TOLERANCES = [0.0, 0.1, 0.2, 0.4]


def _make_queries():
    queries = {}
    for i, eps in enumerate(TOLERANCES):
        query = RangeQuery(400.0, 600.0)
        if eps == 0.0:
            queries[f"user{i}"] = (
                ZeroToleranceRangeProtocol(query),
                query,
                None,
            )
        else:
            tolerance = FractionTolerance(eps, eps)
            queries[f"user{i}"] = (
                FractionToleranceRangeProtocol(query, tolerance),
                query,
                tolerance,
            )
    return queries


def _run_comparison():
    trace = generate_synthetic_trace(
        SyntheticConfig(n_streams=400, horizon=400.0, seed=3)
    )
    shared = execute_multi_query(trace, _make_queries())
    independent = sum(
        run_protocol(trace, protocol, tolerance=tolerance).maintenance_messages
        for protocol, _, tolerance in _make_queries().values()
    )
    return shared, independent


def test_extension_multiquery_sharing(benchmark):
    shared, independent = benchmark.pedantic(
        _run_comparison, rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            [
                {
                    "deployment": "independent (4 systems)",
                    "messages": independent,
                    "sharing factor": 1.0,
                },
                {
                    "deployment": "shared (multi-query)",
                    "messages": shared.maintenance_messages,
                    "sharing factor": round(shared.extras["sharing_factor"], 2),
                },
            ],
            title="Extension — four users, one zone, shared sources",
        )
    )
    assert shared.maintenance_messages < independent
    assert shared.extras["sharing_factor"] > 1.5
