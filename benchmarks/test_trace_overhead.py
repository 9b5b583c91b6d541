"""Tracing must be cheap enough to leave on: the ≤5% throughput gate.

The PR that added end-to-end request tracing (repro.obs.context)
promised that capture at the default 10% head-sampling rate costs at
most 5% of serving throughput. ``measure_trace_overhead`` compares a
genuinely untraced front door + worker pool (no TraceBuffer: no
contexts minted, no spans built) against a fully traced one, asking
each query on both in turn, serial (one client, one worker) — serial
because a concurrent closed loop on a shared runner measures scheduler
noise, not tracing (an A/A control there swings ±10%). This module *fails* when the
budget is blown, where ``run_experiments.py tracing`` only records it.
"""

from __future__ import annotations

import pytest

from loadgen import measure_trace_overhead, movies_workload


@pytest.fixture(scope="module")
def workload():
    return movies_workload(n_movies=200)


class TestTraceOverheadGate:
    def test_overhead_within_budget_at_default_sampling(self, workload):
        engine, queries = workload
        result = measure_trace_overhead(
            engine,
            queries,
            sample_rate=0.1,
            rounds=3,
            budget_pct=5.0,
        )
        assert result["baseline_rps"] > 0
        assert result["traced_rps"] > 0
        assert result["passed"], (
            f"tracing overhead {result['overhead_pct']:.2f}% exceeds the "
            f"{result['budget_pct']:g}% budget at "
            f"{result['sample_rate']:.0%} sampling "
            f"(baseline {result['baseline_rps']:.1f} req/s, traced "
            f"{result['traced_rps']:.1f} req/s)"
        )

    def test_result_shape_is_json_ready(self, workload):
        import json

        engine, queries = workload
        result = measure_trace_overhead(
            engine,
            queries,
            clients=2,
            requests=5,
            workers=1,
            rounds=1,
        )
        parsed = json.loads(json.dumps(result))
        assert set(parsed) == {
            "sample_rate",
            "rounds",
            "baseline_rps",
            "traced_rps",
            "overhead_pct",
            "budget_pct",
            "passed",
        }

    def test_rounds_validation(self, workload):
        engine, queries = workload
        with pytest.raises(ValueError):
            measure_trace_overhead(engine, queries, rounds=0)
