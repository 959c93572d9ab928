"""Serving metrics (TTFT/TBT/SLO) and the decode off-by-one regression.

The metric substrate is per-request token completion times, recorded
per iteration on the token path and via closed-form cumulative span
latencies on the fast path — so every metric must agree between the
two step modes to 1e-9, across all built-in arrival processes.
"""

import math

import numpy as np
import pytest

from repro.methods import get_method
from repro.model import get_model
from repro.sim import capacity_rps, default_cluster, simulate
from repro.sim.engine import DEFAULT_TBT_SLO_S, DEFAULT_TTFT_SLO_S
from repro.workload import TraceRequest, generate_trace, get_dataset

L = get_model("L")
RTOL = 1e-9

ARRIVALS = ("constant", "poisson", "gamma?cv=3.0",
            "mmpp?burst=4.0,duty=0.2,dwell=10.0",
            "diurnal?amp=0.8,period=120.0")


def _close(a, b):
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def _run(method="hack", dataset="cocktail", n=30, seed=0, rps=None,
         arrival="poisson", step_mode="span", **cfg):
    config = default_cluster(L, get_method(method), "A10G",
                             step_mode=step_mode, **cfg)
    if rps is None:
        rps = capacity_rps(config, get_dataset(dataset)) * 1.05
    trace = generate_trace(dataset, rps, n, seed=seed, arrival=arrival)
    return simulate(config, trace)


class TestOffByOneRegression:
    """`output_len == 1` requests must run zero decode iterations: the
    prefill stage already produced their only token."""

    @pytest.fixture(scope="class", params=("span", "token"))
    def result(self, request):
        trace = [
            TraceRequest(0, 0.1, input_len=500, output_len=1),
            TraceRequest(1, 0.2, input_len=400, output_len=2),
            TraceRequest(2, 0.3, input_len=300, output_len=5),
        ]
        config = default_cluster(L, get_method("baseline"), "A10G",
                                 step_mode=request.param)
        return simulate(config, trace)

    def test_single_token_request_skips_decode(self, result):
        one = result.requests[0]
        assert one.tokens_generated == 0
        assert one.decode_s == 0.0
        assert one.finish == one.transfer_end
        assert one.token_times().size == 0
        assert one.tbt_gaps().size == 0

    def test_multi_token_requests_unchanged(self, result):
        for req, expected in zip(result.requests[1:], (1, 4)):
            assert req.tokens_generated == expected
            assert req.token_times().size == expected
            assert req.decode_s > 0

    def test_all_requests_complete_with_consistent_timeline(self, result):
        assert len(result.requests) == 3
        for r in result.requests:
            assert r.arrival <= r.prefill_start <= r.prefill_end
            assert r.prefill_end <= r.transfer_end <= r.finish
            assert r.jct > 0

    @pytest.mark.parametrize("mode", ("span", "token"))
    def test_degenerate_lengths_rejected_up_front(self, mode):
        """output_len == 0 used to be silently promoted to 1 by the
        removed ``max(1, …)``; now both modes reject it at entry
        instead of crashing deep inside the span engine."""
        config = default_cluster(L, get_method("baseline"), "A10G",
                                 step_mode=mode)
        for bad in (TraceRequest(0, 0.1, input_len=100, output_len=0),
                    TraceRequest(0, 0.1, input_len=0, output_len=10)):
            with pytest.raises(ValueError, match="output_len >= 1"):
                simulate(config, [bad])


class TestTokenTimes:
    @pytest.fixture(scope="class")
    def result(self):
        return _run(n=25)

    def test_count_is_output_len_minus_one(self, result):
        for r in result.requests:
            assert r.token_times().size == r.trace.output_len - 1
            assert r.tokens_generated == r.trace.output_len - 1

    def test_monotone_and_bracketed(self, result):
        for r in result.requests:
            times = r.token_times()
            assert np.all(np.diff(times) > 0)
            assert times[0] > r.decode_start
            assert _close(times[-1], r.finish)

    def test_ttft_is_prefill_end(self, result):
        for r in result.requests:
            assert _close(r.ttft, r.prefill_end - r.arrival)
            assert r.ttft > 0

    def test_gap_count_and_positivity(self, result):
        for r in result.requests:
            gaps = r.tbt_gaps()
            assert gaps.size == r.trace.output_len - 1
            assert np.all(gaps > 0)

    def test_first_gap_includes_transfer(self, result):
        """The first decode token trails prefill's token by at least
        the KV transfer — the stall compression shrinks."""
        for r in result.requests:
            gaps = r.tbt_gaps()
            if gaps.size:
                assert gaps[0] >= r.transfer_end - r.prefill_end - 1e-12


class TestResultMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        return _run(n=30)

    def test_percentiles_ordered(self, result):
        assert result.ttft_percentile(50) <= result.ttft_percentile(99)
        assert result.tbt_percentile(50) <= result.tbt_percentile(99)

    def test_attainment_monotone_in_slo(self, result):
        tight = result.slo_attainment(1.0, 0.01)
        mid = result.slo_attainment(DEFAULT_TTFT_SLO_S, DEFAULT_TBT_SLO_S)
        loose = result.slo_attainment(1e9, 1e9)
        assert 0.0 <= tight <= mid <= loose == 1.0

    def test_goodput_bounded_by_throughput(self, result):
        rate = len(result.requests) / result.makespan_s()
        assert 0.0 <= result.slo_goodput_rps() <= rate + 1e-12

    def test_summary_v2_keys(self, result):
        s = result.summary()
        for key in ("mean_ttft_s", "p50_ttft_s", "p95_ttft_s", "p99_ttft_s",
                    "mean_tbt_s", "p50_tbt_s", "p95_tbt_s", "p99_tbt_s",
                    "mean_normalized_latency_s", "slo_ttft_s", "slo_tbt_s",
                    "slo_attainment", "slo_goodput_rps"):
            assert key in s, key
        assert s["slo_ttft_s"] == DEFAULT_TTFT_SLO_S
        assert s["slo_tbt_s"] == DEFAULT_TBT_SLO_S

    def test_summary_accepts_custom_slo(self, result):
        s = result.summary(ttft_slo_s=1e9, tbt_slo_s=1e9)
        assert s["slo_attainment"] == 1.0

    def test_normalized_latency(self, result):
        expected = np.mean([r.jct / r.trace.output_len
                            for r in result.requests])
        assert _close(result.mean_normalized_latency(), float(expected))

    def test_records_carry_metrics(self, result):
        rec = result.to_records()[0]
        for key in ("ttft_s", "tbt_mean_s", "tbt_p99_s", "tbt_max_s",
                    "normalized_latency_s"):
            assert key in rec, key
        assert rec["tbt_mean_s"] <= rec["tbt_max_s"] + 1e-12


SESSIONS = "sessions?turns=4.0,think_time=10.0,prefix_growth=0.3,tiers=3.0"

#: A plain run, the KV-store + selection layers, and the fault, elastic
#: and admission layers (seed 3 finishes 30 requests, sheds 9, fails 1
#: and retries 6 times).
SUMMARY_RUNS = {
    "plain": {},
    "kvstore_selection": dict(arrival=SESSIONS, kvstore="tiered?dram_gb=8.0",
                              selection="slo_tier"),
    "faults_elastic": dict(
        arrival=SESSIONS, faults="replica_crash?mttf=30.0,mttr=6.0",
        recovery="retry?base_s=0.5,cap_s=4.0,max=1.0",
        autoscaler="reactive?queue_hi=3.0,queue_lo=1.0,cooldown_s=10.0,"
                   "interval_s=2.0,cold_start_s=5.0",
        admission="shed?queue_max=6.0"),
}


class TestSummaryMatchesRecords:
    """``summary()`` and ``to_records()`` are two views of one result:
    each statistic recomputed from the records matches exactly."""

    @pytest.fixture(scope="class", params=sorted(SUMMARY_RUNS))
    def result(self, request):
        return _run(n=40, seed=3, **SUMMARY_RUNS[request.param])

    @pytest.mark.parametrize("slo", [(DEFAULT_TTFT_SLO_S, DEFAULT_TBT_SLO_S),
                                     (5.0, 0.1)])
    def test_summary_recomputed_from_records(self, result, slo):
        summary = result.summary(*slo)
        records = result.to_records()
        done = [r for r in records if r["terminal"] == "finished"]
        n = len(done)
        assert summary["avg_jct_s"] == sum(r["jct_s"] for r in done) / n
        assert summary["mean_ttft_s"] == \
            sum(sorted(r["ttft_s"] for r in done)) / n
        assert summary["mean_normalized_latency_s"] == \
            sum(r["normalized_latency_s"] for r in done) / n
        met = sum(1 for r in done
                  if r["ttft_s"] <= slo[0] and r["tbt_p99_s"] <= slo[1])
        assert summary["slo_attainment"] == met / n
        assert summary["n_rejected"] == \
            sum(r["terminal"] == "rejected" for r in records)
        assert summary["n_failed"] == \
            sum(r["terminal"] == "failed" for r in records)
        if result.faulted:
            assert summary["faults"]["n_retries"] == \
                sum(r["n_retries"] for r in records)


class TestStepModeAgreement:
    """TTFT/TBT/SLO must agree between span and token stepping to 1e-9
    across every built-in arrival process (the metric substrate is
    computed very differently in the two modes)."""

    @pytest.mark.parametrize("arrival", ARRIVALS)
    @pytest.mark.parametrize("method", ("baseline", "hack"))
    def test_metrics_agree(self, arrival, method):
        token = _run(method=method, arrival=arrival, n=24, seed=3,
                     step_mode="token")
        span = _run(method=method, arrival=arrival, n=24, seed=3,
                    step_mode="span")
        st, ss = token.summary(), span.summary()
        for key in st:
            if key == "mean_decomposition_s":
                continue
            assert _close(st[key], ss[key]), f"{key}: {st[key]} vs {ss[key]}"
        for rt, rs in zip(token.requests, span.requests):
            assert _close(rt.ttft, rs.ttft)
            tt, ts = rt.token_times(), rs.token_times()
            assert tt.size == ts.size
            np.testing.assert_allclose(tt, ts, rtol=RTOL)

    def test_agreement_with_single_token_requests(self):
        """Mixed trace incl. output_len==1 exercises the immediate-finish
        path in both modes."""
        trace = [TraceRequest(i, 0.05 * (i + 1), input_len=200 + 10 * i,
                              output_len=1 + (i % 4) * 3)
                 for i in range(12)]
        results = {}
        for mode in ("token", "span"):
            config = default_cluster(L, get_method("hack"), "A10G",
                                     step_mode=mode)
            results[mode] = simulate(config, trace)
        st = results["token"].summary()
        ss = results["span"].summary()
        for key in st:
            if key == "mean_decomposition_s":
                continue
            assert _close(st[key], ss[key]), key
