"""Tests for repro.sim — the discrete-event serving simulator."""

import numpy as np
import pytest

from repro.methods import get_method
from repro.model import get_model
from repro.sim import (
    ClusterConfig,
    Simulator,
    capacity_rps,
    default_cluster,
    experiment_rps,
    simulate,
    stage_capacities,
)
from repro.workload import generate_trace, get_dataset

L = get_model("L")


def _run(method="baseline", gpu="A10G", dataset="cocktail", n=40, rps=None,
         seed=0, **cfg_kwargs):
    config = default_cluster(L, get_method(method), gpu, **cfg_kwargs)
    if rps is None:
        rps = capacity_rps(config, get_dataset(dataset)) * 0.7
    trace = generate_trace(dataset, rps, n, seed=seed)
    return simulate(config, trace)


class TestConservation:
    def test_every_request_finishes_once(self):
        res = _run(n=50)
        assert len(res.requests) == 50
        ids = [r.request_id for r in res.requests]
        assert ids == sorted(set(ids))

    def test_all_requests_have_complete_timeline(self):
        res = _run(n=30)
        for r in res.requests:
            assert r.arrival <= r.prefill_start <= r.prefill_end
            assert r.prefill_end <= r.transfer_end <= r.finish
            assert r.tokens_generated >= 1

    def test_jct_at_least_sum_of_buckets(self):
        res = _run(n=30)
        for r in res.requests:
            busy = sum(r.decomposition().values()) - r.queue_s
            assert r.jct >= busy - 1e-9

    def test_ratios_sum_to_one(self):
        res = _run(n=30)
        for r in res.requests:
            assert sum(r.ratios(include_queue=True).values()) == \
                pytest.approx(1.0)
            assert sum(r.ratios(include_queue=False).values()) == \
                pytest.approx(1.0)

    def test_decode_memory_released(self):
        res = _run(n=30)
        # After completion all reservations must be gone; peak observed
        # while running must exceed the idle base.
        assert res.peak_memory_fraction > 0.4  # params + activations alone
        assert res.peak_memory_fraction <= 1.0


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = _run(n=25, seed=3)
        b = _run(n=25, seed=3)
        assert a.avg_jct() == b.avg_jct()
        assert a.peak_memory_fraction == b.peak_memory_fraction


class TestMethodOrdering:
    """The paper's headline orderings must hold in any loaded regime."""

    @pytest.fixture(scope="class")
    def results(self):
        rps = experiment_rps(L, "A10G", "cocktail", load_factor=1.05)
        trace = generate_trace("cocktail", rps, 60, seed=1)
        return {
            m: simulate(default_cluster(L, get_method(m), "A10G"), trace)
            for m in ("baseline", "cachegen", "kvquant", "hack")
        }

    def test_hack_beats_everyone(self, results):
        h = results["hack"].avg_jct()
        assert h < results["cachegen"].avg_jct()
        assert h < results["kvquant"].avg_jct()
        assert h < results["baseline"].avg_jct()

    def test_quant_methods_beat_baseline(self, results):
        b = results["baseline"].avg_jct()
        assert results["cachegen"].avg_jct() < b
        assert results["kvquant"].avg_jct() < b

    def test_cachegen_beats_kvquant(self, results):
        assert results["cachegen"].avg_jct() <= results["kvquant"].avg_jct()

    def test_hack_reduction_magnitude(self, results):
        """Cocktail/A10G: paper reports 61.6% vs baseline, 41.5% vs
        CacheGen; the reproduction must land in the same region."""
        h = results["hack"].avg_jct()
        vs_base = 1 - h / results["baseline"].avg_jct()
        vs_cg = 1 - h / results["cachegen"].avg_jct()
        assert 0.40 <= vs_base <= 0.75
        assert 0.25 <= vs_cg <= 0.55

    def test_dequant_bucket_present_only_for_comparators(self, results):
        assert results["cachegen"].mean_decomposition()["dequant_or_approx"] > 0
        assert results["baseline"].mean_decomposition()["dequant_or_approx"] == 0

    def test_hack_approx_far_below_dequant(self, results):
        hack_ap = results["hack"].mean_decomposition()["dequant_or_approx"]
        cg_dq = results["cachegen"].mean_decomposition()["dequant_or_approx"]
        assert hack_ap < 0.25 * cg_dq

    def test_comm_bucket_shrinks_with_quantization(self, results):
        base_c = results["baseline"].mean_decomposition()["comm"]
        for m in ("cachegen", "kvquant", "hack"):
            assert results[m].mean_decomposition()["comm"] < 0.25 * base_c

    def test_memory_pressure_ordering(self, results):
        assert results["hack"].peak_memory_fraction < \
            results["baseline"].peak_memory_fraction


class TestBottleneckShapes:
    def test_v100_baseline_comm_dominates(self):
        res = _run(gpu="V100", n=30)
        ratios = res.mean_ratios()
        assert ratios["comm"] > 0.3  # 10 Gbps NIC (paper: up to 42.2%)

    def test_a100_comm_small(self):
        """Fig. 1(a): A100's 400 Gbps keeps comm under ~10%."""
        res = _run(gpu="A100", n=30)
        assert res.mean_ratios()["comm"] < 0.10

    def test_long_dataset_more_comm_than_short(self):
        long_r = _run(dataset="cocktail", n=30).mean_ratios()["comm"]
        short_r = _run(dataset="imdb", n=30, rps=2.0).mean_ratios()["comm"]
        assert long_r > short_r

    def test_kv_access_ratio_band(self):
        """§2.1: KV memory access is a visible share of baseline JCT."""
        res = _run(n=40, rps=None)
        assert 0.03 <= res.mean_kv_access_ratio() <= 0.45


class TestSwapPath:
    def test_swap_triggers_under_memory_pressure(self):
        """Scarce decode memory forces the §5.1 CPU-swap path.

        A large prefill fleet (40 instances → 20 replicas) outruns a
        single decode instance, so FP16 KV floods the decode memory.
        """
        config = default_cluster(L, get_method("baseline"), "A10G",
                                 n_decode_instances=1,
                                 n_prefill_instances=40)
        trace = generate_trace("cocktail", 2.0, 80, seed=2)
        res = simulate(config, trace)
        assert res.n_swapped > 0
        assert len(res.requests) == 80  # everyone still completes

    def test_swapped_requests_pay_more_comm(self):
        config = default_cluster(L, get_method("baseline"), "A10G",
                                 n_decode_instances=1,
                                 n_prefill_instances=40)
        trace = generate_trace("cocktail", 2.0, 80, seed=2)
        res = simulate(config, trace)
        swapped = [r for r in res.requests if r.swapped]
        direct = [r for r in res.requests if not r.swapped]
        if swapped and direct:
            assert np.mean([r.comm_s for r in swapped]) > \
                np.mean([r.comm_s for r in direct])


class TestPipelining:
    def test_pipelining_reduces_comm_when_light(self):
        """Fig. 1(d): at low RPS pipelining hides most transfer time."""
        rps = 0.05
        trace = generate_trace("cocktail", rps, 30, seed=3)
        plain = simulate(default_cluster(L, get_method("baseline"), "A10G"),
                         trace)
        piped = simulate(default_cluster(L, get_method("baseline"), "A10G",
                                         pipelining=True), trace)
        assert piped.mean_decomposition()["comm"] < \
            0.7 * plain.mean_decomposition()["comm"]

    def test_pipelining_ineffective_on_v100(self):
        """§2.1 case i: V100 comm far exceeds prefill, little overlap."""
        trace = generate_trace("cocktail", 0.05, 30, seed=4)
        plain = simulate(default_cluster(L, get_method("baseline"), "V100"),
                         trace)
        piped = simulate(default_cluster(L, get_method("baseline"), "V100",
                                         pipelining=True), trace)
        ratio = (piped.mean_decomposition()["comm"]
                 / plain.mean_decomposition()["comm"])
        assert ratio > 0.6


class TestCapacity:
    def test_three_stages_returned(self):
        config = default_cluster(L, get_method("baseline"), "A10G")
        caps = stage_capacities(config, get_dataset("cocktail"))
        assert len(caps) == 3
        assert all(c > 0 for c in caps)

    def test_v100_nic_bound(self):
        config = default_cluster(L, get_method("baseline"), "V100")
        prefill, nic, decode = stage_capacities(config, get_dataset("cocktail"))
        assert nic < prefill
        assert nic < decode

    def test_hack_capacity_exceeds_baseline(self):
        base = default_cluster(L, get_method("baseline"), "A10G")
        hack = default_cluster(L, get_method("hack"), "A10G")
        ds = get_dataset("cocktail")
        assert capacity_rps(hack, ds) > capacity_rps(base, ds)

    def test_experiment_rps_positive(self):
        assert experiment_rps(L, "A10G", "cocktail") > 0

    @pytest.mark.parametrize("letter", ["M", "P", "Y", "L", "F"])
    def test_decode_memory_matches_the_formula_bitwise(self, letter):
        """``mem_gb·1e9·(1 − reserve) − params·(1 + activation)``, bit
        for bit, whether the constants are written as ints or floats."""
        config = default_cluster(get_model(letter), get_method("hack"),
                                 "A10G")
        dec = config.decode_replica()
        params = config.model.param_bytes()
        base, capacity = config.decode_memory()
        assert base == params * (1.0 + config.activation_overhead)
        assert capacity == (dec.mem_gb * 1e9
                            * (1 - config.mem_reserve_fraction)
                            - params * (1 + config.activation_overhead))

    def test_engine_and_capacity_bound_share_decode_memory(self,
                                                          monkeypatch):
        config = default_cluster(L, get_method("baseline"), "A10G")
        ds = get_dataset("cocktail")
        trace = generate_trace("imdb", 1.0, 10, seed=0)
        base, capacity = config.decode_memory()
        sim = Simulator(config, trace)
        assert [(d.base_bytes, d.capacity_bytes) for d in sim._decode] == \
            [(base, capacity)] * config.n_decode_replicas
        decode_rps = stage_capacities(config, ds)[2]
        monkeypatch.setattr(ClusterConfig, "decode_memory",
                            lambda self: (base, capacity / 4))
        assert Simulator(config, trace)._decode[0].capacity_bytes == \
            capacity / 4
        assert stage_capacities(config, ds)[2] < decode_rps


class TestValidation:
    def test_empty_trace_rejected(self):
        config = default_cluster(L, get_method("baseline"), "A10G")
        with pytest.raises(ValueError):
            simulate(config, [])
