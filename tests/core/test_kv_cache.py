"""Tests for repro.core.kv_cache — SE, RQE, and the three cache families."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kv_cache as kv_cache_module
from repro.core.attention import softmax
from repro.core.kv_cache import (
    DequantizingKVCache,
    Fp16KVCache,
    HackKVCache,
    _RowBuffer,
)
from repro.core.quantize import quantize, dequantize
from repro.core.rounding import make_rng

D = 32
PI = 8


def _kv(n, seed=0, d=D):
    rng = make_rng(seed)
    k = rng.normal(size=(n, d)) + np.sin(np.arange(d))
    v = rng.normal(size=(n, d)) + 1.0
    return k, v


class TestFp16KVCache:
    def test_materialize_roundtrip(self):
        cache = Fp16KVCache(D)
        k, v = _kv(10)
        cache.append_bulk(k, v)
        k2, v2 = cache.materialize()
        np.testing.assert_array_equal(k2, k)
        np.testing.assert_array_equal(v2, v)

    def test_append_one_by_one_matches_bulk(self):
        k, v = _kv(7)
        a, b = Fp16KVCache(D), Fp16KVCache(D)
        a.append_bulk(k, v)
        for i in range(7):
            b.append(k[i], v[i])
        np.testing.assert_array_equal(a.materialize()[0], b.materialize()[0])
        assert len(a) == len(b) == 7

    def test_attention_matches_manual(self):
        cache = Fp16KVCache(D)
        k, v = _kv(20, seed=1)
        cache.append_bulk(k, v)
        q = make_rng(2).normal(size=D)
        scores = (q @ k.T) / np.sqrt(D)
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        np.testing.assert_allclose(cache.attention(q), probs @ v, atol=1e-10)

    def test_kv_nbytes(self):
        cache = Fp16KVCache(D)
        k, v = _kv(10)
        cache.append_bulk(k, v)
        assert cache.kv_nbytes() == 2 * 10 * D * 2

    def test_shape_validation(self):
        cache = Fp16KVCache(D)
        with pytest.raises(ValueError):
            cache.append(np.zeros(D + 1), np.zeros(D))
        with pytest.raises(ValueError):
            cache.append_bulk(np.zeros((3, D)), np.zeros((4, D)))

    def test_ledger_counts_iterations(self):
        cache = Fp16KVCache(D)
        k, v = _kv(5)
        cache.append_bulk(k, v)
        q = make_rng(0).normal(size=D)
        cache.attention(q)
        cache.attention(q)
        assert cache.ledger.decode_iterations == 2
        assert cache.ledger.fp_matmul_flops > 0


class TestDequantizingKVCache:
    def test_attention_close_to_fp16(self):
        k, v = _kv(64, seed=3)
        ref = Fp16KVCache(D)
        ref.append_bulk(k, v)
        cache = DequantizingKVCache(D, partition_size=PI, rng=make_rng(0))
        cache.append_bulk(k, v)
        q = make_rng(4).normal(size=D)
        rel = np.linalg.norm(cache.attention(q) - ref.attention(q))
        rel /= np.linalg.norm(ref.attention(q))
        assert rel < 0.5

    def test_dequant_cost_charged_every_iteration(self):
        """The defining cost of this family: 4·d·L flops per decode step."""
        k, v = _kv(50, seed=5)
        cache = DequantizingKVCache(D, partition_size=PI, rng=make_rng(0))
        cache.append_bulk(k, v)
        q = make_rng(6).normal(size=D)
        cache.attention(q)
        first = cache.ledger.dequant_flops
        assert first == 4 * D * 50
        cache.attention(q)
        assert cache.ledger.dequant_flops == 2 * first

    def test_memory_smaller_than_fp16(self):
        k, v = _kv(256, seed=7)
        cache = DequantizingKVCache(D, partition_size=64, rng=make_rng(0))
        cache.append_bulk(k, v)
        fp16 = 2 * 256 * D * 2
        assert cache.kv_nbytes() < 0.25 * fp16

    def test_empty_attention_rejected(self):
        cache = DequantizingKVCache(D)
        with pytest.raises(ValueError):
            cache.attention(np.zeros(D))

    def test_8bit_variant_nearly_exact(self):
        k, v = _kv(64, seed=8)
        ref = Fp16KVCache(D)
        ref.append_bulk(k, v)
        cache = DequantizingKVCache(D, partition_size=PI, kv_bits=8,
                                    rng=make_rng(0))
        cache.append_bulk(k, v)
        q = make_rng(9).normal(size=D)
        np.testing.assert_allclose(cache.attention(q), ref.attention(q),
                                   rtol=0.02, atol=0.02)


class TestHackKVCacheFunctional:
    def test_attention_close_to_fp16(self):
        k, v = _kv(64, seed=10)
        ref = Fp16KVCache(D)
        ref.append_bulk(k, v)
        cache = HackKVCache(D, partition_size=PI, rng=make_rng(0))
        cache.append_bulk(k, v)
        q = make_rng(11).normal(size=D)
        out_ref = ref.attention(q)
        rel = np.linalg.norm(cache.attention(q) - out_ref) / np.linalg.norm(out_ref)
        assert rel < 0.5

    def test_materialize_k_matches_direct_quantization(self):
        """Cache K reconstruction equals quantizing K directly."""
        k, v = _kv(24, seed=12)
        cache = HackKVCache(D, partition_size=PI, rng=make_rng(7))
        cache.append_bulk(k, v)
        k_hat, _ = cache.materialize()
        qt = quantize(k, 2, axis=1, partition_size=PI, rng=make_rng(7))
        np.testing.assert_allclose(k_hat, dequantize(qt), atol=1e-9)

    def test_rqe_tail_is_exact(self):
        """With RQE, tokens in the partial V block round-trip exactly."""
        k, v = _kv(PI + 3, seed=13)
        cache = HackKVCache(D, partition_size=PI, rng=make_rng(0))
        cache.append_bulk(k, v)
        _, v_hat = cache.materialize()
        np.testing.assert_array_equal(v_hat[PI:], v[PI:])

    def test_no_rqe_tail_is_requantized(self):
        """Without RQE, even the tail carries quantization error."""
        k, v = _kv(PI + 3, seed=13)
        cache = HackKVCache(D, partition_size=PI, enable_rqe=False,
                            rng=make_rng(0))
        cache.append_bulk(k, v)
        _, v_hat = cache.materialize()
        assert np.abs(v_hat[PI:] - v[PI:]).max() > 1e-6

    def test_no_rqe_requant_events_counted(self):
        k, v = _kv(20, seed=14)
        cache = HackKVCache(D, partition_size=PI, enable_rqe=False,
                            rng=make_rng(0))
        cache.append_bulk(k, v)
        # Every append beyond the first token of a fresh block requantizes.
        assert cache.ledger.requant_events == 20 - (20 + PI - 1) // PI

    def test_rqe_error_not_worse_than_requantization(self):
        """RQE's V reconstruction error <= the no-RQE accumulated error."""
        k, v = _kv(3 * PI + 5, seed=15)
        with_rqe = HackKVCache(D, partition_size=PI, rng=make_rng(1))
        without = HackKVCache(D, partition_size=PI, enable_rqe=False,
                              rng=make_rng(1))
        for cache in (with_rqe, without):
            for i in range(v.shape[0]):
                cache.append(k[i], v[i])
        _, v_rqe = with_rqe.materialize()
        _, v_req = without.materialize()
        err_rqe = np.abs(v_rqe - v).mean()
        err_req = np.abs(v_req - v).mean()
        assert err_rqe <= err_req + 1e-9

    def test_incremental_equals_bulk_for_k(self):
        k, v = _kv(2 * PI, seed=16)
        bulk = HackKVCache(D, partition_size=PI, rng=make_rng(2))
        bulk.append_bulk(k, v)
        inc = HackKVCache(D, partition_size=PI, rng=make_rng(2))
        for i in range(k.shape[0]):
            inc.append(k[i], v[i])
        # Different rng consumption order, so compare structure not codes.
        assert len(bulk) == len(inc)
        kb, _ = bulk.materialize()
        ki, _ = inc.materialize()
        assert kb.shape == ki.shape

    def test_se_sums_match_recompute_after_appends(self):
        """SE invariant: stored sums equal freshly computed sums."""
        k, v = _kv(3 * PI + 2, seed=17)
        cache = HackKVCache(D, partition_size=PI, rng=make_rng(3))
        cache.append_bulk(k, v)
        kt = cache._k_transposed()
        stored = kt.partition_sums(cached=True)
        fresh = kt.partition_sums(cached=False)
        np.testing.assert_array_equal(stored, fresh)
        vq = cache._v_quantized()
        if vq._sums is not None:
            np.testing.assert_array_equal(
                vq.partition_sums(cached=True), vq.partition_sums(cached=False)
            )

    def test_se_and_non_se_attention_identical(self):
        """SE is a pure optimization: results must match exactly."""
        k, v = _kv(2 * PI + 4, seed=18)
        a = HackKVCache(D, partition_size=PI, enable_se=True, rng=make_rng(4))
        b = HackKVCache(D, partition_size=PI, enable_se=False, rng=make_rng(4))
        a.append_bulk(k, v)
        b.append_bulk(k, v)
        q = make_rng(19).normal(size=D)
        # Separate rngs consumed identically -> same stochastic draws.
        np.testing.assert_allclose(a.attention(q), b.attention(q), atol=1e-12)

    def test_decode_loop_grows_cache(self):
        cache = HackKVCache(D, partition_size=PI, rng=make_rng(5))
        k, v = _kv(PI, seed=20)
        cache.append_bulk(k, v)
        rng = make_rng(21)
        for _ in range(PI + 3):
            q = rng.normal(size=D)
            out = cache.attention(q)
            assert out.shape == (D,)
            cache.append(rng.normal(size=D), rng.normal(size=D))
        assert len(cache) == 2 * PI + 3
        assert len(cache._v_blocks) == 2

    def test_empty_attention_rejected(self):
        cache = HackKVCache(D)
        with pytest.raises(ValueError):
            cache.attention(np.zeros(D))


class TestHackKVCacheMemory:
    def test_compression_vs_fp16(self):
        """Quantized cache ~7x smaller than FP16 (≈86% compression)."""
        n = 512
        k, v = _kv(n, seed=22, d=128)
        cache = HackKVCache(128, partition_size=64, rng=make_rng(0))
        cache.append_bulk(k, v)
        fp16 = 2 * n * 128 * 2
        rate = 1 - cache.kv_nbytes() / fp16
        assert 0.80 <= rate <= 0.90

    def test_sums_small_fraction(self):
        """SE sums cost a few percent of the quantized KV (paper §6: ~5%)."""
        n = 512
        k, v = _kv(n, seed=23, d=128)
        cache = HackKVCache(128, partition_size=64, rng=make_rng(0))
        cache.append_bulk(k, v)
        frac = cache.sums_nbytes() / cache.kv_nbytes()
        assert 0.005 < frac < 0.10

    def test_fp16_tail_bounded_by_partition(self):
        k, v = _kv(64 + 13, seed=24, d=128)
        cache = HackKVCache(128, partition_size=64, rng=make_rng(0))
        cache.append_bulk(k, v)
        assert cache.fp16_tail_nbytes() == 13 * 128 * 2
        assert cache.fp16_tail_nbytes() < 64 * 128 * 2

    def test_no_se_no_sum_bytes(self):
        k, v = _kv(64, seed=25)
        cache = HackKVCache(D, partition_size=PI, enable_se=False,
                            rng=make_rng(0))
        cache.append_bulk(k, v)
        assert cache.sums_nbytes() == 0

    def test_total_is_sum_of_parts(self):
        k, v = _kv(100, seed=26)
        cache = HackKVCache(D, partition_size=PI, rng=make_rng(0))
        cache.append_bulk(k, v)
        assert cache.total_nbytes() == (
            cache.kv_nbytes() + cache.sums_nbytes() + cache.fp16_tail_nbytes()
        )


class TestHackKVCacheLedger:
    def test_approx_flops_grow_with_length(self):
        k, v = _kv(4 * PI, seed=27)
        cache = HackKVCache(D, partition_size=PI, rng=make_rng(0))
        cache.append_bulk(k, v)
        q = make_rng(28).normal(size=D)
        cache.attention(q)
        a1 = cache.ledger.approx_flops
        cache.append_bulk(*_kv(4 * PI, seed=29))
        cache.attention(q)
        assert cache.ledger.approx_flops - a1 > a1

    def test_se_reduces_approx_flops(self):
        k, v = _kv(4 * PI, seed=30)
        q = make_rng(31).normal(size=D)
        with_se = HackKVCache(D, partition_size=PI, enable_se=True, rng=make_rng(0))
        without = HackKVCache(D, partition_size=PI, enable_se=False, rng=make_rng(0))
        for cache in (with_se, without):
            cache.append_bulk(k, v)
            cache.attention(q)
        assert with_se.ledger.approx_flops < without.ledger.approx_flops

    def test_ledger_merge(self):
        from repro.core.kv_cache import CacheLedger

        a = CacheLedger(int_matmul_flops=1, approx_flops=2, decode_iterations=3)
        b = CacheLedger(int_matmul_flops=10, quant_flops=5)
        a.merge(b)
        assert a.int_matmul_flops == 11
        assert a.approx_flops == 2
        assert a.quant_flops == 5
        assert a.decode_iterations == 3


@given(st.integers(1, 40), st.integers(2, 12))
@settings(max_examples=30, deadline=None)
def test_cache_length_invariant(n_tokens, pi):
    """Property: cache length equals appended tokens; V storage partitions
    hold full blocks + a tail shorter than Π."""
    k, v = _kv(n_tokens, seed=n_tokens)
    cache = HackKVCache(D, partition_size=pi, rng=make_rng(0))
    cache.append_bulk(k, v)
    assert len(cache) == n_tokens
    n_blocks = len(cache._v_blocks)
    n_tail = len(cache._v_tail_fp)
    assert n_blocks * pi + n_tail == n_tokens
    assert n_tail < pi
    k_hat, v_hat = cache.materialize()
    assert k_hat.shape == (n_tokens, D)
    assert v_hat.shape == (n_tokens, D)


class TestRowBuffer:
    def test_extend_copies_and_views_survive_growth(self):
        buf = _RowBuffer(3)
        rows = np.arange(6.0).reshape(2, 3)
        buf.extend(rows)
        first = buf.view()
        rows[:] = -1.0
        for i in range(20):  # several capacity doublings
            buf.extend(np.full((1, 3), float(i)))
        assert len(buf) == 22
        np.testing.assert_array_equal(first, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(buf.view()[:2], first)
        np.testing.assert_array_equal(buf.view()[2:, 0], np.arange(20.0))


_CACHES_D64_PI16 = {
    "fp16": lambda: Fp16KVCache(64),
    "dequant": lambda: DequantizingKVCache(64, partition_size=16, rng=make_rng(0)),
    "hack": lambda: HackKVCache(64, partition_size=16, rng=make_rng(0)),
    "hack_norqe": lambda: HackKVCache(64, partition_size=16, enable_rqe=False,
                                      rng=make_rng(0)),
}


@pytest.mark.parametrize("kind", sorted(_CACHES_D64_PI16))
def test_cache_does_not_alias_appended_arrays(kind):
    """Zeroing the caller's arrays after append/append_bulk changes nothing."""
    make = _CACHES_D64_PI16[kind]
    k, v = _kv(40, seed=40, d=64)  # two full V blocks and a partial one
    k1, v1 = _kv(1, seed=41, d=64)
    q = make_rng(42).normal(size=64)
    pristine, mutated = make(), make()
    pristine.append_bulk(k.copy(), v.copy())
    pristine.append(k1[0].copy(), v1[0].copy())
    mutated.append_bulk(k, v)
    mutated.append(k1[0], v1[0])
    for arr in (k, v, k1, v1):
        arr[...] = 0.0
    np.testing.assert_array_equal(mutated.attention(q), pristine.attention(q))


def _attention_from_materialize(cache, q):
    """HACK attention recomputed from ``materialize()``.

    Q and P are quantized with a copy of the cache's generator, so they
    draw what the cache draws; Eq. 4 then equals plain FP matmuls on the
    dequantized operands.
    """
    rng = copy.deepcopy(cache._rng)
    k_hat, v_hat = cache.materialize()
    n_q = len(cache) - len(cache._v_tail_fp)
    q_q = quantize(q[None, :], cache.q_bits, 1, cache.partition_size, rng=rng)
    probs = softmax(dequantize(q_q) @ k_hat.T / np.sqrt(cache.head_dim), axis=-1)
    p_q = quantize(probs[:, :n_q], cache.p_bits, 1, cache.partition_size, rng=rng)
    return (dequantize(p_q) @ v_hat[:n_q] + probs[:, n_q:] @ v_hat[n_q:])[0]


@pytest.mark.parametrize("d,pi", [(64, 16), (48, 32), (64, 128)])
@pytest.mark.parametrize("enable_rqe", [True, False])
def test_attention_matches_materialize_reference(d, pi, enable_rqe):
    cache = HackKVCache(d, partition_size=pi, enable_rqe=enable_rqe,
                        rng=make_rng(1))
    k, v = _kv(pi + 5, seed=43, d=d)
    cache.append_bulk(k, v)
    rng = make_rng(44)
    for _ in range(3):
        q = rng.normal(size=d)
        want = _attention_from_materialize(cache, q)
        np.testing.assert_allclose(cache.attention(q), want,
                                   rtol=1e-9, atol=1e-12)
        cache.append(rng.normal(size=d), rng.normal(size=d))


def test_partition_wider_than_head_dim_is_kept():
    """Π=128 over d=64 is not clamped: K rows are one ragged partition and
    V still flushes after 128 tokens."""
    cache = HackKVCache(64, partition_size=128, rng=make_rng(2))
    k, v = _kv(127, seed=45, d=64)
    cache.append_bulk(k, v)
    assert cache.partition_size == 128
    assert not cache._v_blocks and len(cache._v_tail_fp) == 127
    assert cache._k_transposed().mins.shape == (1, 127)
    k1, v1 = _kv(1, seed=46, d=64)
    cache.append(k1[0], v1[0])
    assert len(cache._v_blocks) == 1 and len(cache._v_tail_fp) == 0
    assert cache._v_blocks[0].codes.shape == (128, 64)


@pytest.mark.parametrize("enable_rqe", [True, False])
@pytest.mark.parametrize("enable_se", [True, False])
def test_decode_operands_equal_stacked_quantizations(monkeypatch, enable_rqe,
                                                     enable_se):
    """Across several buffer growths, the Eq. 4 operands a decode step
    reads equal the per-token K and per-block V quantizations stacked
    afresh."""
    real_quantize = kv_cache_module.quantize
    made = []

    def recording(x, bits, axis, partition_size, **kwargs):
        qt = real_quantize(x, bits, axis, partition_size, **kwargs)
        made.append((bits, axis, qt))
        return qt

    monkeypatch.setattr(kv_cache_module, "quantize", recording)
    cache = HackKVCache(D, partition_size=PI, enable_rqe=enable_rqe,
                        enable_se=enable_se, rng=make_rng(3))
    cache.append_bulk(*_kv(5, seed=47))
    rng = make_rng(48)
    capacities = set()
    for _ in range(6 * PI):
        cache.append(rng.normal(size=D), rng.normal(size=D))
        cache.attention(rng.normal(size=D))
        capacities.add(cache._k.codes._data.shape[0])

        k_parts = [qt for bits, axis, qt in made if bits == 2 and axis == 1]
        kt = cache._k_transposed()
        for name in ("codes", "mins", "scales"):
            stacked = np.concatenate([getattr(qt, name) for qt in k_parts])
            np.testing.assert_array_equal(getattr(kt, name), stacked.T)
        if enable_se:
            stacked = np.concatenate([qt.partition_sums() for qt in k_parts])
            np.testing.assert_array_equal(kt._sums, stacked.T)
        else:
            assert kt._sums is None

        v_parts = [qt for bits, axis, qt in made
                   if bits == 2 and axis == 0 and qt.codes.shape[0] == PI]
        if cache._v_tail_q is not None:
            v_parts.append(cache._v_tail_q)
        if v_parts:
            vq = cache._v_quantized()
            for name in ("codes", "mins", "scales"):
                stacked = np.concatenate([getattr(qt, name) for qt in v_parts])
                np.testing.assert_array_equal(getattr(vq, name), stacked)
    assert len(capacities) >= 3
