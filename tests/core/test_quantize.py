"""Tests for repro.core.quantize — partitioned asymmetric quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.quantize import (
    dequantize,
    partition_bounds,
    quantize,
    sum_storage_bits,
)
from repro.core.rounding import make_rng


class TestPartitionBounds:
    def test_exact_division(self):
        assert partition_bounds(8, 4) == [(0, 4), (4, 8)]

    def test_ragged_tail(self):
        assert partition_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_single_partition(self):
        assert partition_bounds(3, 16) == [(0, 3)]

    def test_zero_length(self):
        assert partition_bounds(0, 4) == []

    def test_partition_of_one(self):
        assert partition_bounds(3, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_rejects_nonpositive_partition(self):
        with pytest.raises(ValueError):
            partition_bounds(8, 0)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            partition_bounds(-1, 4)

    @given(st.integers(1, 500), st.integers(1, 64))
    @settings(max_examples=80)
    def test_bounds_cover_range_exactly(self, length, pi):
        bounds = partition_bounds(length, pi)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == length
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0
        assert all(1 <= hi - lo <= pi for lo, hi in bounds)


class TestSumStorageBits:
    def test_paper_example_int16(self):
        """2-bit codes, Π=128 → 9 raw bits → INT16 (paper §6)."""
        assert sum_storage_bits(2, 128) == 16

    def test_paper_example_8bit(self):
        """2-bit codes, Π=64 → 8 raw bits fit a byte (paper §5.3)."""
        assert sum_storage_bits(2, 64) == 8

    def test_wide_codes(self):
        assert sum_storage_bits(8, 64) == 16

    def test_very_wide(self):
        assert sum_storage_bits(8, 1 << 10) == 32


class TestQuantizeBasics:
    def test_codes_within_range(self):
        rng = make_rng(0)
        x = rng.normal(size=(16, 32))
        for bits in (2, 4, 8):
            qt = quantize(x, bits, axis=1, partition_size=8, rng=rng)
            assert qt.codes.max() <= (1 << bits) - 1
            assert qt.codes.min() >= 0

    def test_metadata_shapes_axis1(self):
        x = make_rng(1).normal(size=(6, 20))
        qt = quantize(x, 2, axis=1, partition_size=8, rng=make_rng(2))
        assert qt.mins.shape == (6, 3)  # 20 cols -> partitions 8,8,4
        assert qt.scales.shape == (6, 3)

    def test_metadata_shapes_axis0(self):
        x = make_rng(1).normal(size=(20, 6))
        qt = quantize(x, 2, axis=0, partition_size=8, rng=make_rng(2))
        assert qt.mins.shape == (3, 6)

    def test_error_bounded_by_scale_nearest(self):
        """|x - dequant(quant(x))| <= scale/2 per element with nearest rounding."""
        rng = make_rng(3)
        x = rng.normal(size=(10, 64))
        qt = quantize(x, 4, axis=1, partition_size=16, rounding="nearest")
        err = np.abs(dequantize(qt) - x)
        for p, (lo, hi) in enumerate(qt.bounds()):
            bound = qt.scales[:, p][:, None] / 2 + 1e-12
            assert np.all(err[:, lo:hi] <= bound)

    def test_error_bounded_by_scale_stochastic(self):
        """Stochastic rounding moves at most one level: |err| <= scale."""
        rng = make_rng(4)
        x = rng.normal(size=(10, 64))
        qt = quantize(x, 2, axis=1, partition_size=16, rng=rng)
        err = np.abs(dequantize(qt) - x)
        for p, (lo, hi) in enumerate(qt.bounds()):
            bound = qt.scales[:, p][:, None] + 1e-12
            assert np.all(err[:, lo:hi] <= bound)

    def test_constant_partition_exact(self):
        """A constant partition dequantizes exactly (scale 0, codes 0)."""
        x = np.full((4, 16), 3.25)
        qt = quantize(x, 2, axis=1, partition_size=8, rng=make_rng(0))
        assert np.all(qt.codes == 0)
        assert np.all(qt.scales == 0)
        np.testing.assert_array_equal(dequantize(qt), x)

    def test_min_max_preserved_nearest(self):
        """Partition extremes map to code 0 and 2^b-1 and round-trip exactly."""
        x = make_rng(5).normal(size=(8, 32))
        qt = quantize(x, 2, axis=1, partition_size=16, rounding="nearest")
        deq = dequantize(qt)
        for p, (lo, hi) in enumerate(qt.bounds()):
            block, dblock = x[:, lo:hi], deq[:, lo:hi]
            np.testing.assert_allclose(
                dblock.min(axis=1), block.min(axis=1), atol=1e-12
            )
            np.testing.assert_allclose(
                dblock.max(axis=1), block.max(axis=1), atol=1e-12
            )

    def test_finer_partitions_reduce_error(self):
        """Smaller Π gives lower quantization error (paper §7.5 premise)."""
        rng = make_rng(6)
        x = rng.normal(size=(32, 128)) * np.linspace(0.5, 3.0, 128)
        errors = {}
        for pi in (16, 64, 128):
            qt = quantize(x, 2, axis=1, partition_size=pi, rounding="nearest")
            errors[pi] = np.abs(dequantize(qt) - x).mean()
        assert errors[16] < errors[64] < errors[128]

    def test_more_bits_reduce_error(self):
        rng = make_rng(7)
        x = rng.normal(size=(16, 64))
        errs = []
        for bits in (2, 4, 8):
            qt = quantize(x, bits, axis=1, partition_size=16, rounding="nearest")
            errs.append(np.abs(dequantize(qt) - x).mean())
        assert errs[0] > errs[1] > errs[2]

    def test_stochastic_unbiased_reconstruction(self):
        """Averaged over seeds, stochastic dequantization is unbiased."""
        x = make_rng(8).normal(size=(4, 16))
        acc = np.zeros_like(x)
        n = 400
        for seed in range(n):
            qt = quantize(x, 2, axis=1, partition_size=8, rng=make_rng(seed))
            acc += dequantize(qt)
        bias = np.abs(acc / n - x).max()
        scale_typ = (x.max() - x.min()) / 3
        assert bias < 0.12 * scale_typ

    def test_axis0_equals_transposed_axis1(self):
        x = make_rng(9).normal(size=(24, 8))
        q0 = quantize(x, 2, axis=0, partition_size=8, rounding="nearest")
        q1 = quantize(x.T, 2, axis=1, partition_size=8, rounding="nearest")
        np.testing.assert_array_equal(q0.codes, q1.codes.T)
        np.testing.assert_allclose(dequantize(q0), dequantize(q1).T)


class TestQuantizeValidation:
    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(8), 2, axis=1, partition_size=4)

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((4, 4)), 2, axis=2, partition_size=4)

    def test_rejects_bad_bits(self):
        for bits in (0, 9, -1):
            with pytest.raises(ValueError):
                quantize(np.zeros((4, 4)), bits, axis=1, partition_size=4)

    def test_rejects_bad_rounding(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((4, 4)), 2, axis=1, partition_size=4,
                     rounding="banker")

    def test_rejects_empty_partitioned_axis(self):
        for shape, axis in (((3, 0), 1), ((0, 3), 0)):
            with pytest.raises(ValueError):
                quantize(np.zeros(shape), 2, axis=axis, partition_size=4)
        # The other axis may be empty.
        assert quantize(np.zeros((0, 3)), 2, axis=1, partition_size=4).codes.shape == (0, 3)


class TestPartitionSums:
    def test_sums_match_recompute(self):
        x = make_rng(10).normal(size=(12, 40))
        qt = quantize(x, 2, axis=1, partition_size=16, rng=make_rng(1))
        cached = qt.partition_sums(cached=True)
        fresh = qt.partition_sums(cached=False)
        np.testing.assert_array_equal(cached, fresh)

    def test_sums_values(self):
        x = make_rng(11).normal(size=(4, 8))
        qt = quantize(x, 2, axis=1, partition_size=4, rng=make_rng(1))
        sums = qt.partition_sums()
        expected = np.stack(
            [qt.codes[:, 0:4].sum(axis=1), qt.codes[:, 4:8].sum(axis=1)], axis=1
        )
        np.testing.assert_array_equal(sums, expected)

    def test_invalidate_sums(self):
        x = make_rng(12).normal(size=(4, 8))
        qt = quantize(x, 2, axis=1, partition_size=4, rng=make_rng(1))
        qt.partition_sums()
        assert qt._sums is not None
        qt.invalidate_sums()
        assert qt._sums is None

    def test_sums_fit_declared_storage(self):
        """Sums never exceed the bit width reserved for them (§5.3)."""
        x = make_rng(13).normal(size=(8, 128))
        for pi in (32, 64, 128):
            qt = quantize(x, 2, axis=1, partition_size=pi, rng=make_rng(2))
            width = sum_storage_bits(2, pi)
            assert qt.partition_sums().max() < (1 << width)


class TestMemoryAccounting:
    def test_code_bytes_2bit(self):
        x = make_rng(14).normal(size=(16, 64))
        qt = quantize(x, 2, axis=1, partition_size=64, rng=make_rng(0))
        assert qt.code_nbytes() == 16 * 64 * 2 // 8

    def test_metadata_bytes(self):
        x = make_rng(15).normal(size=(16, 64))
        qt = quantize(x, 2, axis=1, partition_size=32, rng=make_rng(0))
        # 2 partitions per row, min+scale in FP16.
        assert qt.metadata_nbytes() == 16 * 2 * 2 * 2

    def test_compression_rate_near_paper(self):
        """2-bit + metadata lands near the ~86% compression the paper cites."""
        x = make_rng(16).normal(size=(1024, 128))
        qt = quantize(x, 2, axis=1, partition_size=64, rng=make_rng(0))
        fp16_bytes = x.size * 2
        rate = 1 - qt.total_nbytes(with_sums=False) / fp16_bytes
        assert 0.82 <= rate <= 0.88

    def test_total_includes_sums(self):
        x = make_rng(17).normal(size=(8, 64))
        qt = quantize(x, 2, axis=1, partition_size=64, rng=make_rng(0))
        assert qt.total_nbytes(True) - qt.total_nbytes(False) == qt.sums_nbytes()


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 48)),
        elements=st.floats(-100, 100, allow_nan=False, width=32),
    ),
    st.integers(1, 16),
    st.sampled_from([2, 4, 8]),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_error_bound_property(x, pi, bits):
    """Property: dequantization error never exceeds one quantization step."""
    qt = quantize(x, bits, axis=1, partition_size=pi, rng=make_rng(0))
    err = np.abs(dequantize(qt) - x)
    for p, (lo, hi) in enumerate(qt.bounds()):
        bound = qt.scales[:, p][:, None] + 1e-9
        assert np.all(err[:, lo:hi] <= bound)
