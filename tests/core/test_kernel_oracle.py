"""The one-pass kernels against a per-partition reference.

``quantize`` and ``homomorphic_matmul`` evaluate every partition at
once.  The references below evaluate one partition at a time, the
plainest reading of §5.2 and Eq. 4; the kernels must agree with them
bit for bit, including the order in which stochastic rounding consumes
the generator.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.homomorphic import homomorphic_matmul
from repro.core.quantize import QuantizedTensor, partition_bounds, quantize
from repro.core.rounding import make_rng, nearest_round, stochastic_round


def loop_quantize(x, bits, axis, partition_size, rng=None, rounding="stochastic"):
    """Quantize one partition at a time; returns a QuantizedTensor."""
    bounds = partition_bounds(x.shape[axis], partition_size)
    levels = (1 << bits) - 1

    def block(p):
        lo, hi = bounds[p]
        return (slice(None), slice(lo, hi)) if axis == 1 else (slice(lo, hi), slice(None))

    def meta(a, p):
        return a[:, p, None] if axis == 1 else a[None, p, :]

    mins = np.stack([x[block(p)].min(axis=axis) for p in range(len(bounds))], axis=axis)
    maxs = np.stack([x[block(p)].max(axis=axis) for p in range(len(bounds))], axis=axis)
    scales = (maxs - mins) / levels
    safe = np.where(scales == 0.0, 1.0, scales)
    codes = np.empty(x.shape, dtype=np.uint8)
    for p in range(len(bounds)):
        normalized = (x[block(p)] - meta(mins, p)) / meta(safe, p)
        rounded = (stochastic_round(normalized, rng) if rounding == "stochastic"
                   else nearest_round(normalized))
        codes[block(p)] = np.clip(rounded, 0, levels).astype(np.uint8)
    return QuantizedTensor(codes=codes, mins=mins, scales=scales, bits=bits,
                           axis=axis, partition_size=partition_size)


def loop_homomorphic_matmul(qa, qb):
    """Eq. 4 summed partition by partition into a zero-filled output."""
    out = np.zeros((qa.codes.shape[0], qb.codes.shape[1]))
    a, b = qa.codes.astype(np.int64), qb.codes.astype(np.int64)
    b_sums = qb.partition_sums(cached=False)
    for p, (lo, hi) in enumerate(qa.bounds()):
        s_a, m_a = qa.scales[:, p, None], qa.mins[:, p, None]
        s_b, m_b = qb.scales[None, p, :], qb.mins[None, p, :]
        out += (s_a * s_b * (a[:, lo:hi] @ b[lo:hi, :])
                + m_b * (s_a * a[:, lo:hi].sum(axis=1)[:, None])
                + m_a * (s_b * b_sums[None, p, :])
                + (hi - lo) * m_a * m_b)
    return out


def _matrix(seed, rows, cols, constant):
    x = make_rng(seed).normal(size=(rows, cols)) * (1 + seed % 7)
    if constant:  # constant partitions take the zero-scale path
        x[:, : cols // 2] = 0.75
    return x


def _assert_same_tensor(got, want):
    np.testing.assert_array_equal(got.codes, want.codes)
    assert got.codes.dtype == want.codes.dtype
    np.testing.assert_array_equal(got.mins, want.mins)
    np.testing.assert_array_equal(got.scales, want.scales)


@given(
    seed=st.integers(0, 10_000),
    rows=st.integers(1, 9),
    cols=st.integers(1, 40),
    axis=st.sampled_from([0, 1]),
    pi=st.integers(1, 20),
    bits=st.integers(1, 8),
    rounding=st.sampled_from(["stochastic", "nearest"]),
    seeded=st.booleans(),
    constant=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_quantize_matches_per_partition_loop(seed, rows, cols, axis, pi, bits,
                                             rounding, seeded, constant):
    x = _matrix(seed, rows, cols, constant)
    rng_a = make_rng(seed) if seeded else None
    rng_b = make_rng(seed) if seeded else None
    got = quantize(x, bits, axis, pi, rng=rng_a, rounding=rounding)
    want = loop_quantize(x, bits, axis, pi, rng=rng_b, rounding=rounding)
    _assert_same_tensor(got, want)
    if seeded:
        # The generator advanced by exactly the same draws.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        np.testing.assert_array_equal(rng_a.random(4), rng_b.random(4))


@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 6),
    z=st.integers(1, 70),
    n=st.integers(1, 9),
    pi=st.integers(1, 20),
    bits_a=st.integers(1, 8),
    bits_b=st.integers(1, 8),
    cached=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_homomorphic_matmul_matches_per_partition_loop(seed, m, z, n, pi, bits_a,
                                                       bits_b, cached):
    rng = make_rng(seed)
    qa = quantize(rng.normal(size=(m, z)), bits_a, 1, pi, rng=rng)
    qb = quantize(rng.normal(size=(z, n)) + 1.0, bits_b, 0, pi, rng=rng)
    np.testing.assert_array_equal(
        homomorphic_matmul(qa, qb, use_cached_b_sums=cached),
        loop_homomorphic_matmul(qa, qb))


def test_matmul_zero_total_is_positive_zero():
    """Every Eq. 4 term here is -0.0; summed into a zero-filled output,
    as the loop does, the total is +0.0."""
    qa = quantize(np.zeros((2, 6)), 2, 1, 4, rng=make_rng(0))
    qb = quantize(np.ones((6, 3)), 2, 0, 4, rng=make_rng(0))
    qa.mins[:] = -0.0
    qa.scales[:] = -0.0
    want = loop_homomorphic_matmul(qa, qb)
    out = homomorphic_matmul(qa, qb)
    assert not np.signbit(want).any()
    assert not np.signbit(out).any()
    np.testing.assert_array_equal(out, want)
