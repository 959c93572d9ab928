"""Homomorphic quantized matrix multiplication (paper §5.2, Eq. 4).

For ``C = A @ B`` with ``A`` quantized per row-partition and ``B`` per
column-partition, each entry of the product expands as

    Σ_z a_iz · b_zj  ≈  s_ai·s_bj·Σ_z a'_iz·b'_zj          (integer matmul)
                       + m_bj·s_ai·Σ_z a'_iz               (A row sums)
                       + m_ai·s_bj·Σ_z b'_zj               (B column sums)
                       + Z·m_ai·m_bj                       (constant term)

where primes denote integer codes and ``m``/``s`` the per-partition
minimum and scale.  The first term is the only O(M·Z·N) work and runs on
integer codes (INT8 tensor cores on the real hardware); the three
correction terms cost ``9MN + MZ + NZ`` flops (§5.2), and the ``NZ``
part — the B column sums — is cached by the SE optimization (§5.3).

Crucially Eq. 4 is an *identity* on the quantized lattice: the result
equals ``dequantize(A') @ dequantize(B')`` exactly (up to float
round-off).  The only approximation error in HACK is the quantization
error itself, never the homomorphic evaluation.  The test suite checks
this invariant with hypothesis.
"""

from __future__ import annotations

import numpy as np

from .quantize import QuantizedTensor

__all__ = [
    "homomorphic_matmul",
    "homomorphic_matmul_blocked",
    "integer_matmul",
    "transpose",
]


def transpose(qt: QuantizedTensor) -> QuantizedTensor:
    """Transpose a quantized tensor, flipping the partitioned axis.

    Quantizing ``K`` row-wise (one token per row, partitions along the
    head dimension) and transposing yields exactly the operand layout
    ``Kᵀ`` needs as the right-hand side of ``Q·Kᵀ``.  All arrays are
    numpy views — no copies.
    """
    return QuantizedTensor(
        codes=qt.codes.T,
        mins=qt.mins.T,
        scales=qt.scales.T,
        bits=qt.bits,
        axis=1 - qt.axis,
        partition_size=qt.partition_size,
        _sums=None if qt._sums is None else qt._sums.T,
    )


def integer_matmul(qa: QuantizedTensor, qb: QuantizedTensor) -> np.ndarray:
    """The raw integer-code product ``A' @ B'`` summed over all partitions.

    This is the portion of Eq. 4 that the GPU evaluates with INT8 tensor
    cores; exposed separately so benchmarks can time it in isolation.
    """
    _check_operands(qa, qb)
    return qa.codes.astype(np.int64) @ qb.codes.astype(np.int64)


def homomorphic_matmul(
    qa: QuantizedTensor,
    qb: QuantizedTensor,
    use_cached_b_sums: bool = True,
) -> np.ndarray:
    """Evaluate ``dequant(A') @ dequant(B')`` without dequantizing.

    Parameters
    ----------
    qa:
        Left operand, quantized with ``axis == 1`` (row partitions).
    qb:
        Right operand, quantized with ``axis == 0`` (column partitions)
        and the same partition boundaries as ``qa``.
    use_cached_b_sums:
        When True (SE optimization), reuse ``qb``'s memoized partition
        sums; when False, recompute them — functionally identical, but
        the performance model charges the recomputation cost.

    Returns
    -------
    np.ndarray
        Float matrix of shape ``(M, N)``.
    """
    _check_operands(qa, qb)
    bounds = qa.bounds()
    m, n = qa.codes.shape[0], qb.codes.shape[1]
    if not bounds:
        return np.zeros((m, n), dtype=np.float64)
    n_parts, pi = len(bounds), qa.partition_size
    pad = n_parts * pi - qa.codes.shape[1]

    # All partitions' integer products in one batched matmul: (P, M, N).
    # Codes are at most 8 bits, so float64 holds every product and
    # partial sum exactly, whatever order BLAS adds them in; the same
    # holds for the per-partition code sums below.
    a_codes = qa.codes.astype(np.float64)
    b_codes = qb.codes.astype(np.float64)
    if pad:  # a ragged last partition, zero-filled to Π
        a_codes = np.concatenate([a_codes, np.zeros((m, pad))], axis=1)
        b_codes = np.concatenate([b_codes, np.zeros((pad, n))], axis=0)
    a_parts = a_codes.reshape(m, n_parts, pi).transpose(1, 0, 2)
    int_prod = a_parts @ b_codes.reshape(n_parts, pi, n)

    # Per-partition operands of the three correction terms, laid out
    # (P, M, 1) for A and (P, 1, N) for B.
    a_sums = a_parts.sum(axis=2, keepdims=True)
    b_sums = qb.partition_sums(cached=use_cached_b_sums)[:, None, :]
    s_a, m_a = qa.scales.T[:, :, None], qa.mins.T[:, :, None]
    s_b, m_b = qb.scales[:, None, :], qb.mins[:, None, :]
    width = np.array([hi - lo for lo, hi in bounds])[:, None, None]

    terms = (
        s_a * s_b * int_prod
        + m_b * (s_a * a_sums)
        + m_a * (s_b * b_sums)
        + width * m_a * m_b
    )
    # Sum the partitions in index order; ``accumulate`` is sequential,
    # unlike ``add.reduce``'s pairwise summation.  Adding 0.0 maps a
    # -0.0 total to +0.0, as summing into a zero-filled output does.
    return np.add.accumulate(terms, axis=0)[-1] + 0.0


def homomorphic_matmul_blocked(
    qa_blocks: list[QuantizedTensor],
    qb_blocks: list[QuantizedTensor],
    use_cached_b_sums: bool = True,
) -> np.ndarray:
    """Blocked evaluation (paper Fig. 6(b)): ``A·B = Σ_k A_k · B_k``.

    The inner dimension is split into blocks, each block quantized and
    multiplied independently via Eq. 4, and the partial products summed.
    This is how the FlashAttention-style kernel consumes the KV cache
    block by block.  Equals the unblocked product when the block
    boundaries align with partition boundaries.
    """
    if len(qa_blocks) != len(qb_blocks):
        raise ValueError(
            f"mismatched block counts: {len(qa_blocks)} vs {len(qb_blocks)}"
        )
    if not qa_blocks:
        raise ValueError("at least one block is required")
    out = homomorphic_matmul(qa_blocks[0], qb_blocks[0], use_cached_b_sums)
    for qa, qb in zip(qa_blocks[1:], qb_blocks[1:]):
        out += homomorphic_matmul(qa, qb, use_cached_b_sums)
    return out


def _check_operands(qa: QuantizedTensor, qb: QuantizedTensor) -> None:
    if qa.axis != 1:
        raise ValueError(f"left operand must be quantized along axis 1, got {qa.axis}")
    if qb.axis != 0:
        raise ValueError(f"right operand must be quantized along axis 0, got {qb.axis}")
    if qa.codes.shape[1] != qb.codes.shape[0]:
        raise ValueError(
            f"inner dimensions differ: {qa.codes.shape} @ {qb.codes.shape}"
        )
    if qa.partition_size != qb.partition_size:
        raise ValueError(
            "operands must share a partition size, got "
            f"{qa.partition_size} and {qb.partition_size}"
        )
