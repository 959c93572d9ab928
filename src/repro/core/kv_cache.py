"""Decode-time KV caches (§5.3, §6).

Three cache flavours, one per system family in the paper:

* :class:`Fp16KVCache` — the disaggregated baseline: FP16 K/V, exact
  attention, maximal memory and transfer size.
* :class:`DequantizingKVCache` — the CacheGen/KVQuant family: 2-bit
  codes in the cache, but every decode iteration dequantizes *all*
  tokens' K and V back to FP before attention (cost ``4·d_h·L`` per
  head per iteration, §5.3).
* :class:`HackKVCache` — HACK: 2-bit codes consumed directly by the
  homomorphic matmul.  Implements both systems optimizations and their
  ablations:

  - **SE** (summation elimination): the per-partition integer sums that
    Eq. 4 needs are stored (``b + ⌈log2 Π⌉`` bits each, padded to INT16
    when unaligned) instead of recomputed every iteration.
  - **RQE** (requantization elimination): the last, partially-filled
    sequence-dimension partition of V is kept in FP16 in a side buffer
    and multiplied in FP; it is quantized exactly once, when it fills.
    With RQE disabled the cache faithfully reproduces the behaviour the
    paper ablates: every append dequantizes the partial block,
    requantizes it with the widened ``[min, max]`` (Fig. 8), and the
    error of that round trip accumulates in the cache.

K is partitioned along the head dimension, so a new token's K always
forms whole partitions of its own and never disturbs existing metadata;
V is partitioned along the sequence dimension, which is what creates
the partial-block problem RQE solves (Fig. 7).

Storage layout: every cache keeps its rows in append-only row buffers
(:class:`_RowBuffer`), one 2-D numpy array per quantity whose capacity
doubles as tokens arrive and which copies what it is given, so a cache
never aliases the caller's arrays.  A decode step reads views of these
buffers as its operands instead of restacking per-token rows:

* FP16 K and V are one ``(L, d)`` buffer each.
* Quantized K (and the dequantizing cache's V) is row-partitioned: a
  ``(L, d)`` uint8 code buffer plus ``(L, P)`` min, scale and — under
  SE — integer-sum buffers, ``P = ⌈d/Π⌉``.  HACK's ``Kᵀ`` operand is
  the transposed view of these.
* HACK's quantized V is the full sequence blocks concatenated: ``(n·Π,
  d)`` codes and one ``(1, d)`` row of min, scale and sum per block,
  appended once when a block fills.  The partial block lives apart —
  FP16 rows under RQE, a ragged quantized block without — and only
  that ragged block is concatenated onto the operand.

Every cache tallies a :class:`CacheLedger` of analytic operation counts
so integration tests and the performance model can charge exactly what
each design pays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costs
from .attention import softmax
from .homomorphic import homomorphic_matmul, transpose
from .packing import packed_nbytes
from .quantize import (
    QuantizedTensor,
    dequantize,
    partition_bounds,
    quantize,
    sum_storage_bits,
)

__all__ = ["CacheLedger", "Fp16KVCache", "DequantizingKVCache", "HackKVCache"]

_FP16_BYTES = 2


@dataclass
class CacheLedger:
    """Cumulative operation counts for one cache instance."""

    int_matmul_flops: int = 0
    fp_matmul_flops: int = 0
    approx_flops: int = 0
    dequant_flops: int = 0
    quant_flops: int = 0
    requant_events: int = 0
    decode_iterations: int = 0

    def merge(self, other: "CacheLedger") -> None:
        """Accumulate another ledger into this one (used across heads)."""
        self.int_matmul_flops += other.int_matmul_flops
        self.fp_matmul_flops += other.fp_matmul_flops
        self.approx_flops += other.approx_flops
        self.dequant_flops += other.dequant_flops
        self.quant_flops += other.quant_flops
        self.requant_events += other.requant_events
        self.decode_iterations += other.decode_iterations


class _RowBuffer:
    """Append-only 2-D array whose capacity doubles as rows arrive.

    :meth:`extend` copies its input, and :meth:`view` returns the filled
    rows without copying.  Rows already filled are never written again,
    so a view stays valid after later appends.
    """

    def __init__(self, width: int, dtype=np.float64, capacity: int = 1) -> None:
        self._data = np.empty((capacity, width), dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def extend(self, rows: np.ndarray) -> None:
        """Copy ``rows``, shape ``(n, width)``, onto the end."""
        end = self._n + len(rows)
        if end > len(self._data):
            grown = np.empty((max(end, 2 * len(self._data)), self._data.shape[1]),
                             dtype=self._data.dtype)
            grown[:self._n] = self._data[:self._n]
            self._data = grown
        self._data[self._n:end] = rows
        self._n = end

    def view(self) -> np.ndarray:
        """The filled rows, shape ``(len(self), width)``."""
        return self._data[:self._n]


class _QuantizedRows:
    """Quantized tensors concatenated along their rows.

    Codes, mins, scales and (optionally) the SE partition sums each live
    in a :class:`_RowBuffer`; :meth:`tensor` wraps views of them in one
    :class:`QuantizedTensor`.  Row-partitioned tensors (``axis == 1``)
    stack one metadata row per token; column-partitioned full blocks
    (``axis == 0``, Π rows each) stack one metadata row per block.
    """

    def __init__(self, width: int, n_meta: int, bits: int, axis: int,
                 partition_size: int, with_sums: bool) -> None:
        self.bits = bits
        self.axis = axis
        self.partition_size = partition_size
        self.codes = _RowBuffer(width, np.uint8)
        self.mins = _RowBuffer(n_meta)
        self.scales = _RowBuffer(n_meta)
        self.sums = _RowBuffer(n_meta, np.int64) if with_sums else None

    def extend(self, qt: QuantizedTensor) -> None:
        self.codes.extend(qt.codes)
        self.mins.extend(qt.mins)
        self.scales.extend(qt.scales)
        if self.sums is not None:
            self.sums.extend(qt.partition_sums())

    def tensor(self) -> QuantizedTensor:
        return QuantizedTensor(
            codes=self.codes.view(), mins=self.mins.view(),
            scales=self.scales.view(), bits=self.bits, axis=self.axis,
            partition_size=self.partition_size,
            _sums=None if self.sums is None else self.sums.view())


class _BaseKVCache:
    """Shared bookkeeping: length, ledger, append validation."""

    def __init__(self, head_dim: int) -> None:
        if head_dim <= 0:
            raise ValueError(f"head_dim must be positive, got {head_dim}")
        self.head_dim = head_dim
        self.ledger = CacheLedger()
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def _check_vec(self, vec: np.ndarray, name: str) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.head_dim,):
            raise ValueError(
                f"{name} must have shape ({self.head_dim},), got {vec.shape}"
            )
        return vec

    def _check_bulk(self, mat: np.ndarray, name: str) -> np.ndarray:
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != self.head_dim:
            raise ValueError(
                f"{name} must have shape (L, {self.head_dim}), got {mat.shape}"
            )
        return mat


class Fp16KVCache(_BaseKVCache):
    """Baseline cache: K/V stored at full FP16 precision."""

    def __init__(self, head_dim: int) -> None:
        super().__init__(head_dim)
        self._k = _RowBuffer(head_dim)
        self._v = _RowBuffer(head_dim)

    def append(self, k_vec: np.ndarray, v_vec: np.ndarray) -> None:
        """Add one token's K and V rows."""
        self.append_bulk(self._check_vec(k_vec, "k_vec")[None, :],
                         self._check_vec(v_vec, "v_vec")[None, :])

    def append_bulk(self, k: np.ndarray, v: np.ndarray) -> None:
        """Add many tokens at once (prefill handoff)."""
        k = self._check_bulk(k, "k")
        v = self._check_bulk(v, "v")
        if k.shape[0] != v.shape[0]:
            raise ValueError("k and v must hold the same number of tokens")
        self._k.extend(k)
        self._v.extend(v)
        self._length += k.shape[0]

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """Return copies of the cache contents as (K, V) matrices."""
        return self._k.view().copy(), self._v.view().copy()

    def attention(self, q_vec: np.ndarray) -> np.ndarray:
        """One exact decode step: attend ``q_vec`` over the whole cache."""
        q = self._check_vec(q_vec, "q_vec")[None, :]
        scores = (q @ self._k.view().T) / np.sqrt(self.head_dim)
        probs = softmax(scores, axis=-1)
        out = probs @ self._v.view()
        self.ledger.fp_matmul_flops += costs.attention_flops(1, len(self), self.head_dim)
        self.ledger.decode_iterations += 1
        return out[0]

    def kv_nbytes(self) -> int:
        """FP16 bytes held by the cache."""
        return 2 * self._length * self.head_dim * _FP16_BYTES


class DequantizingKVCache(_BaseKVCache):
    """CacheGen/KVQuant-style cache: 2-bit codes, dequantize every use.

    K and V are quantized per token row (partitions along the head
    dimension), so appends never requantize anything — but every
    :meth:`attention` call reconstructs the full FP K and V first,
    paying ``4·d_h·L`` dequantization flops.
    """

    def __init__(
        self,
        head_dim: int,
        partition_size: int = 64,
        kv_bits: int = 2,
        rounding: str = "stochastic",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(head_dim)
        self.partition_size = partition_size
        self.kv_bits = kv_bits
        self.rounding = rounding
        self._rng = rng if rng is not None else np.random.default_rng(0)
        n_parts = len(partition_bounds(head_dim, partition_size))
        self._k = _QuantizedRows(head_dim, n_parts, kv_bits, 1,
                                 partition_size, with_sums=False)
        self._v = _QuantizedRows(head_dim, n_parts, kv_bits, 1,
                                 partition_size, with_sums=False)
        # Codes are packed per appended batch, so bytes are too.
        self._nbytes = 0

    def append(self, k_vec: np.ndarray, v_vec: np.ndarray) -> None:
        """Quantize and store one token's K and V rows."""
        self.append_bulk(
            self._check_vec(k_vec, "k_vec")[None, :],
            self._check_vec(v_vec, "v_vec")[None, :],
        )

    def append_bulk(self, k: np.ndarray, v: np.ndarray) -> None:
        """Quantize and store many tokens at once."""
        k = self._check_bulk(k, "k")
        v = self._check_bulk(v, "v")
        if k.shape[0] != v.shape[0]:
            raise ValueError("k and v must hold the same number of tokens")
        if k.shape[0] == 0:
            return
        for mat, rows in ((k, self._k), (v, self._v)):
            qt = quantize(mat, self.kv_bits, axis=1,
                          partition_size=self.partition_size,
                          rng=self._rng, rounding=self.rounding)
            rows.extend(qt)
            self._nbytes += qt.code_nbytes() + qt.metadata_nbytes()
            self.ledger.quant_flops += costs.quantize_flops(mat.size)
        self._length += k.shape[0]

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """Dequantize the whole cache to (K̂, V̂)."""
        return dequantize(self._k.tensor()), dequantize(self._v.tensor())

    def attention(self, q_vec: np.ndarray) -> np.ndarray:
        """One decode step: dequantize everything, then FP attention."""
        if not self._length:
            raise ValueError("attention on an empty cache")
        q = self._check_vec(q_vec, "q_vec")[None, :]
        k_hat, v_hat = self.materialize()
        self.ledger.dequant_flops += costs.kv_dequant_flops_per_iter(
            self.head_dim, self._length
        )
        scores = (q @ k_hat.T) / np.sqrt(self.head_dim)
        probs = softmax(scores, axis=-1)
        out = probs @ v_hat
        self.ledger.fp_matmul_flops += costs.attention_flops(1, self._length, self.head_dim)
        self.ledger.decode_iterations += 1
        return out[0]

    def kv_nbytes(self) -> int:
        """Bytes for packed codes plus FP16 quantization metadata."""
        return self._nbytes


class HackKVCache(_BaseKVCache):
    """HACK's quantized KV cache with SE and RQE (§5.3).

    Parameters
    ----------
    head_dim:
        Per-head embedding width ``d_h``.
    partition_size:
        Π, used for both the head-dimension partitions of K and the
        sequence-dimension partitions of V.  A Π larger than ``d_h``
        makes each K row one ragged partition; V still flushes every Π
        tokens.
    kv_bits, q_bits, p_bits:
        Code widths (paper defaults 2 / 8 / 8).
    enable_se:
        Store Eq. 4's per-partition code sums instead of recomputing.
    enable_rqe:
        Keep the partial last V block in FP16 instead of requantizing.
    """

    def __init__(
        self,
        head_dim: int,
        partition_size: int = 64,
        kv_bits: int = 2,
        q_bits: int = 8,
        p_bits: int = 8,
        enable_se: bool = True,
        enable_rqe: bool = True,
        rounding: str = "stochastic",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(head_dim)
        self.partition_size = partition_size
        self.kv_bits = kv_bits
        self.q_bits = q_bits
        self.p_bits = p_bits
        self.enable_se = enable_se
        self.enable_rqe = enable_rqe
        self.rounding = rounding
        self._rng = rng if rng is not None else np.random.default_rng(0)

        # K: one row per token, partitions along the head dimension.
        self._k = _QuantizedRows(
            head_dim, len(partition_bounds(head_dim, partition_size)),
            kv_bits, 1, partition_size, with_sums=enable_se)

        # V: full sequence-dimension blocks of Π tokens, each kept as its
        # own QuantizedTensor (for byte accounting) and appended once to
        # the concatenated operand.
        self._v_blocks: list[QuantizedTensor] = []   # each (Π, d), axis=0
        self._v = _QuantizedRows(head_dim, head_dim, kv_bits, 0,
                                 partition_size, with_sums=enable_se)
        # Partial last block: FP16 rows under RQE, or a ragged
        # QuantizedTensor (requantized on every append) without RQE.
        self._v_tail_fp = self._new_v_tail()
        self._v_tail_q: QuantizedTensor | None = None

    def _new_v_tail(self) -> _RowBuffer:
        return _RowBuffer(self.head_dim, capacity=self.partition_size)

    # -- appends ----------------------------------------------------------

    def append(self, k_vec: np.ndarray, v_vec: np.ndarray) -> None:
        """Quantize and store one token's K row; extend V's last block."""
        k_vec = self._check_vec(k_vec, "k_vec")
        v_vec = self._check_vec(v_vec, "v_vec")
        self._append_k(k_vec[None, :])
        self._append_v_rows(v_vec[None, :])
        self._length += 1

    def append_bulk(self, k: np.ndarray, v: np.ndarray) -> None:
        """Quantize and store many tokens (the prefill→decode handoff)."""
        k = self._check_bulk(k, "k")
        v = self._check_bulk(v, "v")
        if k.shape[0] != v.shape[0]:
            raise ValueError("k and v must hold the same number of tokens")
        if k.shape[0] == 0:
            return
        self._append_k(k)
        self._append_v_rows(v)
        self._length += k.shape[0]

    def _append_k(self, k: np.ndarray) -> None:
        qt = quantize(k, self.kv_bits, axis=1, partition_size=self.partition_size,
                      rng=self._rng, rounding=self.rounding)
        self.ledger.quant_flops += costs.quantize_flops(k.size)
        self._k.extend(qt)

    def _append_v_rows(self, v: np.ndarray) -> None:
        if not self.enable_rqe:
            for row in v:
                self._requantize_v_tail(row)
            return
        while len(v):
            room = self.partition_size - len(self._v_tail_fp)
            self._v_tail_fp.extend(v[:room])
            v = v[room:]
            if len(self._v_tail_fp) == self.partition_size:
                self._flush_v_tail()

    def _flush_v_tail(self) -> None:
        """Quantize a now-full FP16 tail into a permanent V block (RQE)."""
        block = self._v_tail_fp.view()
        qt = quantize(block, self.kv_bits, axis=0,
                      partition_size=self.partition_size,
                      rng=self._rng, rounding=self.rounding)
        self.ledger.quant_flops += costs.quantize_flops(block.size)
        self._add_v_block(qt)
        self._v_tail_fp = self._new_v_tail()

    def _add_v_block(self, qt: QuantizedTensor) -> None:
        # Under SE the block's sums are computed (and memoized) here,
        # once; reads are free afterwards.
        self._v_blocks.append(qt)
        self._v.extend(qt)

    def _requantize_v_tail(self, v_vec: np.ndarray) -> None:
        """Faithful no-RQE path: dequantize-extend-requantize (Fig. 8).

        The round trip through the old 2-bit grid is what accumulates
        extra error relative to RQE — the dequantized values, not the
        originals, are requantized under the widened ``[min, max]``.
        """
        if self._v_tail_q is None:
            rows = v_vec[None, :]
        else:
            old = dequantize(self._v_tail_q)
            self.ledger.dequant_flops += costs.dequantize_flops(old.size)
            rows = np.concatenate([old, v_vec[None, :]], axis=0)
            self.ledger.requant_events += 1
        qt = quantize(rows, self.kv_bits, axis=0,
                      partition_size=self.partition_size,
                      rng=self._rng, rounding=self.rounding)
        self.ledger.quant_flops += costs.quantize_flops(rows.size)
        if rows.shape[0] == self.partition_size:
            self._add_v_block(qt)
            self._v_tail_q = None
        else:
            self._v_tail_q = qt

    # -- attention ---------------------------------------------------------

    def attention(self, q_vec: np.ndarray) -> np.ndarray:
        """One HACK decode step over the cache — no KV dequantization."""
        if not self._length:
            raise ValueError("attention on an empty cache")
        q = self._check_vec(q_vec, "q_vec")[None, :]
        d = self.head_dim
        length = self._length

        q_q = quantize(q, self.q_bits, axis=1, partition_size=self.partition_size,
                       rng=self._rng, rounding=self.rounding)
        self.ledger.quant_flops += costs.quantize_flops(q.size)

        scores = homomorphic_matmul(q_q, self._k_transposed(),
                                    use_cached_b_sums=self.enable_se)
        scores /= np.sqrt(d)
        probs = softmax(scores, axis=-1)

        out = np.zeros((1, d))
        n_quantized = length - len(self._v_tail_fp)

        if n_quantized:
            p_part = probs[:, :n_quantized]
            p_q = quantize(p_part, self.p_bits, axis=1,
                           partition_size=self.partition_size,
                           rng=self._rng, rounding=self.rounding)
            self.ledger.quant_flops += costs.quantize_flops(p_part.size)
            out += homomorphic_matmul(p_q, self._v_quantized(),
                                      use_cached_b_sums=self.enable_se)
            self.ledger.int_matmul_flops += costs.matmul_flops(1, n_quantized, d)
            self.ledger.approx_flops += costs.approximation_flops(
                1, n_quantized, d, self.enable_se
            )

        n_tail = len(self._v_tail_fp)
        if n_tail:
            out += probs[:, n_quantized:] @ self._v_tail_fp.view()
            self.ledger.fp_matmul_flops += costs.matmul_flops(1, n_tail, d)

        self.ledger.int_matmul_flops += costs.matmul_flops(1, d, length)
        self.ledger.approx_flops += costs.approximation_flops(
            1, d, length, self.enable_se
        )
        self.ledger.decode_iterations += 1
        return out[0]

    def _k_transposed(self) -> QuantizedTensor:
        """The ``Kᵀ`` operand for Eq. 4: transposed views of K's storage."""
        return transpose(self._k.tensor())

    def _v_quantized(self) -> QuantizedTensor:
        """The quantized-V operand: full blocks plus any ragged tail."""
        blocks, tail = self._v.tensor(), self._v_tail_q
        if tail is None:
            return blocks
        sums = None
        if self.enable_se:
            sums = np.concatenate([blocks._sums, tail.partition_sums()])
        return QuantizedTensor(
            codes=np.concatenate([blocks.codes, tail.codes]),
            mins=np.concatenate([blocks.mins, tail.mins]),
            scales=np.concatenate([blocks.scales, tail.scales]),
            bits=self.kv_bits, axis=0, partition_size=self.partition_size,
            _sums=sums)

    # -- inspection & accounting -------------------------------------------

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct (K̂, V̂): dequantized codes plus the exact FP tail."""
        k_hat = dequantize(self._k.tensor())
        parts = [dequantize(self._v_quantized()), self._v_tail_fp.view()]
        return k_hat, np.concatenate(parts, axis=0)

    def kv_nbytes(self) -> int:
        """Bytes for packed codes plus FP16 min/scale metadata."""
        k_meta = self._k.mins.view().size + self._k.scales.view().size
        k_bytes = packed_nbytes(self._k.codes.view().size, self.kv_bits)
        k_bytes += k_meta * _FP16_BYTES
        v_bytes = sum(b.code_nbytes() + b.metadata_nbytes() for b in self._v_blocks)
        if self._v_tail_q is not None:
            v_bytes += self._v_tail_q.code_nbytes() + self._v_tail_q.metadata_nbytes()
        return k_bytes + v_bytes

    def sums_nbytes(self) -> int:
        """Bytes of SE sum storage (§7.4 reports 2.2–2.7% of GPU memory)."""
        if not self.enable_se:
            return 0
        width = sum_storage_bits(self.kv_bits, self.partition_size) // 8
        n_k = self._k.sums.view().size
        n_v = sum(b.mins.size for b in self._v_blocks)
        return (n_k + n_v) * width

    def fp16_tail_nbytes(self) -> int:
        """Bytes of the RQE FP16 buffer (§7.4 reports 0.24–0.51%)."""
        return len(self._v_tail_fp) * self.head_dim * _FP16_BYTES

    def total_nbytes(self) -> int:
        """Full cache footprint: codes, metadata, SE sums, RQE tail."""
        return self.kv_nbytes() + self.sums_nbytes() + self.fp16_tail_nbytes()
