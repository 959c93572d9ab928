"""Built-in method families and the paper's legacy method names.

Each family materializes **both** runtime views of a method from one
parameter assignment — the perf-model :class:`~repro.methods.base.Method`
and the accuracy-side :class:`~repro.quant.base.KVCompressor` pair — so
the byte accounting can never diverge between the two (the HACK wire
and resident sizes, for example, both come from
:func:`~repro.methods.base.quantized_bytes_per_value` with the same
``bits``/``partition_size``/SE setting the compressor quantizes with).

Families:

* ``baseline`` — uncompressed FP16 KV (exact);
* ``hack`` — the paper's homomorphic partitioned quantization, with
  Π / bits / SE / RQE / integer-kernel gain as open parameters;
* ``cachegen`` / ``kvquant`` — the §7 comparators (wire size is the
  paper-credited ~86% constant; the codec parameters drive the
  accuracy-side compressors);
* ``fp`` — the §3 FP4/FP6/FP8 minifloat formats (OCP-MX block scales);
* ``quant`` — a generic dequantize-first partitioned integer
  quantizer (the "what if CacheGen used plain INT4" family sketched
  by §8's discussion of variant kernels).

The module registers the 13 historical registry names as legacy
aliases of these families; :mod:`repro.methods.registry` rebuilds its
``METHODS`` dict from them.
"""

from __future__ import annotations

from .base import FP16_BYTES, Method, quantized_bytes_per_value
from ..spec import Param
from .spec import MethodFamily, MethodSpec, register_family, \
    register_legacy_alias

__all__ = [
    "BaselineFamily",
    "CacheGenFamily",
    "KVQuantFamily",
    "HackFamily",
    "FpFormatFamily",
    "GenericQuantFamily",
    "COMPARATOR_BYTES",
]

#: ~86% compression credited to CacheGen/KVQuant in §2.2.
COMPARATOR_BYTES = 0.28


def _check_quant_params(partition_size: int, bits: int) -> None:
    """Guard the open Π/bits parameters (reachable from any CLI string
    or sweep axis) before they hit the byte-accounting arithmetic."""
    if partition_size < 1:
        raise ValueError(
            f"partition_size must be a positive partition length, "
            f"got {partition_size}"
        )
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in [1, 8], got {bits}")


@register_family("baseline")
class BaselineFamily(MethodFamily):
    description = "uncompressed FP16 KV cache"
    params: dict[str, Param] = {}
    exact = True

    def build_method(self) -> Method:
        return Method(
            name="baseline",
            display_name="Baseline",
            kv_wire_bytes_per_value=FP16_BYTES,
            kv_mem_bytes_per_value=FP16_BYTES,
        )


@register_family("hack")
class HackFamily(MethodFamily):
    description = "homomorphic partitioned quantization (the paper)"
    params = {
        "partition_size": Param(64, alias="pi", doc="Π partition size"),
        "bits": Param(2, doc="code width (§8 sketches an INT4 path)"),
        "summation_elimination": Param(True, alias="se"),
        "requant_elimination": Param(True, alias="rqe"),
        "int_compute_gain": Param(
            1.0, alias="gain",
            doc="integer-kernel gain over plain INT8 (hack_int4: 1.6)"),
    }

    def build_method(self, *, partition_size, bits, summation_elimination,
                     requant_elimination, int_compute_gain) -> Method:
        _check_quant_params(partition_size, bits)
        if int_compute_gain <= 0:
            raise ValueError(
                f"int_compute_gain must be positive, got {int_compute_gain}"
            )
        wire = quantized_bytes_per_value(bits, partition_size,
                                         include_sums=False)
        mem = quantized_bytes_per_value(bits, partition_size,
                                        include_sums=summation_elimination)
        name = "hack" + ("" if bits == 2 else f"{bits}b")
        name += f"_pi{partition_size}"
        if not summation_elimination:
            name += "_nose"
        if not requant_elimination:
            name += "_norqe"
        if int_compute_gain != 1.0:
            name += f"_gain{format(int_compute_gain, 'g')}"
        display = f"HACK (Π={partition_size})" if bits == 2 \
            else f"HACK ({bits}-bit, Π={partition_size})"
        return Method(
            name=name,
            display_name=display,
            kv_wire_bytes_per_value=wire,
            kv_mem_bytes_per_value=mem,
            dequant_per_iter=False,
            int8_attention=True,
            int_compute_gain=int_compute_gain,
            approx_per_iter=True,
            quantize_cost=True,
            partition_size=partition_size,
            summation_elimination=summation_elimination,
            requant_elimination=requant_elimination,
        )

    def build_compressors(self, *, partition_size, bits,
                          summation_elimination, **_ignored):
        from ..quant.hack_adapter import HackCompressor

        return tuple(
            HackCompressor(partition_size=partition_size, bits=bits,
                           plane_kind=kind,
                           include_sums=summation_elimination)
            for kind in ("k", "v")
        )

    def attention_output(self, params, q, k, v, rng):
        """The homomorphic path: both attention matmuls on quantized
        operands (no dequantize-first round trip)."""
        from ..core.attention import HackConfig, attention_hack

        config = HackConfig(
            partition_size=min(params["partition_size"], q.shape[1]),
            kv_bits=params["bits"],
            use_se=params["summation_elimination"],
        )
        return attention_hack(q, k, v, config, rng=rng, causal=False)


class _ComparatorFamily(MethodFamily):
    """Shared perf shape of the §7 comparators: ~86% wire compression
    (the paper-credited constant, independent of codec parameters) and
    a full-cache dequantization every decode iteration."""

    display_name = "?"
    dequant_traffic_scale = 1.0

    def build_method(self, **_params) -> Method:
        return Method(
            name=self.name,
            display_name=self.display_name,
            kv_wire_bytes_per_value=COMPARATOR_BYTES,
            kv_mem_bytes_per_value=COMPARATOR_BYTES,
            dequant_per_iter=True,
            dequant_traffic_scale=self.dequant_traffic_scale,
            quantize_cost=True,
        )


@register_family("cachegen")
class CacheGenFamily(_ComparatorFamily):
    description = "CacheGen-like anchor+delta codec (§2.2 comparator)"
    display_name = "CacheGen"
    params = {
        "chunk_size": Param(16),
        "anchor_bits": Param(8),
        "delta_bits": Param(3),
        "delta_gain": Param(16.0),
    }

    def build_compressors(self, **params):
        from ..quant.cachegen import CacheGenCompressor

        return (CacheGenCompressor(**params), CacheGenCompressor(**params))


@register_family("kvquant")
class KVQuantFamily(_ComparatorFamily):
    description = "KVQuant-like nuq codec (§2.2 comparator)"
    display_name = "KVQuant"
    #: KVQuant's nuq codebook gather + sparse-outlier scatter costs more
    #: per dequantization pass than CacheGen's dense-grid decode.
    dequant_traffic_scale = 1.25
    params = {
        "bits": Param(2),
    }

    def build_compressors(self, *, bits):
        from ..quant.kvquant import KVQuantCompressor

        return (KVQuantCompressor(bits=bits, axis="channel"),
                KVQuantCompressor(bits=bits, axis="token"))


@register_family("fp")
class FpFormatFamily(MethodFamily):
    description = "FP4/FP6/FP8 minifloat KV storage (§3)"
    params = {
        "bits": Param(8, choices=(4, 6, 8)),
    }

    _DISPLAY = {4: "FP4 (E2M1)", 6: "FP6 (E3M2)", 8: "FP8 (E4M3)"}

    def build_method(self, *, bits) -> Method:
        per_value = bits / 8.0 + 1.0 / 32.0  # MX scale byte per 32 values
        return Method(
            name=f"fp{bits}",
            display_name=self._DISPLAY[bits],
            kv_wire_bytes_per_value=per_value,
            kv_mem_bytes_per_value=per_value,
            # Pre-H100 GPUs must convert FPx to FP16 before compute (§3)
            # — the same per-iteration materialization cost as
            # dequantization.
            dequant_per_iter=True,
            fp8_attention_sim=(bits == 8),
            quantize_cost=True,
        )

    def build_compressors(self, *, bits):
        from ..quant.fp_formats import (
            FP4_E2M1,
            FP6_E3M2,
            FP8_E4M3,
            FpCastCompressor,
        )

        fmt = {4: FP4_E2M1, 6: FP6_E3M2, 8: FP8_E4M3}[bits]
        return (FpCastCompressor(fmt), FpCastCompressor(fmt))


@register_family("quant")
class GenericQuantFamily(MethodFamily):
    description = "generic dequantize-first partitioned INT quantizer"
    params = {
        "bits": Param(4),
        "partition_size": Param(64, alias="pi"),
        "dequant": Param("per_iter", choices=("per_iter", "once"),
                            doc="per_iter: full-cache dequantization "
                                "every decode iteration; once: "
                                "materialized once on arrival"),
    }

    def build_method(self, *, bits, partition_size, dequant) -> Method:
        _check_quant_params(partition_size, bits)
        per_value = quantized_bytes_per_value(bits, partition_size,
                                              include_sums=False)
        once = dequant == "once"
        return Method(
            name=f"int{bits}_pi{partition_size}" + ("_once" if once else ""),
            display_name=(f"INT{bits} (Π={partition_size}, dequant once)"
                          if once else f"INT{bits} (Π={partition_size})"),
            kv_wire_bytes_per_value=per_value,
            kv_mem_bytes_per_value=per_value,
            dequant_per_iter=(dequant == "per_iter"),
            quantize_cost=True,
        )

    def build_compressors(self, *, bits, partition_size, **_ignored):
        from ..quant.hack_adapter import HackCompressor

        return tuple(
            HackCompressor(partition_size=partition_size, bits=bits,
                           plane_kind=kind, include_sums=False)
            for kind in ("k", "v")
        )


# -- the paper's method set as legacy aliases ---------------------------------

def _register_paper_methods() -> None:
    spec = MethodSpec.of
    register_legacy_alias("baseline", spec("baseline"))
    register_legacy_alias("cachegen", spec("cachegen"))
    register_legacy_alias("kvquant", spec("kvquant"))
    register_legacy_alias("hack", spec("hack"),
                          name="hack", display_name="HACK")
    register_legacy_alias("hack_pi32", spec("hack", partition_size=32))
    register_legacy_alias("hack_pi64", spec("hack", partition_size=64))
    register_legacy_alias("hack_pi128", spec("hack", partition_size=128))
    register_legacy_alias("hack_nose",
                          spec("hack", summation_elimination=False),
                          name="hack_nose", display_name="HACK/SE")
    register_legacy_alias("hack_norqe",
                          spec("hack", requant_elimination=False),
                          name="hack_norqe", display_name="HACK/RQE")
    # §8 future work: a CUDA INT4 kernel computing directly on the
    # 2-bit codes at INT4 tensor rates (2x INT8 throughput; realized
    # gain capped by the unchanged correction-term work).
    register_legacy_alias("hack_int4", spec("hack", int_compute_gain=1.6),
                          name="hack_int4",
                          display_name="HACK (INT4 kernel)")
    register_legacy_alias("fp4", spec("fp", bits=4))
    register_legacy_alias("fp6", spec("fp", bits=6))
    register_legacy_alias("fp8", spec("fp", bits=8))


_register_paper_methods()
