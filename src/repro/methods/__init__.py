"""Method descriptors wiring quantizers into the performance model.

Two layers:

* :class:`MethodSpec` (:mod:`repro.methods.spec`) — the open,
  serializable, sweepable method-definition API: families registered
  with :func:`register_family`, parameterized specs, a compact string
  grammar, and one resolution path producing both the perf-model
  :class:`Method` and the accuracy-side compressors;
* :mod:`repro.methods.registry` — the paper's 13 historical names,
  materialized through that same path as legacy aliases.
"""

from . import families  # noqa: F401  (registers built-in families/aliases)
from .base import FP16_BYTES, Method, quantized_bytes_per_value
from .registry import (
    ABLATIONS,
    FP_FORMAT_METHODS,
    METHODS,
    PAPER_COMPARISON,
    get_method,
    hack_method,
)
from .spec import (
    MethodFamily,
    MethodSpec,
    ParamDef,
    apply_method_params,
    canonical_method,
    legacy_names,
    method_families,
    method_spec,
    parse_method,
    register_family,
    resolve_method,
    split_method_list,
)

__all__ = [
    "Method",
    "FP16_BYTES",
    "quantized_bytes_per_value",
    "METHODS",
    "get_method",
    "hack_method",
    "PAPER_COMPARISON",
    "ABLATIONS",
    "FP_FORMAT_METHODS",
    "MethodSpec",
    "MethodFamily",
    "ParamDef",
    "register_family",
    "method_families",
    "method_spec",
    "parse_method",
    "resolve_method",
    "canonical_method",
    "split_method_list",
    "apply_method_params",
    "legacy_names",
]
