"""The paper's method set (§7: baseline, CacheGen, KVQuant, HACK + ablations).

Since the :class:`~repro.methods.spec.MethodSpec` redesign this module
no longer hard-codes :class:`~repro.methods.base.Method` instances: the
13 historical names are **legacy aliases** registered by
:mod:`repro.methods.families`, each backed by a family spec, and
``METHODS`` is materialized from them through the same resolution path
any spec takes (``resolve_method``).  The resulting Method objects are
bit-for-bit identical to the pre-spec registry (asserted by the golden
test in ``tests/methods/test_spec.py``).

Byte counts per KV scalar:

* baseline — FP16, 2 bytes;
* CacheGen / KVQuant — the paper credits both with ~86% compression
  (§2.2), i.e. 0.28 bytes/value including metadata;
* HACK — derived from its own layout: 2-bit codes + FP16 min/scale per
  Π-partition (+ SE sums resident on the decode side), giving 84.4%
  wire compression at Π=64 — the "approximately 15% of its original
  size" of §7.2;
* FP4/6/8 — format bits plus one OCP-MX scale byte per 32 values
  (73.4% / 60.9% / 48.4% compression, the §3 premise).
"""

from __future__ import annotations

from . import families as _families  # noqa: F401  (registers the families)
from .base import Method
from ..spec import suggest
from .spec import legacy_names, resolve_method

__all__ = ["METHODS", "get_method", "PAPER_COMPARISON", "ABLATIONS",
           "FP_FORMAT_METHODS"]


#: name → Method for the paper's 13 methods, resolved through the spec
#: path (legacy aliases keep their historical names and display names).
METHODS: dict[str, Method] = {
    name: resolve_method(name) for name in legacy_names()
}

#: The four-way comparison of Figs. 9–12.
PAPER_COMPARISON = ("baseline", "cachegen", "kvquant", "hack")

#: The §7.4 ablation set (Fig. 13).
ABLATIONS = ("hack", "hack_nose", "hack_norqe")

#: The §3 low-precision floating-point study.
FP_FORMAT_METHODS = ("fp4", "fp6", "fp8")


def get_method(name: str) -> Method:
    """Look up a method by registry name.

    Raises :class:`ValueError` with close-match suggestions for typos
    (``hack_pi_64`` → "did you mean 'hack_pi64'?").  Parameterized
    specs (``hack?pi=256``) resolve through
    :func:`repro.methods.spec.resolve_method` instead — this lookup is
    the fixed paper set only.
    """
    try:
        return METHODS[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}{suggest(name, METHODS)}"
        ) from None
