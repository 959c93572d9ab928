"""Open, serializable, sweepable method definitions: the :class:`MethodSpec`.

A :class:`MethodSpec` is a declarative description of one system under
comparison — a **family** name plus keyword parameters::

    MethodSpec.of("hack", partition_size=128, bits=4,
                  summation_elimination=False)

It is JSON-serializable (``{"family": "hack", "partition_size": 128,
…}``), has a compact string grammar for CLIs and sweep axes
(``hack?pi=128,bits=4,se=off``), and resolves through a *single* path
into both sides of the comparison:

* :meth:`MethodSpec.build_method` — the performance-model
  :class:`~repro.methods.base.Method` (byte counts, per-iteration
  flags);
* :meth:`MethodSpec.build_compressors` — the accuracy-side
  :class:`~repro.quant.base.KVCompressor` pair (K plane, V plane);
* :meth:`MethodSpec.attention_output` — the accuracy harness's
  attention replay (homomorphic for HACK, compress→decompress→attend
  for dequantize-first systems).

Because both sides are materialized from the same parameters by the
same :class:`MethodFamily`, the perf model and the accuracy harness can
never silently disagree about what e.g. ``hack?pi=128`` means.

Families are registered with the :func:`register_family` decorator and
the registry is *open*: user code can add families (see
``examples/custom_method.py``) and sweep their parameters exactly like
the built-in ones (``Sweep`` axes named ``method.<param>``).

The paper's historical method names (``baseline``, ``hack_pi128``, …)
are **legacy aliases**: each maps to a MethodSpec (plus purely cosmetic
``name``/``display_name`` overrides) and resolves to a Method
bit-for-bit identical to the pre-spec registry entry, so existing
scenario JSON, artifact files and slugs are untouched.

String grammar
--------------

::

    method      = legacy-name | family [ "?" param ("," param)* ]
    param       = key "=" value
    value       = int | float | "on" | "off" | "true" | "false" | word

Keys may use the family's short aliases (``pi`` for
``partition_size``, ``se`` for ``summation_elimination``, …).  In a
comma-separated method *list* (``--methods``), a ``key=value`` token
following a ``family?…`` token belongs to that spec: ``baseline,
hack?pi=128,bits=4`` is two methods, not three.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..spec import Family, FamilySpec, Registry, alias_map, suggest
from .base import Method

__all__ = [
    "MethodSpec",
    "MethodFamily",
    "FAMILIES",
    "register_family",
    "register_legacy_alias",
    "legacy_names",
    "resolve_method",
    "apply_method_params",
]


class MethodFamily(Family):
    """Base class for method families (subclass + :func:`register_family`).

    A family turns a parameter assignment into every runtime view of a
    method.  Subclasses set :attr:`params` and implement
    :meth:`build_method`; quantizing families additionally implement
    :meth:`build_compressors` (and may override :meth:`attention_output`
    when their accuracy path is not dequantize-first).
    """

    #: True for methods that introduce no quantization error (baseline).
    exact: bool = False

    def build_method(self, **params) -> Method:
        """The performance-model :class:`Method` for this assignment."""
        raise NotImplementedError

    def build_compressors(self, **params):
        """``(K-plane, V-plane)`` compressors, or None if the family
        has no accuracy-side codec."""
        return None

    def attention_output(self, params: dict, q, k, v, rng):
        """One attention replay through the method's quantization path.

        The default models dequantize-first systems: round-trip K/V
        through :meth:`build_compressors` and attend exactly.  Families
        whose kernels compute on quantized operands (HACK) override
        this.
        """
        pair = self.build_compressors(**params)
        if pair is None:
            raise ValueError(
                f"method family {self.name!r} defines no accuracy path "
                "(no compressors); override attention_output or "
                "build_compressors"
            )
        from ..core.attention import attention_reference

        k_hat, _ = pair[0].roundtrip(k)
        v_hat, _ = pair[1].roundtrip(v)
        return attention_reference(q, k_hat, v_hat, causal=False)


class _FamilyRegistry(Registry):
    def _check_params(self, family) -> None:
        # Legacy aliases resolve before families in MethodSpec.parse, so
        # a family named after another family's alias is unreachable.
        alias = LEGACY.get(family.name)
        if alias is not None and alias.spec.kind != family.name:
            raise ValueError(
                f"method family {family.name!r} would be shadowed by the "
                f"legacy method name {family.name!r} (-> family "
                f"{alias.spec.kind!r})")
        super()._check_params(family)


#: The method-family registry.  ``@register_family("toy")`` registers
#: one instance of the decorated :class:`MethodFamily` subclass.
FAMILIES = _FamilyRegistry("method family", "register_family",
                           base=MethodFamily, instances=True, floats=False)
register_family = FAMILIES.register


@dataclass(frozen=True)
class _LegacyAlias:
    spec: "MethodSpec"
    #: Cosmetic Method-field overrides (name, display_name).
    overrides: tuple[tuple[str, str], ...] = ()


#: Historical registry name -> the spec it stands for.
LEGACY: dict[str, _LegacyAlias] = {}


class MethodSpec(FamilySpec):
    """A declarative method definition: family + parameters.

    Parameters normalize, coerce and canonicalize as in
    :class:`~repro.spec.FamilySpec`, with the family's short aliases
    accepted and written back (``hack?bits=4,pi=128``), and each
    parameter keeping its default's bool/int/float/str type.  Legacy
    names (``hack_pi128``) resolve to their underlying spec.
    """

    registry = FAMILIES

    @property
    def is_exact(self) -> bool:
        return self.family().exact

    def build_method(self) -> Method:
        """Materialize the performance-model :class:`Method`."""
        return self.family().build_method(**self.resolved_params())

    def build_compressors(self):
        """Materialize the ``(K, V)`` accuracy compressors (or None)."""
        return self.family().build_compressors(**self.resolved_params())

    def attention_output(self, q, k, v, rng):
        """One accuracy-harness attention replay (see
        :meth:`MethodFamily.attention_output`)."""
        return self.family().attention_output(
            self.resolved_params(), q, k, v, rng)

    def to_dict(self) -> dict:
        """Flat JSON form: ``{"family": …, <param>: <value>, …}``."""
        return {"family": self.kind, **dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "MethodSpec":
        if "family" not in data:
            raise ValueError(
                f"method spec dict needs a 'family' key, got "
                f"{sorted(data)}"
            )
        params = {k: v for k, v in data.items() if k != "family"}
        return cls(data["family"], tuple(params.items()))

    @classmethod
    def from_ref(cls, reference) -> "MethodSpec":
        """The spec behind any method reference: a spec, a flat JSON
        dict, a legacy name, or a grammar string."""
        if isinstance(reference, dict):
            return cls.from_dict(reference)
        return super().from_ref(reference)

    @classmethod
    def parse(cls, text: str) -> "MethodSpec":
        """Parse ``family[?key=value,…]``.  Legacy alias names resolve
        to their underlying spec (cosmetic name overrides drop; use
        :func:`resolve_method` to keep them)."""
        text = text.strip()
        if text in LEGACY:
            return LEGACY[text].spec
        family = text.partition("?")[0].strip()
        if family not in FAMILIES.entries:
            raise ValueError(
                f"unknown method {family!r}"
                f"{suggest(family, [*FAMILIES.entries, *LEGACY])}"
            )
        return super().parse(text)

    @classmethod
    def known(cls, text: str) -> bool:
        return text.strip() in LEGACY or FAMILIES.has(text)

    @classmethod
    def canonicalize(cls, reference) -> str:
        """Legacy names canonicalize to themselves, so pre-spec
        scenarios serialize and slug exactly as before."""
        if isinstance(reference, str) and reference.strip() in LEGACY:
            return reference.strip()
        return super().canonicalize(reference)


def register_legacy_alias(alias: str, spec: MethodSpec, *,
                          name: str | None = None,
                          display_name: str | None = None) -> None:
    """Map a historical registry name to a spec (plus cosmetic
    ``name``/``display_name`` overrides applied to the built Method).

    Aliases resolve before families in :meth:`MethodSpec.parse`, so an
    alias naming a different family would make that family unreachable
    by its own name; that raises whichever registers first."""
    if alias in LEGACY:
        raise ValueError(f"legacy method name {alias!r} already registered")
    if alias in FAMILIES.entries and spec.kind != alias:
        raise ValueError(
            f"legacy method name {alias!r} (-> family {spec.kind!r}) "
            f"would shadow the registered method family {alias!r}")
    overrides = {k: v for k, v in
                 (("name", name), ("display_name", display_name))
                 if v is not None}
    LEGACY[alias] = _LegacyAlias(spec, tuple(sorted(overrides.items())))


def legacy_names() -> tuple[str, ...]:
    """The historical method names, in registration order."""
    return tuple(LEGACY)


def resolve_method(method) -> Method:
    """Materialize the performance-model :class:`Method` for any method
    reference.  Legacy names keep their historical ``name`` and
    ``display_name``, so they resolve bit-for-bit as they always have."""
    if isinstance(method, str):
        alias = LEGACY.get(method.strip())
        if alias is not None:
            built = alias.spec.build_method()
            if alias.overrides:
                built = dataclasses.replace(built, **dict(alias.overrides))
            return built
    return MethodSpec.from_ref(method).build_method()


def apply_method_params(method, changes: dict) -> tuple[str, set]:
    """Apply sweep-axis parameter ``changes`` to one method reference.

    Returns ``(canonical string, applied)`` where ``applied`` holds the
    ``changes`` keys (as given, aliases included) that the method's
    family defines; the rest pass through unchanged — e.g. ``baseline``
    in a ``method.partition_size`` sweep over ``baseline,hack`` comes
    back verbatim with an empty set."""
    spec = MethodSpec.from_ref(method)
    family = spec.family()
    aliases = alias_map(family)
    applicable = {k: v for k, v in changes.items()
                  if aliases.get(k, k) in family.params}
    if not applicable:
        return MethodSpec.canonicalize(method), set()
    return spec.with_params(**applicable).canonical(), set(applicable)
