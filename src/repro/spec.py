"""One spec grammar for every open registry: ``family?key=value,…``.

Every pluggable axis of a scenario — methods, arrival processes,
scheduling and KV-store policies, compression selection, faults,
recovery, autoscaling and admission — is an open registry of
*families*, each named in the same string grammar::

    spec   = family [ "?" param ( "," param )* ]
    param  = key "=" value

This module is the one place that grammar and its registries are
declared:

* :class:`Param` — one family parameter (default, doc, optional alias
  and choices);
* :class:`Family` — the base every registered family derives from
  (name, description, parameter table, range check, signature);
* :class:`Registry` — the ``@register_*`` decorator with its name and
  default checks, lookup with typo suggestions, enumeration;
* :class:`FamilySpec` — the frozen ``family + params`` value:
  parameter normalisation and coercion, ``resolved_params``,
  ``build``, ``canonical``, ``parse``;
* :func:`split_spec_list` — the comma rule for lists of specs;
* :func:`roles` — the role table wiring each registry to its Scenario
  field, its ``repro list`` heading and its ``list --json`` key.
  ``Scenario`` canonicalisation, CLI axis splitting, ``repro list``
  and the grammar property tests all iterate this table, so a new role
  is one entry here (plus its Scenario field).

Specs keep only the parameters given explicitly (family defaults fill
the rest at build time), normalised to long names, coerced and sorted,
so different spellings compare and hash equal while an explicit
default stays distinct (``gamma?cv=2.0`` is not ``gamma``).  Every
registry but the method one coerces numbers to float; the method
registry keeps a default's bool/int/float/str type.
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
import re
from dataclasses import dataclass
from typing import ClassVar

__all__ = ["Param", "Family", "Registry", "Grammar", "FamilySpec", "Role",
           "format_value", "suggest", "alias_map", "split_spec_list",
           "parse_pair", "all_known", "roles", "field_roles"]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_TRUE_TOKENS = frozenset({"on", "true", "yes", "1"})
_FALSE_TOKENS = frozenset({"off", "false", "no", "0"})
#: Grammar metacharacters: a string value containing one would
#: canonicalise to a string that cannot re-parse.
_META = ",=?+ "


@dataclass(frozen=True)
class Param:
    """One family parameter: its default (which fixes the type), a
    one-line doc, an optional short alias for the string grammar and
    optional allowed values."""

    default: object
    doc: str = ""
    alias: str | None = None
    choices: tuple | None = None


def format_value(value) -> str:
    """A parameter value as the grammar spells it."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        # repr is the shortest *exact* round-trip: %g would collapse
        # distinct values into one canonical string and one slug.
        return repr(value)
    return str(value)


def suggest(name: str, candidates) -> str:
    """A "did you mean" (or "choose from") suffix for an error."""
    candidates = list(dict.fromkeys(candidates))
    matches = difflib.get_close_matches(name, candidates, n=3)
    if matches:
        return "; did you mean " + " or ".join(repr(m) for m in matches) + "?"
    return f"; choose from {', '.join(sorted(candidates))}"


class Family:
    """Base of every registered family.

    Subclasses set :attr:`name`, :attr:`description` and
    :attr:`params`.  Families that are built per run receive their
    resolved parameters as the ``p`` mapping.
    """

    #: Registry key; also the prefix of the string grammar.
    name: str = "abstract"
    #: One-line summary shown by ``repro list``.
    description: str = ""
    #: Parameter table: long name -> :class:`Param`.
    params: dict[str, Param] = {}

    def __init__(self, **params) -> None:
        self.p = params

    @classmethod
    def validate(cls, **params) -> None:
        """Raise ``ValueError`` for out-of-range parameter values
        (called with every resolved parameter before anything runs)."""

    @classmethod
    def signature(cls) -> str:
        """Grammar template with defaults, e.g. ``gamma?cv=2.0``."""
        if not cls.params:
            return cls.name
        parts = [f"{pd.alias or name}={format_value(pd.default)}"
                 for name, pd in cls.params.items()]
        return f"{cls.name}?{','.join(parts)}"


class Registry:
    """One open registry of families.

    ``noun`` names the role in every error message (``"arrival
    process"``); ``decorator`` is the public name of :meth:`register`.
    Families register as classes, or — with ``instances=True`` — as
    one instance each.  Registries passed as ``shares`` form one name
    namespace, so a bare name in a ``+``-joined pair grammar resolves
    to exactly one role.  ``floats=False`` keeps each parameter's
    default type (the method registry); everywhere else numbers are
    floats.
    """

    def __init__(self, noun: str, decorator: str, *, base: type = Family,
                 instances: bool = False, floats: bool = True,
                 shares: "Registry | None" = None) -> None:
        self.noun = noun
        self.decorator = decorator
        self.base = base
        self.instances = instances
        self.floats = floats
        self.entries: dict = {}
        self.namespace = [self] if shares is None else shares.namespace
        if shares is not None:
            self.namespace.append(self)

    def register(self, obj=None, *, replace: bool = False):
        """Class decorator: ``@register_x``, ``@register_x("name")`` or
        ``@register_x(replace=True)``.  A string argument overrides the
        class's ``name``; registering a taken name raises unless
        ``replace=True``.

        Registration is per-process: the fork-based ``Runner(workers=N)``
        pool inherits it; on platforms without fork, register in a
        module the workers import.
        """
        name = obj if isinstance(obj, str) else None

        def decorator(target):
            if isinstance(target, type) and issubclass(target, self.base):
                family = target() if self.instances else target
            elif self.instances and isinstance(target, self.base):
                family = target
            else:
                raise TypeError(
                    f"{getattr(target, '__name__', target)!r} must "
                    f"subclass {self.base.__name__}")
            if name is not None:
                target.name = family.name = name
            if not _NAME_RE.match(family.name or ""):
                raise ValueError(
                    f"{self.noun} name {family.name!r} must match "
                    f"{_NAME_RE.pattern}")
            if not replace and any(family.name in r.entries
                                   for r in self.namespace):
                raise ValueError(
                    f"{self.noun} {family.name!r} is already registered; "
                    f"pass {self.decorator}(..., replace=True) to override")
            self._check_params(family)
            self.entries[family.name] = family
            return target

        if obj is None or name is not None:
            return decorator
        return decorator(obj)

    def _check_params(self, family) -> None:
        kinds = (int, float, str) if self.floats else (bool, int, float, str)
        aliases: set[str] = set()
        for pname, pd in family.params.items():
            if pname == "family":
                # Flat spec dicts keep the family beside the parameters.
                raise ValueError("'family' is a reserved parameter name")
            if not isinstance(pd.default, kinds) or pd.default == "" \
                    or (self.floats and isinstance(pd.default, bool)):
                raise ValueError(
                    f"parameter {pname!r} default must be a number or a "
                    f"non-empty string, got {pd.default!r}")
            if pd.alias is not None:
                if pd.alias in family.params or pd.alias in aliases:
                    raise ValueError(
                        f"alias {pd.alias!r} of parameter {pname!r} "
                        "collides with another parameter")
                aliases.add(pd.alias)

    def get(self, name: str):
        """The registered family, or a ``ValueError`` with suggestions."""
        try:
            return self.entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.noun} {name!r}{suggest(name, self.names())}"
            ) from None

    def names(self) -> list[str]:
        """Every name in this registry's namespace."""
        return [n for r in self.namespace for n in r.entries]

    def families(self) -> dict:
        """All registered families (a copy, registration order)."""
        return dict(self.entries)

    def has(self, reference: str) -> bool:
        """True when the family of a ``family?k=v`` string is registered
        here (its parameters may still be invalid)."""
        return reference.strip().partition("?")[0].strip() in self.entries

    def coerce(self, kind: str, name: str, param: Param, value):
        """``value`` converted to ``param``'s type (see class doc)."""
        where = f"parameter {name!r} of {self.noun} {kind!r}"
        default = param.default
        if isinstance(default, str):
            if not isinstance(value, str):
                raise ValueError(f"{where} expects a string, got {value!r}")
            if not value or any(c in value for c in _META):
                raise ValueError(
                    f"{where} string values must be non-empty and free of "
                    f"',', '=', '?', '+' and spaces; got {value!r}")
        elif isinstance(default, bool):
            if isinstance(value, str):
                token = value.lower()
                if token not in _TRUE_TOKENS | _FALSE_TOKENS:
                    raise ValueError(
                        f"{where} expects on/off (or true/false), got "
                        f"{value!r}")
                value = token in _TRUE_TOKENS
            elif isinstance(value, int) and value in (0, 1):
                # 1/0 arrive as ints from sweep axes (the CLI coerces
                # numeric tokens before the spec sees them).
                value = bool(value)
            if not isinstance(value, bool):
                raise ValueError(f"{where} expects a boolean, got {value!r}")
        elif isinstance(default, int) and not self.floats:
            if isinstance(value, bool) or \
                    (isinstance(value, float) and not value.is_integer()):
                raise ValueError(f"{where} expects an integer, got {value!r}")
            try:
                value = int(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where} expects an integer, got {value!r}") from None
        else:
            if isinstance(value, bool):
                raise ValueError(f"{where} expects a number, got {value!r}")
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where} expects a number, got {value!r}") from None
        if param.choices is not None and value not in param.choices:
            raise ValueError(
                f"{where} must be one of "
                f"{', '.join(str(c) for c in param.choices)}; got {value!r}")
        return value

    def default(self, param: Param):
        """``param``'s default as a spec resolves it."""
        if self.floats and isinstance(param.default, (int, float)):
            return float(param.default)
        return param.default


def alias_map(family) -> dict[str, str]:
    """Short alias -> long parameter name."""
    return {pd.alias: name for name, pd in family.params.items()
            if pd.alias is not None}


def split_part(text: str, word: str) -> tuple[str, tuple]:
    """``family?k=v,…`` -> ``(family, ((k, v), …))`` with raw values;
    ``word`` names the role in the error for a malformed pair."""
    text = text.strip()
    kind, sep, rest = text.partition("?")
    pairs = []
    if sep:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if not eq or not key or not value:
                raise ValueError(
                    f"bad {word} parameter {item!r} in {text!r}; the "
                    "grammar is family?key=value,key=value")
            pairs.append((key, value))
    return kind.strip(), tuple(pairs)


def split_spec_list(text: str) -> list[str]:
    """Split a comma-separated spec list, keeping parameters attached:
    ``"poisson,mmpp?burst=4,duty=0.1"`` -> ``["poisson",
    "mmpp?burst=4,duty=0.1"]``.  A token whose first ``+``-part is a
    bare ``key=value`` continues the previous entry's open ``?``
    clause, so ``+``-joined entries (method sets, scheduler and
    kvstore pairs, fault plans) stay whole:
    ``"baseline+hack?pi=128,bits=4,kvquant"`` ->
    ``["baseline+hack?pi=128,bits=4", "kvquant"]``."""
    parts: list[str] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        head = token.split("+", 1)[0]
        if parts and "=" in head and "?" not in head \
                and "?" in parts[-1].rsplit("+", 1)[-1]:
            parts[-1] += "," + token
        else:
            parts.append(token)
    return parts


class Grammar:
    """What the role table needs of a field's spec class: ``parse``,
    ``canonical`` and ``known``, plus the derived reference helpers."""

    @classmethod
    def parse(cls, text: str):
        raise NotImplementedError

    @classmethod
    def known(cls, text: str) -> bool:
        """True when every family a string names is registered in this
        process (its parameters may still be invalid)."""
        raise NotImplementedError

    def canonical(self) -> str:
        raise NotImplementedError

    @classmethod
    def from_ref(cls, reference):
        """The spec behind a reference: a spec or a grammar string."""
        if isinstance(reference, cls):
            return reference
        if isinstance(reference, str):
            return cls.parse(reference)
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(
            f"expected {article} {cls.__name__} or string, got "
            f"{type(reference).__name__}")

    @classmethod
    def canonicalize(cls, reference) -> str:
        """The canonical string form of a reference."""
        return cls.from_ref(reference).canonical()

    @classmethod
    def canonical_or_verbatim(cls, reference) -> str:
        """:meth:`canonicalize`, but a string naming a family this
        process has not registered stays verbatim: descriptions of runs
        that use a custom family (an artifact from another script) must
        still load, render and diff; running them raises at
        resolution."""
        if isinstance(reference, str) and not cls.known(reference):
            return reference.strip()
        return cls.canonicalize(reference)

    def __str__(self) -> str:
        return self.canonical()


@dataclass(frozen=True)
class FamilySpec(Grammar):
    """A declarative ``family + params`` reference (see module doc).

    Subclasses set :attr:`registry`."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    registry: ClassVar[Registry]

    def __post_init__(self) -> None:
        registry = self.registry
        family = registry.get(self.kind)
        items = self.params.items() if isinstance(self.params, dict) \
            else self.params
        aliases = alias_map(family)
        normalized: dict[str, object] = {}
        for key, value in items:
            name = aliases.get(key, key)
            if name not in family.params:
                raise ValueError(
                    f"{registry.noun} {self.kind!r} has no parameter "
                    f"{key!r}{suggest(key, [*family.params, *aliases])}")
            if name in normalized:
                raise ValueError(
                    f"parameter {name!r} given twice for {registry.noun} "
                    f"{self.kind!r}")
            normalized[name] = registry.coerce(self.kind, name,
                                               family.params[name], value)
        object.__setattr__(self, "params", tuple(sorted(normalized.items())))
        family.validate(**self.resolved_params())

    @classmethod
    def of(cls, kind: str, **params):
        """Keyword-style constructor: ``ArrivalSpec.of("gamma", cv=3)``."""
        return cls(kind, tuple(params.items()))

    @classmethod
    def parse(cls, text: str):
        """Parse ``family[?key=value,…]``."""
        cls.registry.get(text.strip().partition("?")[0].strip())
        return cls(*split_part(text, cls.registry.noun.split()[0]))

    @classmethod
    def known(cls, text: str) -> bool:
        return cls.registry.has(text)

    def family(self):
        """The registered family this spec names."""
        return self.registry.get(self.kind)

    def resolved_params(self) -> dict:
        """Family defaults overlaid with this spec's parameters."""
        out = {name: self.registry.default(pd)
               for name, pd in self.family().params.items()}
        out.update(self.params)
        return out

    def with_params(self, **changes):
        """A copy with parameters changed (aliases accepted; ``None``
        drops a parameter back to its family default)."""
        aliases = alias_map(self.family())
        merged = dict(self.params)
        for key, value in changes.items():
            name = aliases.get(key, key)
            if value is None:
                merged.pop(name, None)
            else:
                merged[name] = value
        return dataclasses.replace(self, params=tuple(merged.items()))

    def build(self):
        """A fresh family instance (families may hold per-run state)."""
        return self.family()(**self.resolved_params())

    def canonical(self) -> str:
        """Compact string form, e.g. ``mmpp?burst=4.0,duty=0.1``."""
        if not self.params:
            return self.kind
        params = self.family().params
        parts = [f"{params[k].alias or k}={format_value(v)}"
                 for k, v in self.params]
        return f"{self.kind}?{','.join(parts)}"


def parse_pair(text: str, what: str, grammar: str, noun: str,
               word: str, parts: dict[str, type]) -> dict[str, FamilySpec]:
    """Parse a ``+``-joined pair such as ``round_robin+best_fit``.

    ``parts`` maps each role's plural noun (``"dispatch policies"``)
    to its :class:`FamilySpec` class; a part's role is the one whose
    registry knows its family, and each role appears at most once.
    Returns plural noun -> spec for the roles present.  ``what`` and
    ``grammar`` describe the pair in errors, ``noun`` names an unknown
    part and ``word`` a malformed parameter."""
    pieces = [p.strip() for p in text.strip().split("+")]
    if not all(pieces):
        raise ValueError(f"bad {what} {text!r}; the grammar is {grammar}")
    found: dict[str, FamilySpec] = {}
    for piece in pieces:
        kind, pairs = split_part(piece, word)
        plural = next((p for p, spec_cls in parts.items()
                       if kind in spec_cls.registry.entries), None)
        if plural is None:
            names = [n for spec_cls in parts.values()
                     for n in spec_cls.registry.entries]
            raise ValueError(f"unknown {noun} {kind!r}{suggest(kind, names)}")
        if plural in found:
            raise ValueError(
                f"{what} {text!r} names two {plural} "
                f"({found[plural].kind!r} and {kind!r})")
        found[plural] = parts[plural](kind, pairs)
    return found


def all_known(text: str, *registries: Registry) -> bool:
    """True when every ``+``-part of ``text`` names a family of one of
    ``registries``."""
    return all(any(r.has(part) for r in registries)
               for part in text.strip().split("+"))


@dataclass(frozen=True)
class Role:
    """One row of the role table (see :func:`roles`)."""

    #: Short role name (test ids).
    name: str
    #: The Scenario field whose value this role's registry names; pair
    #: grammars give two roles one field.
    field: str
    registry: Registry
    #: The field's spec class (a :class:`Grammar`).
    spec: type
    #: ``repro list`` heading printed above the role's families.
    heading: str
    #: ``repro list --json`` catalog key.
    catalog: str
    #: A ``none`` sweep-axis value means the field is unset.
    none_is_null: bool = False


@functools.cache
def roles() -> tuple[Role, ...]:
    """The role table, in ``repro list`` order.  Registries are
    imported here, on first use, because they are declared on top of
    this module."""
    from .kvstore import selection, spec as kvstore
    from .methods import spec as methods
    from .sim import elastic, faults, recovery, scheduling
    from .workload import arrivals

    return (
        Role("method", "methods", methods.FAMILIES, methods.MethodSpec,
             "method families (spec grammar: family?key=val,… — defaults "
             "shown):", "method_families"),
        Role("arrival", "arrival", arrivals.ARRIVALS, arrivals.ArrivalSpec,
             "arrival processes (--arrival, same grammar — defaults "
             "shown):", "arrival_processes"),
        Role("dispatch", "scheduler", scheduling.DISPATCH,
             scheduling.SchedulerSpec,
             "scheduling policies (--scheduler dispatch[+placement], same "
             "grammar):\n dispatch:", "dispatch_policies"),
        Role("placement", "scheduler", scheduling.PLACEMENT,
             scheduling.SchedulerSpec, " placement:", "placement_policies"),
        Role("kvstore", "kvstore", kvstore.STORES, kvstore.KVStoreSpec,
             "KV-store families (--kvstore family?key=val+eviction, same "
             "grammar):", "kvstore_families"),
        Role("eviction", "kvstore", kvstore.EVICTIONS, kvstore.KVStoreSpec,
             " eviction:", "eviction_policies"),
        Role("selection", "selection", selection.SELECTIONS,
             selection.SelectionSpec,
             "selection policies (--selection, same grammar):",
             "selection_policies"),
        Role("fault", "faults", faults.FAULTS, faults.FaultPlan,
             "fault families (--faults family?key=val+family…, same "
             "grammar):", "fault_families", none_is_null=True),
        Role("recovery", "recovery", recovery.RECOVERIES,
             recovery.RecoverySpec,
             "recovery policies (--recovery, same grammar):",
             "recovery_policies"),
        Role("autoscaler", "autoscaler", elastic.AUTOSCALERS,
             elastic.AutoscalerSpec,
             "autoscaler policies (--autoscaler, same grammar):",
             "autoscaler_policies", none_is_null=True),
        Role("admission", "admission", elastic.ADMISSIONS,
             elastic.AdmissionSpec,
             "admission policies (--admission, same grammar):",
             "admission_policies", none_is_null=True),
    )


@functools.cache
def field_roles() -> dict[str, Role]:
    """Scenario field -> its first role (the field's spec class)."""
    out: dict[str, Role] = {}
    for role in roles():
        out.setdefault(role.field, role)
    return out
