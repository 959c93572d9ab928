"""Grammar round-trip rules: ``parse(canonical(spec)) == spec``.

Every registry speaks the same ``family?k=v`` string grammar, and the
whole scenario/artifact machinery assumes the canonical string form is
a fixed point: parsing it must reproduce the spec, and canonicalizing
it again must reproduce the string (slugs, artifact file names and
sweep-axis labels all depend on it).  REPRO301 *executes* that law for
every registered family — bare name and full default signature — by
importing the live registries, so a family whose parameter formatting
drifts is caught before any scenario slug does.  REPRO302 enforces the
cross-role uniqueness the pair grammars rely on (a bare ``--scheduler``
or ``--kvstore`` name must resolve to exactly one role), plus the
legacy-alias shadowing hazard in the method grammar.
"""

from __future__ import annotations

import inspect
from itertools import combinations
from pathlib import Path

from ..core import Finding, ProjectContext, Rule, register_rule

__all__ = ["RoundTripRule", "CrossRoleUniquenessRule", "check_roundtrip"]


def _anchor(project: ProjectContext, obj) -> tuple[str, int]:
    """(relpath, line) of a registered family/policy's definition, for
    attaching findings (and pragmas) to the offending declaration."""
    target = obj if inspect.isclass(obj) else type(obj)
    try:
        path = Path(inspect.getsourcefile(target))
        _, line = inspect.getsourcelines(target)
        return path.relative_to(project.root).as_posix(), line
    except (TypeError, OSError, ValueError):
        return "src/repro/__init__.py", 1


def check_roundtrip(names_to_objs: dict, parse, canonical,
                    signature_of=None):
    """Round-trip every family through its grammar; yields
    ``(obj, text, problem)`` tuples for failures.

    Checked per family: the bare name and the full default signature
    (every parameter spelled out) both satisfy
    ``parse(canonical(text)) == parse(text)`` with an idempotent
    canonical form.  ``signature_of`` defaults to the registered
    object's ``signature()``.
    """
    for name, obj in names_to_objs.items():
        texts = [name]
        sig = None
        if signature_of is not None:
            sig = signature_of(obj)
        elif hasattr(obj, "signature"):
            sig = obj.signature()
        if sig and sig != name:
            texts.append(sig)
        for text in texts:
            try:
                spec = parse(text)
                canon = canonical(text)
                respec = parse(canon)
                recanon = canonical(canon)
            except Exception as exc:
                yield obj, text, f"raised {type(exc).__name__}: {exc}"
                continue
            if respec != spec:
                yield (obj, text,
                       f"parse({canon!r}) != parse({text!r}) — canonical "
                       "form does not round-trip")
            elif recanon != canon:
                yield (obj, text,
                       f"canonical is not idempotent: {canon!r} -> "
                       f"{recanon!r}")


@register_rule
class RoundTripRule(Rule):
    code = "REPRO301"
    name = "grammar-round-trip"
    description = (
        "parse(canonical(spec)) must equal spec for every registered "
        "family (bare name and full default signature)")
    project_rule = True

    def registries(self):
        """``(role, families, parse, canonical)`` per registry: the
        kernel's role table (overridable in tests)."""
        from repro.spec import roles

        return [(role.name, role.registry.families(), role.spec.parse,
                 role.spec.canonicalize) for role in roles()]

    def check_project(self, project: ProjectContext):
        for role, families, parse, canonical in self.registries():
            for obj, text, problem in check_roundtrip(
                    families, parse, canonical):
                path, line = _anchor(project, obj)
                yield Finding(
                    path=path, line=line, code=self.code,
                    message=f"{role} family grammar broken for "
                            f"{text!r}: {problem}",
                    rule=self.name)


@register_rule
class CrossRoleUniquenessRule(Rule):
    code = "REPRO302"
    name = "cross-role-uniqueness"
    description = (
        "registries sharing a pair grammar must not reuse names "
        "across roles, and legacy method aliases must not shadow a "
        "different family")
    project_rule = True

    def check_project(self, project: ProjectContext):
        from repro.spec import roles

        # Roles sharing a Scenario field share its pair grammar.
        by_field: dict[str, list] = {}
        for role in roles():
            by_field.setdefault(role.field, []).append(role)
        for a, b in (pair for group in by_field.values()
                     for pair in combinations(group, 2)):
            reg_a, reg_b = a.registry.entries, b.registry.entries
            for name in sorted(set(reg_a) & set(reg_b)):
                path, line = _anchor(project, reg_b[name])
                yield Finding(
                    path=path, line=line, code=self.code,
                    message=f"name {name!r} is registered as both a "
                            f"{a.name} and a {b.name}; a bare name in "
                            "the pair grammar must resolve to one role",
                    rule=self.name)

        # A legacy method alias resolves before families in
        # parse_method, so an alias naming a *different* family makes
        # that family unreachable by its own name.
        from repro.methods.spec import FAMILIES, LEGACY

        families = FAMILIES.entries
        for alias, entry in LEGACY.items():
            if alias in families and entry.spec.kind != alias:
                path, line = _anchor(project, families[alias])
                yield Finding(
                    path=path, line=line, code=self.code,
                    message=f"legacy alias {alias!r} (-> family "
                            f"{entry.spec.kind!r}) shadows the "
                            f"registered family {alias!r}",
                    rule=self.name)
