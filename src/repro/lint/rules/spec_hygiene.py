"""Spec-hygiene rules: frozen ``*Spec`` dataclasses, unique registrations.

Every ``*Spec`` in the repo is a frozen dataclass by convention — specs
are hashable sweep-axis values and dict keys, and a mutable spec would
silently break canonicalization and artifact identity (REPRO201).  The
eleven open ``family?k=v`` registries each resolve a bare name to one
family; two ``@register_*`` declarations claiming the same name in the
same role namespace would make resolution import-order-dependent
(REPRO202) — the runtime raises at import time, but only on the import
path that happens to load both, which is exactly the kind of landmine
a static pass should defuse.
"""

from __future__ import annotations

import ast
import functools

from ..core import FileContext, ProjectContext, Rule, register_rule

__all__ = ["FrozenSpecRule", "DuplicateRegistrationRule"]


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` / ``@dataclasses.dataclass`` decorator node
    (bare or called), or None."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return deco
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return deco
    return None


@register_rule
class FrozenSpecRule(Rule):
    code = "REPRO201"
    name = "spec-must-freeze"
    description = (
        "*Spec dataclasses are canonical, hashable values; declare "
        "them @dataclass(frozen=True)")
    scope = ("src/",)

    def check_file(self, ctx: FileContext):
        if ctx.tree is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) \
                    or not node.name.endswith("Spec"):
                continue
            deco = _dataclass_decorator(node)
            if deco is None:
                continue
            frozen = isinstance(deco, ast.Call) and any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in deco.keywords)
            if not frozen:
                yield ctx.finding(
                    self, node,
                    f"dataclass {node.name!r} ends in 'Spec' but is not "
                    "frozen; declare @dataclass(frozen=True)")


@functools.cache
def _namespaces() -> dict[str, str]:
    """``@register_*`` decorator name -> role namespace, from the
    kernel's role table.  Decorators that share a string grammar share
    a namespace (a bare name must resolve to exactly one role):
    scheduling's dispatch+placement pair and the KV store's
    family+eviction pair.  Unknown register_* decorators default to
    their own name, so a brand-new registry is covered the moment it
    exists."""
    from repro.spec import roles

    out = {role.registry.decorator: role.field for role in roles()}
    out["register_rule"] = "lint-rule"
    return out


def _registrations(ctx: FileContext):
    """Yield (namespace, family_name, replace, classdef) for every
    statically-resolvable @register_* class in the file."""
    if ctx.tree is None:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if isinstance(target, ast.Attribute):
                deco_name = target.attr
            elif isinstance(target, ast.Name):
                deco_name = target.id
            else:
                continue
            if not deco_name.startswith("register_"):
                continue
            namespace = _namespaces().get(deco_name, deco_name)
            replace = False
            name = None
            if isinstance(deco, ast.Call):
                for kw in deco.keywords:
                    if kw.arg == "replace" \
                            and isinstance(kw.value, ast.Constant):
                        replace = bool(kw.value.value)
                if deco.args and isinstance(deco.args[0], ast.Constant) \
                        and isinstance(deco.args[0].value, str):
                    name = deco.args[0].value
            if name is None:
                # Fall back to the class-body ``name = "..."`` attr.
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) \
                            and len(stmt.targets) == 1 \
                            and isinstance(stmt.targets[0], ast.Name) \
                            and stmt.targets[0].id == "name" \
                            and isinstance(stmt.value, ast.Constant) \
                            and isinstance(stmt.value.value, str):
                        name = stmt.value.value
                    elif isinstance(stmt, ast.AnnAssign) \
                            and isinstance(stmt.target, ast.Name) \
                            and stmt.target.id == "name" \
                            and isinstance(stmt.value, ast.Constant) \
                            and isinstance(stmt.value.value, str):
                        name = stmt.value.value
            if name is not None:
                yield namespace, name, replace, node


@register_rule
class DuplicateRegistrationRule(Rule):
    code = "REPRO202"
    name = "duplicate-registration"
    description = (
        "two @register_* declarations claim the same family name in "
        "one role namespace; resolution would be import-order-"
        "dependent")
    project_rule = True

    def check_project(self, project: ProjectContext):
        seen: dict[tuple[str, str], tuple[str, int]] = {}
        for ctx in project.files:
            if not ctx.relpath.startswith("src/"):
                continue
            for namespace, name, replace, node in _registrations(ctx):
                key = (namespace, name)
                if replace:
                    continue
                if key in seen:
                    first_path, first_line = seen[key]
                    yield ctx.finding(
                        self, node,
                        f"{namespace} family {name!r} is already "
                        f"registered at {first_path}:{first_line}; "
                        "rename it or pass replace=True")
                else:
                    seen[key] = (ctx.relpath, node.lineno)
