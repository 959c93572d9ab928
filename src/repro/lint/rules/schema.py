"""Schema-discipline rule: metric keys may not change silently.

``RunArtifact`` JSON is schema-versioned (v1–v5) and ``compare`` /
``summary_table`` key directly off ``SUMMARY_METRICS``, the compare
scalars and the per-request record fields.  History shows the failure
mode: every key addition so far rode a version bump (v2 serving
metrics, v4 reliability keys, v5 cost pair) — adding a summary metric
*without* bumping ``SCHEMA_VERSION`` would make same-version artifacts
diff against each other and silently break ``compare``.

REPRO501 pins the current key surface in ``schema_pin.json`` next to
this module.  The pin is readable (the actual key lists, not a hash),
so its diff in a PR *is* the schema-change review.  The rule fails
when the keys drift while ``SCHEMA_VERSION`` stays put, and when the
version bumps it demands a pin refresh (``repro lint
--schema-pin-update``) so the committed pin always describes the
shipping schema.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from ..core import FileContext, ProjectContext, Rule

__all__ = ["SchemaPinRule", "extract_schema", "PIN_PATH"]

PIN_PATH = Path(__file__).resolve().parent.parent / "schema_pin.json"

_ARTIFACT_PATH = "src/repro/api/artifact.py"
_REQUEST_PATH = "src/repro/sim/request.py"


def _module_tuple(ctx: FileContext, name: str) -> tuple[list, int] | None:
    """A module-level tuple-of-strings assignment, with its line."""
    if ctx.tree is None:
        return None
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == name \
                and isinstance(node.value, ast.Tuple):
            values = [elt.value for elt in node.value.elts
                      if isinstance(elt, ast.Constant)
                      and isinstance(elt.value, str)]
            return values, node.lineno
    return None


def _module_int(ctx: FileContext, name: str) -> tuple[int, int] | None:
    if ctx.tree is None:
        return None
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == name \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, int):
            return node.value.value, node.lineno
    return None


def _record_fields(ctx: FileContext) -> tuple[list, int] | None:
    """All string dict-literal keys inside ``SimRequest.record`` —
    the per-request artifact fields, conditional branches included."""
    if ctx.tree is None:
        return None
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef) and node.name == "SimRequest":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "record":
                    keys: list[str] = []
                    for sub in ast.walk(item):
                        if isinstance(sub, ast.Dict):
                            keys.extend(
                                k.value for k in sub.keys
                                if isinstance(k, ast.Constant)
                                and isinstance(k.value, str))
                    return sorted(set(keys)), item.lineno
    return None


def extract_schema(project: ProjectContext) -> dict | None:
    """The current schema surface, statically extracted; None (plus no
    finding — the paths rule on missing files is REPRO501 itself) when
    the source structure moved."""
    artifact = project.get(_ARTIFACT_PATH)
    request = project.get(_REQUEST_PATH)
    if artifact is None or request is None:
        return None
    version = _module_int(artifact, "SCHEMA_VERSION")
    summary = _module_tuple(artifact, "SUMMARY_METRICS")
    compare = _module_tuple(artifact, "_COMPARE_SCALARS")
    record = _record_fields(request)
    if None in (version, summary, compare, record):
        return None
    return {
        "schema_version": version[0],
        "summary_metrics": summary[0],
        "compare_scalars": compare[0],
        "record_fields": record[0],
        "_anchor": (_ARTIFACT_PATH, summary[1]),
    }


def load_pin(path: Path = PIN_PATH) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def write_pin(project: ProjectContext, path: Path = PIN_PATH) -> dict:
    """Refresh the pin from the live tree (``--schema-pin-update``)."""
    current = extract_schema(project)
    if current is None:
        raise ValueError(
            "cannot extract the artifact schema surface from "
            f"{_ARTIFACT_PATH} / {_REQUEST_PATH}")
    pin = {k: v for k, v in current.items() if not k.startswith("_")}
    path.write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n")
    return pin


def _diff(kind: str, pinned: list, current: list) -> str | None:
    added = sorted(set(current) - set(pinned))
    removed = sorted(set(pinned) - set(current))
    if not added and not removed:
        return None
    parts = []
    if added:
        parts.append(f"added {', '.join(added)}")
    if removed:
        parts.append(f"removed {', '.join(removed)}")
    return f"{kind}: {'; '.join(parts)}"


class SchemaPinRule(Rule):
    code = "REPRO501"
    name = "schema-discipline"
    description = (
        "summary metrics / compare scalars / per-request record fields "
        "changed without a SCHEMA_VERSION bump (or the pin is stale)")
    project_rule = True

    #: Overridable in tests.
    pin_path = PIN_PATH

    def check_project(self, project: ProjectContext):
        current = extract_schema(project)
        anchor_path, anchor_line = (_ARTIFACT_PATH, 1)
        if current is None:
            ctx = project.get(_ARTIFACT_PATH)
            if ctx is not None:
                yield ctx.finding(
                    self, 1,
                    "the artifact schema surface (SCHEMA_VERSION / "
                    "SUMMARY_METRICS / _COMPARE_SCALARS / "
                    "SimRequest.record) is no longer statically "
                    "extractable; update repro.lint.rules.schema")
            return
        anchor_path, anchor_line = current["_anchor"]
        ctx = project.get(anchor_path)
        pin = load_pin(self.pin_path)
        if pin is None:
            yield ctx.finding(
                self, anchor_line,
                f"schema pin {self.pin_path.name} is missing or "
                "unreadable; run `repro lint --schema-pin-update`")
            return
        if current["schema_version"] != pin.get("schema_version"):
            yield ctx.finding(
                self, anchor_line,
                f"SCHEMA_VERSION is {current['schema_version']} but the "
                f"pin records {pin.get('schema_version')}; run `repro "
                "lint --schema-pin-update` in the bumping PR")
            return
        diffs = [d for d in (
            _diff("SUMMARY_METRICS", pin.get("summary_metrics", []),
                  current["summary_metrics"]),
            _diff("compare scalars", pin.get("compare_scalars", []),
                  current["compare_scalars"]),
            _diff("record fields", pin.get("record_fields", []),
                  current["record_fields"]),
        ) if d]
        for diff in diffs:
            yield ctx.finding(
                self, anchor_line,
                f"artifact schema surface changed without a "
                f"SCHEMA_VERSION bump ({diff}); bump SCHEMA_VERSION in "
                f"{_ARTIFACT_PATH} and run `repro lint "
                "--schema-pin-update`")
