"""``repro lint`` / ``repro-lint``: the invariant gate's command line.

::

    python -m repro.lint.cli                     # lint the repo
    python -m repro.lint.cli --json              # machine-readable report
    python -m repro.lint.cli --schema-pin-update # after a schema bump
    python -m repro.lint.cli path/to/file.py     # lint only these files
    python -m repro.lint.cli --list-rules

Exit status 1 means at least one finding no pragma suppressed.  The
same flags hang off the main CLI as ``hack-repro lint``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import ProjectContext
from .rules import RULES
from .rules.schema import write_pin
from .runner import LintResult, collect_files, discover_root, run_lint

__all__ = ["main", "add_lint_arguments", "run_from_args", "render_text",
           "render_json"]


def render_text(result: LintResult) -> str:
    """Human-readable report: one ``path:line: CODE message`` per
    finding, then the counts line the CI log greps for."""
    lines = [f.render() for f in result.findings]
    lines.append(
        f"repro lint: {len(result.findings)} finding"
        f"{'s' if len(result.findings) != 1 else ''} "
        f"({len(result.suppressed)} pragma-suppressed, "
        f"{result.n_files} files)")
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (``repro lint --json``)."""
    return json.dumps(result.to_dict(), indent=1, sort_keys=True)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """The lint flags, attachable to any argparse parser (the main
    CLI's ``lint`` subcommand reuses them verbatim)."""
    parser.add_argument("paths", nargs="*", type=Path,
                        help="lint only these files/directories "
                             "(skips the cross-file project rules); "
                             "default walks src/, tests/, benchmarks/ "
                             "and examples/")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    parser.add_argument("--schema-pin-update", action="store_true",
                        help="refresh the REPRO501 schema pin after a "
                             "SCHEMA_VERSION bump")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the rules and exit")


def run_from_args(args) -> int:
    if args.list_rules:
        for rule in RULES:
            scope = ", ".join(rule.scope) if rule.scope else (
                "project-wide" if rule.project_rule else "all files")
            print(f"{rule.code} {rule.name:32s} [{scope}]")
            print(f"    {rule.description}")
        return 0

    root = discover_root()
    if args.schema_pin_update:
        pin = write_pin(ProjectContext(root, collect_files(root)))
        print(f"schema pin refreshed for schema_version "
              f"{pin['schema_version']}", file=sys.stderr)
        return 0

    result = run_lint(root, paths=args.paths or None)
    print(render_json(result) if args.json else render_text(result))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant checker: determinism, "
                    "spec hygiene, schema discipline, float safety.")
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
