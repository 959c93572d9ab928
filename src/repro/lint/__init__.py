"""``repro.lint``: an AST-based invariant checker for this repo.

The codebase rests on conventions that neither the registries, the
tests nor ruff enforce — bit-level determinism, frozen ``*Spec``
values, schema-versioned artifacts where a key change without a
version bump silently breaks ``compare``, and float comparisons that
can only hold by rounding coincidence.  This package checks them: a
fixed tuple of rules (:data:`~repro.lint.rules.RULES`) over a shared
AST framework, per-rule codes, ``# repro: lint-ignore[CODE]`` pragmas
and text/JSON reports, wired up as ``repro lint`` (also the
``repro-lint`` console script) and a required CI gate.

See the README's "Static analysis & invariants" section for the rule
catalog and how to add a rule.
"""

from .core import FileContext, Finding, ProjectContext, Rule
from .rules import RULES
from .runner import LintResult, collect_files, discover_root, run_lint

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "ProjectContext",
    "RULES",
    "Rule",
    "collect_files",
    "discover_root",
    "run_lint",
]
