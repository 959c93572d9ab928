"""Meta-test: the live repository satisfies its own invariants.

This is the same gate CI runs (``repro lint``): every rule over the
whole tree, failing on any finding.  If a change introduces a finding,
either fix it, pragma it with a justification, or (for a deliberate
schema change) bump SCHEMA_VERSION and refresh the pin.
"""

import re

from repro.lint import RULES, run_lint


class TestRepoLintsClean:
    def test_live_repo_has_no_new_findings(self, repo_root):
        result = run_lint(repo_root)
        assert result.ok, "new lint findings:\n" + "\n".join(
            f.render() for f in result.findings)

    def test_walk_covers_the_tree(self, repo_root):
        assert run_lint(repo_root).n_files > 150


class TestRuleInventory:
    def test_rule_codes_are_exactly_the_kept_set(self):
        # Duplicate registrations, grammar round-trips and bare excepts
        # have other enforcers (the registry, tests/test_spec_kernel.py
        # and ruff's E722), so no rule here polices them.
        assert {rule.code for rule in RULES} == {
            "REPRO101", "REPRO102", "REPRO103", "REPRO201", "REPRO501",
            "REPRO601", "REPRO602", "REPRO604"}

    def test_rule_codes_and_names_are_unique_and_well_formed(self):
        codes = [rule.code for rule in RULES]
        names = [rule.name for rule in RULES]
        assert len(set(codes)) == len(codes)
        assert len(set(names)) == len(names)
        assert all(re.fullmatch(r"REPRO\d{3}", code) for code in codes)

    def test_every_rule_documents_itself(self):
        for rule in RULES:
            assert rule.description, f"{rule.code} has no description"
            assert rule.name and rule.name != "abstract"
