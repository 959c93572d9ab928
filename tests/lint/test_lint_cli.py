"""The lint command line: exit codes, --json and the reporters."""

import json

from repro.lint.cli import main, render_json, render_text
from repro.lint.runner import run_lint


class TestExitCodes:
    def test_violating_file_exits_nonzero(self, fixtures_dir, capsys):
        code = main([str(fixtures_dir / "safety_violation.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "REPRO601" in out and "repro lint:" in out

    def test_clean_file_exits_zero(self, fixtures_dir, capsys):
        code = main([str(fixtures_dir / "safety_clean.py")])
        assert code == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for expected in ("REPRO101", "REPRO201", "REPRO501", "REPRO601"):
            assert expected in out


class TestJsonOutput:
    def test_shape(self, fixtures_dir, capsys):
        main([str(fixtures_dir / "safety_violation.py"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["n_files"] == 1
        assert payload["counts"]["findings"] == len(payload["findings"])
        first = payload["findings"][0]
        assert set(first) == {"path", "line", "code", "message", "rule"}


class TestReporters:
    def test_render_text_counts_line(self, fixtures_dir):
        result = run_lint(paths=[fixtures_dir / "safety_violation.py"])
        text = render_text(result)
        assert text.splitlines()[-1].startswith("repro lint: 3 findings")

    def test_render_json_round_trips(self, fixtures_dir):
        result = run_lint(paths=[fixtures_dir / "safety_clean.py"])
        assert json.loads(render_json(result))["ok"] is True
