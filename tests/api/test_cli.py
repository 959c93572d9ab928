"""Subcommand CLI: scenario runs, sweeps, artifacts, legacy aliases."""

import json

import pytest

from repro.cli import EXPERIMENTS, main
from repro.experiments import fig9_12_jct

RUN_FLAGS = ["--dataset", "imdb", "--methods", "baseline,hack",
             "--n-requests", "12", "--seed", "5"]


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_json_catalog(self, capsys):
        assert main(["list", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert "fig9" in catalog["experiments"]
        assert "hack" in catalog["methods"]
        assert "cocktail" in catalog["datasets"]

    def test_json_catalog_keys(self, capsys):
        """The catalog's keys, in order, are part of the CLI contract."""
        assert main(["list", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert list(catalog) == [
            "experiments", "models", "datasets", "methods",
            "method_families", "arrival_processes", "dispatch_policies",
            "placement_policies", "kvstore_families", "eviction_policies",
            "selection_policies", "fault_families", "recovery_policies",
            "autoscaler_policies", "admission_policies", "prefill_gpus",
        ]


class TestRunScenario:
    def test_table_output(self, capsys):
        assert main(["run", *RUN_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "hack" in out
        assert "avg_jct_s" in out

    def test_json_output_is_schema_versioned(self, capsys):
        assert main(["run", *RUN_FLAGS, "--json"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["schema"] == "hack-repro/run-artifact"
        assert artifact["schema_version"] == 5
        assert set(artifact["methods"]) == {"baseline", "hack"}
        assert artifact["scenario"]["dataset"] == "imdb"

    def test_out_writes_artifact(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["run", *RUN_FLAGS, "--out", str(out_dir)]) == 0
        files = list(out_dir.glob("*.json"))
        assert len(files) == 1
        data = json.loads(files[0].read_text())
        assert data["schema_version"] == 5

    def test_workers_produce_identical_artifact(self, tmp_path):
        main(["run", *RUN_FLAGS, "--out", str(tmp_path / "serial")])
        main(["run", *RUN_FLAGS, "--workers", "2",
              "--out", str(tmp_path / "parallel")])
        a, = (tmp_path / "serial").glob("*.json")
        b, = (tmp_path / "parallel").glob("*.json")
        assert a.read_text() == b.read_text()


class TestSweep:
    AXES = ["--axis", "dataset=imdb,humaneval", "--axis", "seed=1,2",
            "--methods", "hack", "--n-requests", "10"]

    def test_two_axis_grid_table(self, capsys):
        assert main(["sweep", *self.AXES]) == 0
        out = capsys.readouterr().out
        assert out.count("hack") == 4   # 2 datasets x 2 seeds

    def test_parallel_matches_serial(self, tmp_path, capsys):
        assert main(["sweep", *self.AXES,
                     "--out", str(tmp_path / "serial")]) == 0
        assert main(["sweep", *self.AXES, "--workers", "4",
                     "--out", str(tmp_path / "parallel")]) == 0
        serial = sorted((tmp_path / "serial").glob("*.json"))
        parallel = sorted((tmp_path / "parallel").glob("*.json"))
        assert [p.name for p in serial] == [p.name for p in parallel]
        assert [p.read_text() for p in serial] == \
            [p.read_text() for p in parallel]
        # and the compare subcommand agrees
        assert main(["compare", str(tmp_path / "serial"),
                     str(tmp_path / "parallel")]) == 0

    def test_bad_axis_spec(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "dataset"])

    def test_single_file_out_rejected_for_multi_artifact(self, tmp_path):
        with pytest.raises(SystemExit, match="single file"):
            main(["sweep", *self.AXES,
                  "--out", str(tmp_path / "grid.json")])

    def test_default_axes_honor_user_flags(self, capsys):
        """`sweep --methods X` without --axis must sweep X, not the
        hardcoded default methods."""
        assert main(["sweep", "--methods", "kvquant", "--dataset", "imdb",
                     "--n-requests", "10"]) == 0
        out = capsys.readouterr().out
        assert "kvquant" in out
        assert "baseline" not in out
        # --dataset was pinned, so the grid is a single cell (one data
        # row, which prints the method in both the axis and method cols).
        assert out.count("kvquant  kvquant") == 1

    def test_json_shape_is_array_even_for_one_cell(self, capsys):
        assert main(["sweep", "--axis", "dataset=imdb", "--methods",
                     "hack", "--n-requests", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["schema_version"] == 5

    def test_method_param_axis_produces_per_spec_artifacts(self, tmp_path,
                                                           capsys):
        """The acceptance-criterion sweep: Π as a first-class axis."""
        assert main(["sweep", "--methods", "hack", "--axis",
                     "method.partition_size=32,64,128,256",
                     "--n-requests", "10", "--dataset", "imdb",
                     "--out", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 4
        methods = sorted(json.loads(p.read_text())["scenario"]["methods"][0]
                         for p in files)
        assert methods == ["hack?pi=128", "hack?pi=256", "hack?pi=32",
                           "hack?pi=64"]

    def test_method_param_axis_renders_table(self, capsys):
        """The summary-table path must show the swept parameter value
        (method.<param> is not a Scenario attribute)."""
        assert main(["sweep", "--methods", "hack", "--axis",
                     "method.partition_size=32,64", "--n-requests", "10",
                     "--dataset", "imdb"]) == 0
        out = capsys.readouterr().out
        assert "method.partition_size" in out
        assert "hack?pi=32" in out and "hack?pi=64" in out

    def test_method_spec_in_methods_flag(self, capsys):
        assert main(["run", "--dataset", "imdb", "--methods",
                     "baseline,hack?pi=128,bits=4", "--n-requests", "10",
                     "--json"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert set(artifact["methods"]) == {"baseline", "hack?bits=4,pi=128"}

    def test_methods_axis_value_may_be_a_multi_param_spec(self, capsys):
        """A ',' inside a spec's parameters must not split the axis."""
        assert main(["sweep", "--axis",
                     "methods=baseline+hack?pi=128,bits=4,kvquant",
                     "--dataset", "imdb", "--n-requests", "10",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        grids = sorted(tuple(a["scenario"]["methods"]) for a in payload)
        assert grids == [("baseline", "hack?bits=4,pi=128"), ("kvquant",)]

    def test_method_bool_axis_accepts_1_0(self, capsys):
        assert main(["sweep", "--methods", "hack", "--axis",
                     "method.se=1,0", "--dataset", "imdb",
                     "--n-requests", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        methods = [a["scenario"]["methods"][0] for a in payload]
        assert methods == ["hack?se=on", "hack?se=off"]

    def test_inapplicable_method_axis_is_clean_error(self, capsys):
        assert main(["sweep", "--methods", "baseline", "--axis",
                     "method.partition_size=32", "--n-requests", "10"]) == 2
        assert "apply to none" in capsys.readouterr().err


class TestCompareExport:
    @pytest.fixture(scope="class")
    def artifact_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("art")
        main(["run", *RUN_FLAGS, "--out", str(out)])
        path, = out.glob("*.json")
        return path

    def test_compare_detects_difference(self, artifact_path, tmp_path,
                                        capsys):
        main(["run", "--dataset", "imdb", "--methods", "baseline,hack",
              "--n-requests", "12", "--seed", "6", "--out", str(tmp_path)])
        other, = tmp_path.glob("*.json")
        assert main(["compare", str(artifact_path), str(other)]) == 1
        assert "DIFFERS" in capsys.readouterr().out

    def test_export_text_and_md_and_csv(self, artifact_path, capsys):
        assert main(["export", str(artifact_path)]) == 0
        text = capsys.readouterr().out
        assert "avg_jct_s" in text
        assert main(["export", str(artifact_path), "--format", "md"]) == 0
        assert "| method |" in capsys.readouterr().out
        assert main(["export", str(artifact_path), "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("method,")

    def test_export_missing_file(self):
        with pytest.raises(SystemExit):
            main(["export", "/no/such/artifact.json"])


class TestLegacyAliases:
    def test_fig9_alias_renders_identically(self, capsys):
        """Golden check: the legacy spelling reproduces the experiment
        module's rendering verbatim (modulo the timing footer)."""
        expected = fig9_12_jct.run_fig9_fig10(scale=0.1).render()
        assert main(["fig9", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert expected in out
        assert out.startswith("== fig9: ")

    def test_run_subcommand_spelling_matches_alias(self, capsys):
        assert main(["run", "fig13", "--scale", "0.1"]) == 0
        via_run = capsys.readouterr().out
        assert main(["fig13", "--scale", "0.1"]) == 0
        via_alias = capsys.readouterr().out
        # identical up to the timing footer line
        def strip(s):
            return [line for line in s.splitlines()
                    if not line.startswith("[fig13 took")]

        assert strip(via_run) == strip(via_alias)

    def test_scale_rejected_for_accuracy_experiments(self):
        for name in ("table6", "table7"):
            with pytest.raises(SystemExit, match="no simulation trace"):
                main([name, "--scale", "0.5"])

    def test_json_rejected_for_predefined(self):
        with pytest.raises(SystemExit, match="scenario runs"):
            main(["run", "fig9", "--json"])

    def test_scenario_flags_rejected_for_predefined(self):
        """Flags a predefined grid would ignore must fail loudly."""
        with pytest.raises(SystemExit, match="--dataset"):
            main(["run", "fig9", "--dataset", "imdb"])
        with pytest.raises(SystemExit, match="--rps"):
            main(["fig13", "--rps", "2.0"])

    def test_unknown_method_is_clean_cli_error(self, capsys):
        assert main(["run", "--methods", "hacck", "--n-requests", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown method")


class TestJsonOutPaths:
    def test_json_with_out_lists_written_files(self, tmp_path, capsys):
        assert main(["run", *RUN_FLAGS, "--json",
                     "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        paths = json.loads(captured.out)
        assert len(paths) == 1
        assert paths[0].endswith(".json")
        assert json.loads(open(paths[0]).read())["schema_version"] == 5
