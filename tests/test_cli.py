"""Tests for the ``python -m repro.experiments`` command-line interface."""

import pytest

from repro.experiments.__main__ import main


class TestCLI:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["warp-drive"])

    def test_runs_one_experiment(self, tmp_path, capsys):
        code = main(["fig1", "--scale", "0.03", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "PASS" in out or "FAIL" in out
        assert (tmp_path / "fig1_convergence.svg").exists()

    def test_scale_argument_parsed(self, tmp_path, capsys):
        code = main(["fig3", "--scale", "0.02", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig3_scalability.csv").exists()

    def test_help_lists_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in ("table1", "table2", "fig5", "s2", "all"):
            assert name in out


class TestPlacerCLI:
    """The `python -m repro` placer front-end."""

    def test_generate_place_analyze_pipeline(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        gen_dir = str(tmp_path / "gen")
        code = cli_main(["generate", "newblue1_s", "--scale", "0.04",
                         "--out", gen_dir])
        assert code == 0
        aux = f"{gen_dir}/newblue1_s.aux"

        out_dir = str(tmp_path / "placed")
        svg = str(tmp_path / "plot.svg")
        code = cli_main(["place", aux, "--out", out_dir, "--gamma", "0.8",
                         "--svg", svg, "--legalizer", "tetris"])
        assert code == 0
        text = capsys.readouterr().out
        assert "legal: True" in text
        assert (tmp_path / "plot.svg").exists()

        code = cli_main(["analyze", f"{out_dir}/newblue1_s_placed.aux",
                         "--gamma", "0.8"])
        assert code == 0
        assert "Placement report" in capsys.readouterr().out

    def test_place_skip_detailed(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        gen_dir = str(tmp_path / "gen")
        cli_main(["generate", "adaptec1_s", "--scale", "0.03",
                  "--out", gen_dir])
        code = cli_main(["place", f"{gen_dir}/adaptec1_s.aux",
                         "--out", str(tmp_path / "p"), "--skip-detailed"])
        assert code == 0
        assert "legal: True" in capsys.readouterr().out

    def test_place_effort_preset(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        gen_dir = str(tmp_path / "gen")
        cli_main(["generate", "adaptec1_s", "--scale", "0.03",
                  "--out", gen_dir])
        code = cli_main(["place", f"{gen_dir}/adaptec1_s.aux",
                         "--effort", "1", "--out", str(tmp_path / "p")])
        assert code == 0
        assert "legal: True" in capsys.readouterr().out

    def test_archived_fingerprints_match_a_serve_job(self, tmp_path,
                                                      capsys):
        """One design and one config give the CLI's archived run and a
        serve job the same fingerprints."""
        from repro.cli import main as cli_main
        from repro.runs import RunRegistry
        from repro.serve.jobs import JobSpec
        from repro.serve.worker import run_job

        gen_dir = str(tmp_path / "gen")
        cli_main(["generate", "adaptec1_s", "--scale", "0.03",
                  "--out", gen_dir])
        runs = str(tmp_path / "runs")
        code = cli_main(["place", f"{gen_dir}/adaptec1_s.aux",
                         "--out", str(tmp_path / "p"), "--skip-detailed",
                         "--run-dir", runs])
        assert code == 0
        registry = RunRegistry(runs)
        [run_id] = registry.run_ids()
        archived = registry.manifest(run_id)["meta"]

        spec = JobSpec.from_payload(
            {"name": "fp", "detailed": False,
             "workload": {"kind": "aux", "path": "adaptec1_s.aux"}},
            "j-fp")
        body = run_job({"spec": dict(spec.__dict__), "tier": {},
                        "aux_root": gen_dir}, lambda event: None)
        meta = body["metrics"]["meta"]
        for key in ("netlist_fingerprint", "config_fingerprint"):
            assert len(archived[key]) == 16
            assert meta[key] == archived[key], key

    def test_race_subcommand_dispatches(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["race", "--cells", "60", "--no-promote",
                         "--set", "max_iterations=20",
                         "--set", "gap_tolerance=0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "base" in out and "rounds=" in out

    def test_unknown_placer_rejected(self, tmp_path):
        from repro.cli import main as cli_main

        gen_dir = str(tmp_path / "gen")
        cli_main(["generate", "adaptec1_s", "--scale", "0.03",
                  "--out", gen_dir])
        import pytest as _pytest
        with _pytest.raises(KeyError):
            cli_main(["place", f"{gen_dir}/adaptec1_s.aux", "--placer",
                      "magic", "--out", str(tmp_path / "p")])
