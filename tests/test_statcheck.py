"""Rule self-tests and engine/baseline/CLI tests for repro.statcheck.

Every rule gets at least one positive fixture (the rule must fire) and
one negative fixture (the rule must stay quiet); the engine tests cover
classification, pragmas and enable/disable; the baseline tests cover
fingerprint stability and the never-baselinable rules; the CLI tests
pin the exit-code contract the CI gate relies on.
"""

from __future__ import annotations

import json

import pytest

from repro.statcheck import check_source, run_paths
from repro.statcheck.baseline import (
    Baseline,
    BaselineVersionError,
    apply_baseline,
    fingerprint_findings,
)
from repro.statcheck.cli import main as statcheck_main
from repro.statcheck.engine import all_rules, classify, select_rules

HOT = "src/repro/core/somemod.py"
COLD = "src/repro/analysis/somemod.py"
CLI = "src/repro/cli.py"
API = "src/repro/netlist/somemod.py"


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# R1 float-eq
# ----------------------------------------------------------------------
class TestFloatEquality:
    def test_fires_on_float_literal(self):
        findings = check_source("flag = value == 0.5\n", filename=COLD)
        assert rules_of(findings) == ["R1"]
        assert findings[0].line == 1

    def test_fires_on_coordinate_vocabulary(self):
        src = "same = placement.x[i] == other.x[i]\n"
        findings = check_source(src, filename=COLD, enable=["R1"])
        assert len(findings) == 1

    def test_quiet_on_int_and_string_compares(self):
        src = "a = dx == 1\nb = mode == 'b2b'\nc = val is None\n"
        assert check_source(src, filename=COLD, enable=["R1"]) == []

    def test_quiet_on_non_coordinate_names(self):
        assert check_source("ok = count == total\n",
                            filename=COLD, enable=["R1"]) == []


# ----------------------------------------------------------------------
# R2 hot-loop
# ----------------------------------------------------------------------
class TestHotLoop:
    def test_fires_on_for_loop_in_hot_module(self):
        src = "for c in range(netlist.num_cells):\n    pass\n"
        findings = check_source(src, filename=HOT, enable=["R2"])
        assert len(findings) == 1
        assert "num_cells" in findings[0].message

    def test_fires_on_comprehension_over_nets(self):
        src = "spans = [len(n) for n in nets]\n"
        assert len(check_source(src, filename=HOT, enable=["R2"])) == 1

    def test_quiet_outside_hot_modules(self):
        src = "for c in range(netlist.num_cells):\n    pass\n"
        assert check_source(src, filename=COLD, enable=["R2"]) == []

    def test_quiet_on_unrelated_iterables(self):
        src = "for axis in ('x', 'y'):\n    pass\n"
        assert check_source(src, filename=HOT, enable=["R2"]) == []


# ----------------------------------------------------------------------
# R3 implicit-dtype
# ----------------------------------------------------------------------
class TestImplicitDtype:
    def test_fires_without_dtype_in_hot_module(self):
        findings = check_source("buf = np.zeros(n)\n",
                                filename=HOT, enable=["R3"])
        assert len(findings) == 1
        assert "np.zeros" in findings[0].message

    def test_quiet_with_dtype_keyword(self):
        src = "buf = np.zeros(n, dtype=np.float64)\n"
        assert check_source(src, filename=HOT, enable=["R3"]) == []

    def test_quiet_with_positional_dtype(self):
        src = "buf = np.full((2, 2), 0.0, np.float64)\n"
        assert check_source(src, filename=HOT, enable=["R3"]) == []

    def test_quiet_outside_hot_modules(self):
        assert check_source("buf = np.zeros(n)\n",
                            filename=COLD, enable=["R3"]) == []


# ----------------------------------------------------------------------
# R4 raw-mutation
# ----------------------------------------------------------------------
class TestRawMutation:
    def test_fires_on_inplace_store_to_parameter(self):
        src = (
            "def shift(placement, dx):\n"
            "    placement.x[:] = placement.x + dx\n"
            "    return placement\n"
        )
        findings = check_source(src, filename=COLD, enable=["R4"])
        assert len(findings) == 1

    def test_fires_on_augmented_assignment(self):
        src = (
            "def bump(netlist):\n"
            "    netlist.net_weights += 1.0\n"
        )
        assert len(check_source(src, filename=COLD, enable=["R4"])) == 1

    def test_quiet_on_fresh_copy(self):
        src = (
            "def shift(placement, dx):\n"
            "    out = placement.copy()\n"
            "    out.x[:] = out.x + dx\n"
            "    return out\n"
        )
        assert check_source(src, filename=COLD, enable=["R4"]) == []

    def test_quiet_on_factory_result_and_alias(self):
        src = (
            "def build(netlist):\n"
            "    p = make_placement(netlist)\n"
            "    q = p\n"
            "    q.y[0] = 1.0\n"
            "    return q\n"
        )
        assert check_source(src, filename=COLD, enable=["R4"]) == []

    def test_quiet_inside_netlist_package(self):
        src = (
            "def shift(placement, dx):\n"
            "    placement.x[:] = placement.x + dx\n"
        )
        assert check_source(src, filename="src/repro/netlist/ops.py",
                            enable=["R4"]) == []

    def test_quiet_on_scalar_attribute_rebinding(self):
        src = (
            "def relabel(cluster):\n"
            "    cluster.x = 4.0\n"
        )
        assert check_source(src, filename=COLD, enable=["R4"]) == []


# ----------------------------------------------------------------------
# R5 no-print
# ----------------------------------------------------------------------
class TestNoPrint:
    def test_fires_in_library_code(self):
        findings = check_source("print('hi')\n", filename=COLD, enable=["R5"])
        assert len(findings) == 1
        assert "logging" in findings[0].message

    def test_quiet_in_cli_module(self):
        assert check_source("print('hi')\n", filename=CLI,
                            enable=["R5"]) == []

    def test_quiet_in_experiments_package(self):
        assert check_source("print('hi')\n",
                            filename="src/repro/experiments/table1.py",
                            enable=["R5"]) == []

    def test_quiet_on_logging(self):
        assert check_source("logger.info('hi')\n", filename=COLD,
                            enable=["R5"]) == []


# ----------------------------------------------------------------------
# R6 public-api
# ----------------------------------------------------------------------
class TestPublicApi:
    def test_fires_on_missing_all(self):
        findings = check_source("def _private() -> None:\n    pass\n",
                                filename=API, enable=["R6"])
        assert len(findings) == 1
        assert "__all__" in findings[0].message
        assert findings[0].line == 1

    def test_fires_on_untyped_public_function(self):
        src = "__all__ = ['f']\n\ndef f(x):\n    return x\n"
        findings = check_source(src, filename=API, enable=["R6"])
        assert len(findings) == 1
        assert "'f'" in findings[0].message

    def test_quiet_on_typed_module(self):
        src = (
            "__all__ = ['f']\n\n"
            "def f(x: float) -> float:\n    return x\n\n"
            "def _helper(y):\n    return y\n"
        )
        assert check_source(src, filename=API, enable=["R6"]) == []

    def test_quiet_outside_api_packages(self):
        assert check_source("def f(x):\n    return x\n",
                            filename=COLD, enable=["R6"]) == []


# ----------------------------------------------------------------------
# R7 broad-except
# ----------------------------------------------------------------------
class TestBroadExcept:
    TRY = "try:\n    run()\n"

    def test_fires_on_except_exception(self):
        src = self.TRY + "except Exception:\n    pass\n"
        findings = check_source(src, filename=COLD, enable=["R7"])
        assert rules_of(findings) == ["R7"]
        assert findings[0].line == 3

    def test_fires_on_bare_except(self):
        src = self.TRY + "except:\n    pass\n"
        findings = check_source(src, filename=COLD, enable=["R7"])
        assert len(findings) == 1
        assert "bare except" in findings[0].message

    def test_fires_on_base_exception(self):
        src = self.TRY + "except BaseException:\n    pass\n"
        assert len(check_source(src, filename=COLD, enable=["R7"])) == 1

    def test_fires_inside_tuple(self):
        src = self.TRY + "except (ValueError, Exception):\n    pass\n"
        assert len(check_source(src, filename=COLD, enable=["R7"])) == 1

    def test_quiet_on_narrow_handlers(self):
        src = (self.TRY
               + "except ValueError:\n    pass\n"
               + "except (KeyError, OSError) as exc:\n    raise\n")
        assert check_source(src, filename=COLD, enable=["R7"]) == []

    def test_resilience_package_is_exempt(self):
        src = self.TRY + "except Exception:\n    pass\n"
        exempt = "src/repro/resilience/supervisor.py"
        assert check_source(src, filename=exempt, enable=["R7"]) == []

    def test_pragma_suppresses(self):
        src = (self.TRY
               + "except Exception:  # statcheck: ignore[R7]\n    pass\n")
        assert check_source(src, filename=COLD, enable=["R7"]) == []


# ----------------------------------------------------------------------
# R8 timing discipline
# ----------------------------------------------------------------------
class TestTimingDiscipline:
    def test_fires_on_time_time(self):
        src = "import time\nstart = time.time()\n"
        findings = check_source(src, filename=COLD, enable=["R8"])
        assert rules_of(findings) == ["R8"]
        assert "perf_counter" in findings[0].message

    def test_fires_on_bare_time_import(self):
        src = "from time import time\nstart = time()\n"
        assert len(check_source(src, filename=COLD, enable=["R8"])) == 1

    def test_fires_on_aliased_time_import(self):
        src = "from time import time as now\nstart = now()\n"
        assert len(check_source(src, filename=COLD, enable=["R8"])) == 1

    def test_fires_in_hot_and_cli_modules_alike(self):
        # The wall-clock check has no module exemption.
        src = "import time\nstart = time.time()\n"
        assert len(check_source(src, filename=HOT, enable=["R8"])) == 1
        assert len(check_source(src, filename=CLI, enable=["R8"])) == 1

    def test_fires_on_print_timing_in_library_code(self):
        src = ("import time\n"
               "t0 = time.perf_counter()\n"
               "print(f'took {time.perf_counter() - t0:.1f}s')\n")
        findings = check_source(src, filename=COLD, enable=["R8"])
        assert len(findings) == 1
        assert "telemetry" in findings[0].message

    def test_print_timing_exempt_in_cli_modules(self):
        src = ("import time\n"
               "t0 = time.perf_counter()\n"
               "print(f'took {time.perf_counter() - t0:.1f}s')\n")
        assert check_source(src, filename=CLI, enable=["R8"]) == []

    def test_quiet_on_perf_counter_durations(self):
        src = ("import time\n"
               "t0 = time.perf_counter()\n"
               "elapsed = time.perf_counter() - t0\n")
        assert check_source(src, filename=COLD, enable=["R8"]) == []

    def test_quiet_on_datetime_timestamps(self):
        src = ("from datetime import datetime, timezone\n"
               "stamp = datetime.now(timezone.utc).isoformat()\n")
        assert check_source(src, filename=COLD, enable=["R8"]) == []

    def test_quiet_on_plain_print(self):
        src = "print('no timing here')\n"
        assert check_source(src, filename=COLD, enable=["R8"]) == []

    def test_pragma_suppresses(self):
        src = "import time\nstart = time.time()  # statcheck: ignore[R8]\n"
        assert check_source(src, filename=COLD, enable=["R8"]) == []


# ----------------------------------------------------------------------
# R9 scatter-add
# ----------------------------------------------------------------------
class TestScatterAdd:
    MODELS = "src/repro/models/somemod.py"
    LEGALIZE = "src/repro/legalize/somemod.py"

    def test_fires_on_add_at_in_models(self):
        src = "np.add.at(rhs, idx, vals)\n"
        findings = check_source(src, filename=self.MODELS, enable=["R9"])
        assert rules_of(findings) == ["R9"]
        assert "bincount" in findings[0].message

    def test_fires_in_every_kernel_package(self):
        src = "np.add.at(grid, bins, area)\n"
        for pkg in ("models", "solvers", "legalize", "projection"):
            filename = f"src/repro/{pkg}/somemod.py"
            assert len(check_source(src, filename=filename,
                                    enable=["R9"])) == 1

    def test_quiet_outside_kernel_packages(self):
        src = "np.add.at(rhs, idx, vals)\n"
        assert check_source(src, filename=COLD, enable=["R9"]) == []
        assert check_source(src, filename="src/repro/baselines/nl.py",
                            enable=["R9"]) == []

    def test_fires_on_per_net_loop_in_legalize(self):
        src = "for n in range(netlist.num_nets):\n    pass\n"
        findings = check_source(src, filename=self.LEGALIZE, enable=["R9"])
        assert len(findings) == 1
        assert "num_nets" in findings[0].message

    def test_fires_on_pin_comprehension_in_legalize(self):
        src = "spans = [p for p in pins]\n"
        assert len(check_source(src, filename=self.LEGALIZE,
                                enable=["R9"])) == 1

    def test_per_cell_loops_allowed_in_legalize(self):
        # The legalizer is per-cell sequential by design (frontier /
        # cluster state); only per-net iteration is flagged there.
        src = "for cell in order:\n    pass\n"
        assert check_source(src, filename=self.LEGALIZE, enable=["R9"]) == []

    def test_per_net_loops_in_models_left_to_r2(self):
        # The loop half of R9 is legalize-only so a hot-module net loop
        # yields exactly one finding (R2), not two.
        src = "for n in range(netlist.num_nets):\n    pass\n"
        findings = check_source(src, filename=self.MODELS,
                                enable=["R2", "R9"])
        assert rules_of(findings) == ["R2"]

    def test_quiet_on_bincount(self):
        src = ("grid = np.bincount(idx, weights=vals, minlength=n)\n")
        assert check_source(src, filename=self.MODELS, enable=["R9"]) == []

    def test_pragma_suppresses(self):
        src = "np.add.at(rhs, idx, vals)  # statcheck: ignore[R9] ref path\n"
        assert check_source(src, filename=self.MODELS, enable=["R9"]) == []


# ----------------------------------------------------------------------
# R10 rendering
# ----------------------------------------------------------------------
class TestRendering:
    REPORT = "src/repro/report/render.py"

    def test_fires_on_matplotlib_import_anywhere(self):
        for filename in (COLD, HOT, CLI):
            findings = check_source("import matplotlib.pyplot as plt\n",
                                    filename=filename, enable=["R10"])
            assert len(findings) == 1, filename
            assert "repro.viz" in findings[0].message

    def test_fires_on_from_import(self):
        src = "from PIL import Image\n"
        findings = check_source(src, filename=COLD, enable=["R10"])
        assert len(findings) == 1

    def test_quiet_on_relative_import_named_like_a_stack(self):
        # `from .plotly import x` is a local module, not the stack.
        src = "from .plotly import helper\n"
        assert check_source(src, filename=COLD, enable=["R10"]) == []

    def test_fires_on_chained_open_write_in_library_code(self):
        src = "open(path, 'w').write(render(doc))\n"
        findings = check_source(src, filename=COLD, enable=["R10"])
        assert len(findings) == 1
        assert "open(...)" in findings[0].message

    def test_open_write_exempt_in_cli_and_report_modules(self):
        src = "open(path, 'w').write(render(doc))\n"
        for filename in (CLI, self.REPORT):
            assert check_source(src, filename=filename,
                                enable=["R10"]) == [], filename

    def test_quiet_on_context_managed_write(self):
        src = ("with open(path, 'w') as handle:\n"
               "    handle.write(doc)\n")
        assert check_source(src, filename=COLD, enable=["R10"]) == []

    def test_pragma_suppresses(self):
        src = "import seaborn  # statcheck: ignore[R10] optional extra\n"
        assert check_source(src, filename=COLD, enable=["R10"]) == []


# ----------------------------------------------------------------------
# engine: classification, pragmas, rule selection
# ----------------------------------------------------------------------
class TestEngine:
    def test_classification(self):
        assert classify("repro.core.complx") == (True, False)
        assert classify("repro.experiments.table1") == (False, True)
        assert classify("repro.cli") == (False, True)
        assert classify("repro.analysis.report") == (False, False)

    def test_inline_pragma_all_rules(self):
        src = "flag = value == 0.5  # statcheck: ignore\n"
        assert check_source(src, filename=COLD) == []

    def test_inline_pragma_specific_rule(self):
        src = "flag = value == 0.5  # statcheck: ignore[R1]\n"
        assert check_source(src, filename=COLD) == []
        # The pragma names a different rule: the finding stays.
        src = "flag = value == 0.5  # statcheck: ignore[R2]\n"
        assert rules_of(check_source(src, filename=COLD)) == ["R1"]

    def test_registry_has_the_shipped_rules(self):
        ids = [r.id for r in all_rules()]
        assert ids == ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
                       "R10", "D1", "D2", "D3", "T1", "T2", "G1", "G2",
                       "G3"]

    def test_project_rules_are_marked(self):
        scopes = {r.id: r.scope for r in all_rules()}
        assert scopes["R1"] == "module"
        for rid in ("D1", "D2", "D3", "T1", "T2", "G1", "G2", "G3"):
            assert scopes[rid] == "project", rid

    def test_select_rules_enable_disable(self):
        assert [r.id for r in select_rules(enable=["R1", "R3"])] == ["R1", "R3"]
        assert "R2" not in {r.id for r in select_rules(disable=["R2"])}
        with pytest.raises(ValueError, match="unknown rule id"):
            select_rules(enable=["R99"])

    def test_disable_silences_rule(self):
        src = "print('hi')\nflag = value == 0.5\n"
        findings = check_source(src, filename=COLD, disable=["R5"])
        assert rules_of(findings) == ["R1"]

    def test_run_paths_reports_syntax_errors(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings, errors = run_paths([tmp_path])
        assert len(errors) == 1
        assert "bad.py" in errors[0]


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def test_fingerprints_are_stable_and_distinct(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("np.zeros(3)\nnp.zeros(3)\n")
        findings = check_source(f.read_text(),
                                filename="src/repro/core/mod.py",
                                enable=["R3"])
        findings = [fi.__class__(fi.rule, f.as_posix(), fi.line, fi.col,
                                 fi.message) for fi in findings]
        fps = [fp for _, fp in fingerprint_findings(findings)]
        assert len(fps) == 2
        # Same stripped line text -> distinguished by occurrence counter.
        assert fps[0] != fps[1]
        again = [fp for _, fp in fingerprint_findings(findings)]
        assert fps == again

    def test_baseline_suppresses_baselinable_findings(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("for c in range(netlist.num_cells):\n    pass\n")
        ctx_findings = check_source(f.read_text(),
                                    filename="src/repro/core/mod.py",
                                    enable=["R2"])
        findings = [fi.__class__(fi.rule, f.as_posix(), fi.line, fi.col,
                                 fi.message) for fi in ctx_findings]
        baseline = Baseline.from_findings(findings)
        active, suppressed = apply_baseline(findings, baseline, all_rules())
        assert active == []
        assert len(suppressed) == 1

    def test_r1_and_r5_are_never_baselined(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("flag = value == 0.5\nprint('hi')\n")
        raw = check_source(f.read_text(),
                           filename="src/repro/analysis/mod.py")
        findings = [fi.__class__(fi.rule, f.as_posix(), fi.line, fi.col,
                                 fi.message) for fi in raw]
        assert rules_of(findings) == ["R1", "R5"]
        baseline = Baseline.from_findings(findings)
        active, suppressed = apply_baseline(findings, baseline, all_rules())
        assert rules_of(active) == ["R1", "R5"]
        assert suppressed == []

    def test_baseline_dies_when_code_changes(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("buf = np.zeros(n)\n")
        raw = check_source(f.read_text(), filename="src/repro/core/mod.py",
                           enable=["R3"])
        findings = [fi.__class__(fi.rule, f.as_posix(), fi.line, fi.col,
                                 fi.message) for fi in raw]
        baseline = Baseline.from_findings(findings)
        # The flagged line changed: the stale fingerprint no longer
        # matches and the finding comes back.
        f.write_text("buf = np.zeros(m)\n")
        active, suppressed = apply_baseline(findings, baseline, all_rules())
        assert len(active) == 1
        assert suppressed == []

    def test_roundtrip_and_version_check(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([]).write(path)
        assert len(Baseline.load(path)) == 0
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)

    def test_v1_baseline_is_rejected_with_the_regeneration_command(
            self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "findings": []}))
        with pytest.raises(BaselineVersionError, match="--write-baseline"):
            Baseline.load(path)


# ----------------------------------------------------------------------
# CLI exit-code contract
# ----------------------------------------------------------------------
class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert statcheck_main(["clean.py"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dirty.py").write_text("print('hi')\n")
        assert statcheck_main(["dirty.py"]) == 1
        assert "[R5]" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "clean.py").write_text("x = 1\n")
        with pytest.raises(SystemExit) as exc:
            statcheck_main(["clean.py", "--enable", "R99"])
        assert exc.value.code == 2

    def test_missing_path_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            statcheck_main(["nope.py"])
        assert exc.value.code == 2

    def test_write_baseline_then_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "src" / "repro" / "core"
        src.mkdir(parents=True)
        (src / "mod.py").write_text(
            "for c in range(netlist.num_cells):\n    pass\n")
        assert statcheck_main(["src", "--write-baseline"]) == 0
        assert (tmp_path / "statcheck-baseline.json").exists()
        capsys.readouterr()
        # The default baseline is auto-loaded from the cwd.
        assert statcheck_main(["src"]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out
        assert statcheck_main(["src", "--no-baseline"]) == 1

    def test_json_format(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dirty.py").write_text("print('hi')\n")
        assert statcheck_main(["dirty.py", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["R5"] == 1
        assert doc["findings"][0]["rule"] == "R5"

    def test_list_rules(self, capsys):
        assert statcheck_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"):
            assert rid in out
        assert "[no baseline]" in out


# ----------------------------------------------------------------------
# the repo itself stays clean
# ----------------------------------------------------------------------
def test_repo_passes_statcheck(monkeypatch):
    """The committed tree must lint clean modulo the committed baseline."""
    import pathlib

    repo = pathlib.Path(__file__).resolve().parent.parent
    monkeypatch.chdir(repo)
    findings, errors = run_paths([repo / "src"])
    assert errors == []
    baseline = Baseline.load(repo / "statcheck-baseline.json")
    # Paths in the committed baseline are repo-relative; rebase ours.
    rebased = [
        f.__class__(f.rule, pathlib.Path(f.path).relative_to(repo).as_posix(),
                    f.line, f.col, f.message)
        for f in findings
    ]
    active, _ = apply_baseline(rebased, baseline, all_rules())
    assert active == [], "\n".join(f.render() for f in active)
