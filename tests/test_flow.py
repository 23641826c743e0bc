"""The flow after global placement, as ``place`` and the service run it.

Both entry points finish a global placement through
``repro.flow.legalize_and_detail`` and assemble their reports through
``repro.flow.run_report``; these tests pin what that buys: the same
placement from either door, the ``--check-invariants`` certification
in every flow, and legalizer downgrades in the run's recovery events.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import faults
from repro.cli import main as cli_main
from repro.legalize import abacus as abacus_module
from repro.netlist.bookshelf import read_aux
from repro.serve.jobs import JobSpec
from repro.serve.worker import run_job

DESIGN = "adaptec1_s"


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("gen"))
    assert cli_main(["generate", DESIGN, "--scale", "0.03",
                     "--out", out]) == 0
    return out


def _place(gen_dir, out, *extra):
    code = cli_main(["place", f"{gen_dir}/{DESIGN}.aux", "--out", str(out),
                     "--legalizer", "abacus", *extra])
    assert code == 0
    _, placement = read_aux(f"{out}/{DESIGN}_placed.aux")
    return placement


def _serve(gen_dir, detailed):
    spec = JobSpec.from_payload(
        {"name": "flow", "legalizer": "abacus", "detailed": detailed,
         "include_placement": True,
         "workload": {"kind": "aux", "path": f"{DESIGN}.aux"}},
        "j-flow")
    return run_job({"spec": dict(spec.__dict__), "tier": {},
                    "aux_root": gen_dir}, lambda event: None)


@pytest.mark.parametrize("detailed", [False, True])
def test_place_and_a_serve_job_write_the_same_placement(
        gen_dir, tmp_path, detailed):
    extra = () if detailed else ("--skip-detailed",)
    placed = _place(gen_dir, tmp_path / "p", *extra)
    body = _serve(gen_dir, detailed)
    assert body["detailed"] is detailed
    assert np.array_equal(placed.x, body["placement"]["x"])
    assert np.array_equal(placed.y, body["placement"]["y"])


@pytest.mark.parametrize("extra", [(), ("--skip-detailed",)],
                         ids=["detailed", "skip-detailed"])
def test_check_invariants_certifies_the_legalized_result(
        gen_dir, tmp_path, monkeypatch, extra):
    certified = []
    real = abacus_module.assert_legal

    def spy(*args, **kwargs):
        certified.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(abacus_module, "assert_legal", spy)
    _place(gen_dir, tmp_path / "p", "--check-invariants", *extra)
    assert certified


def _degrades(events):
    return [event for event in events
            if event["fault"] == "legalizer" and event["action"] == "degrade"]


@pytest.mark.chaos
@pytest.mark.parametrize("extra", [(), ("--skip-detailed",)],
                         ids=["detailed", "skip-detailed"])
def test_place_reports_a_legalizer_downgrade(gen_dir, tmp_path, capsys,
                                             extra):
    metrics = tmp_path / "run.metrics.json"
    with faults.injected("legalize.abacus@1"):
        _place(gen_dir, tmp_path / "p", "--metrics-json", str(metrics),
               *extra)
    assert "legalizer degraded: abacus -> tetris" in capsys.readouterr().out
    meta = json.loads(metrics.read_text())["meta"]
    assert len(_degrades(json.loads(meta["recovery_events"]))) == 1

    report = tmp_path / "run.md"
    with faults.injected("legalize.abacus@1"):
        _place(gen_dir, tmp_path / "p", "--report", str(report), *extra)
    assert "legalizer -> degrade" in report.read_text()


@pytest.mark.chaos
def test_serve_job_reports_a_legalizer_downgrade(gen_dir):
    with faults.injected("legalize.abacus@1"):
        body = _serve(gen_dir, detailed=False)
    assert body["legalizer"] == "tetris"
    assert len(_degrades(body["recovery_events"])) == 1
    meta = body["metrics"]["meta"]
    assert json.loads(meta["recovery_events"]) == body["recovery_events"]
