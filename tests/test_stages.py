"""Smoke test of `tools/stages.py`: this checkout, two passes, with one
stage the package does not define."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("stages", ROOT / "tools" / "stages.py")
stages = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stages)


def test_each_stage_prints_its_best_time_and_a_missing_one_a_dash(capsys, monkeypatch):
    monkeypatch.setattr(stages, "STAGES", (*stages.STAGES, ("cli", "no_such_stage")))
    assert stages.main([str(ROOT), "--workload", "kac-large", "--passes", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert (result["workload"], result["passes"]) == ("kac-large", 2)
    (got,) = result["results"]
    assert got["stages"]["cli.no_such_stage"] is None
    assert 0 < got["stages"]["presentations._defining_entries"] < got["pass"]
    assert len(got["stages"]) == len(stages.STAGES)
    assert out[-3].split() == ["cli.no_such_stage", "—"]
    assert out[-2].split()[0] == "pass" and float(out[-2].split()[1]) > 0
