"""Smoke test of `tools/pass_ab.py`: one pair of this checkout against
itself."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pass_ab", ROOT / "tools" / "pass_ab.py")
pass_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pass_ab)


def test_one_pair_prints_both_sides_as_json(capsys):
    argv = [str(ROOT), str(ROOT), "--workload", "kac-large", "--pairs", "1"]
    assert pass_ab.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert (result["workload"], result["pairs"]) == ("kac-large", 1)
    assert result["a_faster"] + result["b_faster"] <= 1
    assert out[-2].startswith("B faster in ")
    for side in ("A", "B"):
        assert len(result["samples"][side]) == 1 and result["samples"][side][0] > 0
        assert result["summary"][side]["n"] == 1
