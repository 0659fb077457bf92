"""Smoke test of `tools/setup_ab.py`: one pair of this checkout against
itself."""

import importlib.util
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("setup_ab", ROOT / "tools" / "setup_ab.py")
setup_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(setup_ab)


def test_one_pair_prints_both_sides_as_json(monkeypatch, capsys):
    # the BLAS variables are pinned in the children's environment only
    for var in setup_ab.run.BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    argv = [str(ROOT), str(ROOT), "--workload", "kac-large", "--pairs", "1"]
    assert setup_ab.main(argv) == 0
    assert not any(var in os.environ for var in setup_ab.run.BLAS_VARS)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["workload"], result["pairs"]) == ("kac-large", 1)
    assert result["b_faster"] in (0, 1)
    for side in ("A", "B"):
        assert len(result["samples"][side]) == 1 and result["samples"][side][0] > 0
        assert result["summary"][side]["n"] == 1
