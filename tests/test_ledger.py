"""The answer ledger `tools/answers.tsv`, recomputed on the small specs.

A change that moves an answer re-records the ledger with
`python tools/sweep.py --record` and names the changed specs and sections.
"""

import importlib.util
from pathlib import Path

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"
_spec = importlib.util.spec_from_file_location("sweep", SWEEP)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def test_small_specs_answer_as_recorded():
    ledger = sweep.read_ledger()
    assert len(ledger) == sum(1 for _ in sweep.specs())
    rows = {sweep.config_key(spec): sweep.answers(*sweep.runs(spec))
            for spec in sweep.specs(3)}
    assert len(rows) == 79
    recorded = {config: ledger[config] for config in rows if config in ledger}
    diff = sweep.differences(rows, recorded)
    assert not diff, "\n".join(f"{config}: {', '.join(cols)}" for config, cols in diff.items())
