"""Self-tests of the benchmark harness on the smallest spec."""

import json
import shutil
import subprocess
import sys

import pytest

import run
from spans import BOOKKEEPING, Span, SpanTable

sys.path.insert(0, str(run.SRC))

import cqgkac.cli as cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALLEST = run.Workload("smallest", "report", ("one-block-1/2x1",), "harness self-test")


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_declared_workloads_match_the_harness():
    for w in BENCHMARK["workloads"]:
        assert run.WORKLOADS[w["name"]].why == w["why"]


def test_untraced_run_reports_every_end_to_end_metric():
    record = run.measure(SMALLEST, seed=0, seconds=0, trace=False)
    assert (record["attempted"], record["failed"], record["failed_ratio"]) == (1, 0, 0)
    assert _units(record["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert {"seed", "python", "numpy", "nproc", "blas_threads", "git_commit"} <= set(
        record["provenance"]
    )


def test_traced_run_reports_every_layer_metric_and_restores_the_package():
    originals = (cli.hopf_axiom_check, cli.run, cli.kac_fixpoint)
    record = run.measure(SMALLEST, seed=0, seconds=0, trace=True)
    assert (cli.hopf_axiom_check, cli.run, cli.kac_fixpoint) == originals
    assert record["failed"] == 0
    assert _units(record["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    values = {name: m["value"] for name, m in record["metrics"].items()}
    assert values["trace.rounds"] == 2
    assert values["hopf.items_checked"] > 0 and values["hopf.inconclusive"] == 0
    assert values["linalg.echelon_rank"] > 0 and values["numeric.found"] == 1
    assert values["quotient.match_bounded"] == 0
    assert 0 < values["hopf.self_s"] < values["hopf.hopf_s"] < values["tracing.wall_s"]


def test_doctored_target_counts_as_failure(monkeypatch):
    other = cli.parse_config(run.load_json("specs.json")["unitary-1/4-1/2-1"])
    real = cli.expected_kac_target
    monkeypatch.setattr(cli, "expected_kac_target", lambda spec: real(other))
    record = run.measure(SMALLEST, seed=0, seconds=0, trace=False)
    assert record["failed_ratio"] > 0
    assert record["passes"][0][0]["problems"]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span(0, "parent", None, 0, 0.0, 10.0),
        Span(1, "child", 0, 0, 1.0, 3.0),
        Span(2, "child", 0, 0, 4.0, 8.0),
        Span(3, BOOKKEEPING, 0, 0, 8.0, 9.0),
        Span(4, "grandchild", 2, 0, 5.0, 6.0),
    ]
    table = SpanTable(spans)
    assert table.self_seconds("parent") == pytest.approx(3.0)
    assert table.self_seconds("child") == pytest.approx(5.0)
    assert table.time("parent") == pytest.approx(9.0)
    assert table.count("child") == 2


def test_refuses_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kac-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
