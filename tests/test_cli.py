import json
from fractions import Fraction as F

import pytest

import cqgkac as k
import cqgkac.cli as cli


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ONE_BLOCK = {"kind": "one-block", "blocks": [{"q": "1/2", "m": 1}], "epsilon": 1}


def test_config_round_trip():
    spec = cli.parse_config(ONE_BLOCK)
    assert cli.parse_config(cli.config_json(spec)) == spec
    case1 = {
        "kind": "case-I",
        "blocks": [{"q": "1/3", "m": 1}, {"q": "1/2", "m": 2}],
        "trailing": 1,
    }
    spec = cli.parse_config(case1)
    assert cli.parse_config(cli.config_json(spec)) == spec


def test_config_errors_point_at_fields():
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config({"blocks": []})
    assert err.value.field == "kind"
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config({"kind": "one-block", "blocks": [{"m": 1}]})
    assert err.value.field == "blocks[0].q"
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config({"kind": "one-block", "blocks": [{"q": "3/2", "m": 1}]})
    assert err.value.field == "blocks"


def test_match_verb_exit_zero(tmp_path):
    path = _write(tmp_path, ONE_BLOCK)
    out = tmp_path / "report.json"
    assert cli.main(["match", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "matched Pol(U_1^+)"
    assert report["match"]["matched"] is True
    assert report["kac"]["forced"] == ["u(2,1)"]
    for cert in report["kac"]["certificates"]:
        assert cert["combination"]


def test_self_match_verdict(tmp_path):
    doc = {"kind": "unitary", "blocks": [{"q": "1", "m": 3}]}
    path = _write(tmp_path, doc)
    out = tmp_path / "report.json"
    assert cli.main(["match", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "matched self (no forced zeros)"


def test_bad_config_exit_one(tmp_path):
    path = _write(tmp_path, {"kind": "case-I", "blocks": [{"q": "2", "m": 1}]})
    assert cli.main(["match", "--config", path]) == 1
    assert cli.main(["match", "--config", str(tmp_path / "absent.json")]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert cli.main(["match", "--config", str(broken)]) == 1


def test_mismatch_exit_three(tmp_path, monkeypatch):
    # doctor the expected target so the honest derivation cannot match it
    real = cli.expected_kac_target

    def doctored(spec):
        wrong = k.BlockSpec("one-block", ((F(1, 2), 2),), epsilon=1)
        return real(wrong)

    monkeypatch.setattr(cli, "expected_kac_target", doctored)
    path = _write(tmp_path, ONE_BLOCK)
    assert cli.main(["match", "--config", path]) == 3


def test_hopf_check_inconclusive_exit_two(tmp_path):
    path = _write(tmp_path, ONE_BLOCK)
    out = tmp_path / "report.json"
    # bound 1 is below the relation degree, so nothing can be concluded
    code = cli.main([
        "hopf-check", "--config", path, "--membership-bound", "1", "--out", str(out)
    ])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["verdict"] == "hopf axioms inconclusive"
    assert report["hopf"]["coassociativity"] is True


def test_hopf_check_case_one_passes(tmp_path):
    path = _write(tmp_path, {"kind": "case-I", "blocks": [{"q": "1/2", "m": 1}], "trailing": 1})
    out = tmp_path / "report.json"
    assert cli.main(["hopf-check", "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["hopf"]["coassociativity"] is True


@pytest.mark.parametrize("option, value", [
    ("--membership-bound", "-1"),
    ("--dim", "0"),
    ("--dim", "-3"),
    ("--lp-degree", "-1"),
])
def test_invalid_option_values_exit_one(tmp_path, capsys, option, value):
    path = _write(tmp_path, ONE_BLOCK)
    assert cli.main(["report", "--config", path, option, value]) == 1
    field = option[2:].replace("-", "_")
    assert capsys.readouterr().err.startswith(f"config field {field!r}:")


@pytest.mark.parametrize("options", [
    {"membership_bound": -1},
    {"dim": 0},
    {"dim": -2},
    {"lp_degree": -1},
    {"dim": True},
])
def test_run_rejects_invalid_options(options):
    code, report = cli.run(cli.parse_config(ONE_BLOCK), "report", **options)
    assert code == cli.EXIT_CONFIG
    (field,) = options
    assert report["error"].startswith(f"config field {field!r}:")
    assert "hopf" not in report and "numeric" not in report


def test_hopf_check_passes_at_default_bound(tmp_path):
    path = _write(tmp_path, ONE_BLOCK)
    assert cli.main(["hopf-check", "--config", path, "--out", str(tmp_path / "r.json")]) == 0


def test_numeric_verb(tmp_path):
    path = _write(tmp_path, ONE_BLOCK)
    out = tmp_path / "report.json"
    assert cli.main(["numeric", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    numeric = report["numeric"]
    assert numeric["classical_identity"]["max_residual"] <= 1e-10
    assert numeric["rep_search"]["found"] is True
    assert numeric["rep_search"]["max_residual"] < 1e-8


def test_build_verb_lists_presentation(tmp_path):
    path = _write(tmp_path, ONE_BLOCK)
    out = tmp_path / "report.json"
    assert cli.main(["build", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["presentation"]["generators"] == ["u(1,1)", "u(2,1)"]
    assert report["sizes"] == {"generators": 2, "relations": 6}


def test_reports_are_deterministic_modulo_timings():
    spec = cli.parse_config(ONE_BLOCK)
    code1, rep1 = cli.run(spec, "match", seed=0, dim=1)
    code2, rep2 = cli.run(spec, "match", seed=0, dim=1)
    assert code1 == code2 == 0
    rep1.pop("timings")
    rep2.pop("timings")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_report_schema_fields():
    spec = cli.parse_config(
        {"kind": "case-II", "blocks": [{"q": "1/3", "m": 1}, {"q": "1/2", "m": 1}]}
    )
    code, report = cli.run(spec, "report")
    assert code == 0
    for key in ("input", "sizes", "kac", "match", "hopf", "numeric", "timings", "verdict"):
        assert key in report
    assert set(report["kac"]) == {"forced", "rounds", "undetermined", "certificates"}
    assert {"matched", "mode", "target", "renaming"} <= set(report["match"])
