import json
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import cqgkac as k
import cqgkac.cli as cli
import cqgkac.presentations as presentations
from cqgkac.algebra import AlgElement
from cqgkac.presentations import canonicalize_relations

from conftest import (
    KAC_LARGE,
    certificate_json,
    gen,
    hand_made_f,
    plain_pair_presentation,
    specs_up_to,
    truncated_presentation,
    undetermined_presentation,
)


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ONE_BLOCK = {"kind": "one-block", "blocks": [{"q": "1/2", "m": 1}], "epsilon": 1}
MATCH_KEYS = {"matched", "mode", "target", "unmatched_derived", "unmatched_target"}


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
    # through JSON text, every spec of N <= 4 comes back as itself
    specs = specs_up_to(4)
    assert len(specs) == 187
    for spec in specs:
        assert cli.parse_config(json.loads(json.dumps(cli.config_json(spec)))) == spec


def test_config_errors_point_at_fields():
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config({"blocks": []})
    assert str(err.value) == "config field 'kind': missing"
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config({"kind": "one-block", "blocks": [{"m": 1}]})
    assert err.value.field == "blocks[0].q"
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config({"kind": "one-block", "blocks": [{"q": "3/2", "m": 1}]})
    assert err.value.field == "blocks"


@pytest.mark.parametrize("doc, field, message", [
    ([ONE_BLOCK], "<root>", "expected a JSON object"),
    ({**ONE_BLOCK, "blocks": {"q": "1/2", "m": 1}}, "blocks", "expected a list"),
    ({**ONE_BLOCK, "blocks": ["1/2"]}, "blocks[0]", "expected an object with q and m"),
])
def test_config_refuses_a_document_of_the_wrong_shape(doc, field, message):
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(doc)
    assert err.value.field == field
    assert str(err.value) == f"config field {field!r}: {message}"


def test_config_names_a_zero_denominator():
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config({"kind": "unitary", "blocks": [{"q": " 1/0 "}]})
    assert err.value.field == "blocks[0].q"
    assert str(err.value) == "config field 'blocks[0].q': ' 1/0 ' has a zero denominator"


@pytest.mark.parametrize("q", ["1e-5000", "1" * 4301, "1e-1000000000"])
def test_config_refuses_a_q_with_too_many_digits(q, tmp_path, capsys):
    # refused before 10**exponent is formed, so even 1e-1000000000 returns at once
    doc = {"kind": "unitary", "blocks": [{"q": q}, {"q": "1"}]}
    start = time.perf_counter()
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(doc)
    assert time.perf_counter() - start < 1
    assert err.value.field == "blocks[0].q"
    assert str(err.value).endswith("needs more than 4300 digits")
    assert cli.main(["kac", "--config", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith("config field 'blocks[0].q'")
    small = cli.parse_config({"kind": "unitary", "blocks": [{"q": "1e-400"}]})
    assert small.blocks[0].q == F(1, 10**400)


def test_config_refuses_a_spec_past_the_size_limit(tmp_path, capsys):
    doc = {"kind": "unitary", "blocks": [{"q": "1/2", "m": 1000000}]}
    start = time.perf_counter()
    assert cli.main(["build", "--config", _write(tmp_path, doc)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.strip() == (
        "config field 'blocks': spec size N = 1000000 exceeds the limit 64"
    )


@pytest.mark.parametrize("doc, field", [
    ({**ONE_BLOCK, "blocks": [{"q": "1/2", "m": True}]}, "blocks[0].m"),
    ({**ONE_BLOCK, "blocks": [{"q": True, "m": 1}]}, "blocks[0].q"),
    ({**ONE_BLOCK, "epsilon": True}, "epsilon"),
    ({"kind": "case-I", "blocks": [{"q": "1/2", "m": 1}], "trailing": True}, "trailing"),
    ({"kind": "case-I", "blocks": [{"q": "1/2", "m": 1}], "trailng": 1}, "trailng"),
    ({"kind": "unitary", "blocks": [{"q": "1", "m": 2, "mult": 3}]}, "blocks[0].mult"),
])
def test_config_rejects_booleans_and_unknown_fields(doc, field):
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(doc)
    assert err.value.field == field


CASE_I = {"kind": "case-I", "blocks": [{"q": "1/2", "m": 1}]}


@pytest.mark.parametrize("doc, field", [
    ({**CASE_I, "kind": "foo"}, "kind"),
    ({**CASE_I, "trailing": -1}, "trailing"),
    ({"kind": "unitary", "blocks": [{"q": "1", "m": 2}], "trailing": 1}, "trailing"),
    ({**CASE_I, "epsilon": -1}, "epsilon"),
    ({**CASE_I, "trailing": 1, "epsilon": -1}, "epsilon"),
    ({**CASE_I, "epsilon": 1}, "epsilon"),
    ({"kind": "unitary", "blocks": [{"q": "1", "m": 2}], "epsilon": -1}, "epsilon"),
    ({"kind": "case-II", "blocks": [{"q": "1/2", "m": 1}], "epsilon": 1}, "epsilon"),
    ({**CASE_I, "kind": 3}, "kind"),
])
def test_config_errors_name_kind_trailing_epsilon(doc, field):
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(doc)
    assert err.value.field == field


def test_epsilon_on_case_one_is_a_config_error(tmp_path, capsys):
    # a sign on case-I used to build F Fbar = -I (or a traceback with a
    # trailing block) and still report a plain case-I match
    for doc in ({**CASE_I, "epsilon": -1}, {**CASE_I, "trailing": 1, "epsilon": -1}):
        assert cli.main(["match", "--config", _write(tmp_path, doc)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config field 'epsilon':")


@pytest.mark.parametrize("argv", [
    ["report", "--frobnicate"],
    ["report", "--dim", "x"],
    ["report", "--lp-degree", "1"],
    ["transmogrify"],
    ["report", "--membership-bound", "4"],
    ["report", "--dim", "2"],
    ["report", "--seed", "3"],
])
def test_usage_errors_exit_one(tmp_path, capsys, argv):
    path = _write(tmp_path, ONE_BLOCK)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--config", path])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["report", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "usage:" in text
    for removed in ("--lp-degree", "--membership-bound", "--dim", "--seed"):
        assert removed not in text


def test_match_verb_exit_zero(tmp_path):
    path = _write(tmp_path, ONE_BLOCK)
    out = tmp_path / "report.json"
    assert cli.main(["match", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "matched Pol(U_1^+)"
    assert report["match"]["matched"] is True
    assert report["kac"]["forced"] == ["u(2,1)"]
    certificate = report["kac"]["certificate"]
    assert certificate["combination"]
    assert list(certificate["coefficients"]) == ["tr[u(2,1) u(2,1)*]"]


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


def test_non_utf8_config_exit_one(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(json.dumps(ONE_BLOCK).encode("utf-16"))  # starts ff fe
    assert path.read_bytes()[:2] == b"\xff\xfe"
    assert cli.main(["build", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config is not valid JSON:")


def test_deeply_nested_config_exit_one(tmp_path, capsys):
    # deeper than the JSON decoder's recursion limit
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    assert cli.main(["report", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config is not valid JSON:")


@pytest.mark.parametrize("text, key", [
    ('{"kind":"unitary","blocks":[{"q":"1/2","m":1}],"blocks":[{"q":"1/3","m":2,"m":1}]}', "m"),
    ('{"kind":"unitary","blocks":[{"q":"1/2","m":1}],"blocks":[{"q":"1/3","m":1}]}', "blocks"),
    ('{"kind":"case-I","blocks":[],"trailing":1,"kind":"unitary"}', "kind"),
], ids=["nested", "blocks", "kind"])
def test_a_repeated_key_exits_one_and_names_it(tmp_path, capsys, text, key):
    # the last value would otherwise win and build a different spec
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert cli.main(["build", "--config", str(path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config field {key!r}: repeated key\n"
    assert not captured.out


def test_unwritable_out_exit_one(tmp_path, capsys):
    path = _write(tmp_path, ONE_BLOCK)
    out = tmp_path / "absent" / "report.json"
    assert cli.main(["build", "--config", path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write report:")
    assert not captured.out


@pytest.mark.parametrize("verb", ["kac", "match"])
def test_undetermined_exits_two_with_verdict(monkeypatch, verb):
    monkeypatch.setattr(cli, "build_presentation", lambda spec: undetermined_presentation())
    code, report = cli.run(cli.parse_config(ONE_BLOCK), verb)
    assert code == 2
    assert report["kac"]["undetermined"] == ["tr[u(1,1) u(1,1)*]", "tr[u(2,2) u(2,2)*]",
                                             "tr[u(3,3) u(3,3)*]"]
    assert report["kac"]["forced"] == []
    assert "match" not in report
    assert report["verdict"] == "forced 0 generators in 1 rounds; 3 undetermined"


def test_mismatch_exit_three(tmp_path, monkeypatch):
    # doctor the expected target so the honest derivation cannot match it
    real = cli.expected_kac_target

    def doctored(spec):
        wrong = k.BlockSpec("one-block", ((F(1, 2), 2),), epsilon=1)
        return real(wrong)

    monkeypatch.setattr(cli, "expected_kac_target", doctored)
    path = _write(tmp_path, ONE_BLOCK)
    assert cli.main(["match", "--config", path]) == 3


def test_a_target_shifted_one_block_off_is_a_structural_mismatch(tmp_path, monkeypatch):
    # the target's letters moved 2 rows and columns down: A[1,1] survives
    # unexpected, and the shifted A[2,2] lies past the 4 x 4 layout
    real = cli.expected_kac_target

    def doctored(spec):
        target = real(spec)
        shifted = (g._replace(row=g.row + 2, col=g.col + 2) for g in target.generators)
        return target._replace(generators=tuple(shifted))

    monkeypatch.setattr(cli, "expected_kac_target", doctored)
    path = _write(tmp_path, {"kind": "unitary", "blocks": [{"q": "1/2", "m": 2},
                                                           {"q": "1", "m": 2}]})
    out = tmp_path / "report.json"
    assert cli.main(["match", "--config", path, "--out", str(out)]) == cli.EXIT_MISMATCH
    report = json.loads(out.read_text())
    assert report["verdict"] == "mismatch vs Pol(U_2^+) * Pol(U_2^+) (survivor sets differ)"
    match = report["match"]
    assert not match["matched"] and match["mode"] == "structural"
    assert match["unmatched_derived"] == ["u(1,1)", "u(1,2)", "u(2,1)", "u(2,2)"]
    assert match["unmatched_target"] == ["u(5,5)", "u(5,6)", "u(6,5)", "u(6,6)"]


@pytest.mark.parametrize("change", ["dropped", "added"])
def test_match_names_the_relations_left_on_either_side(tmp_path, monkeypatch, change):
    # the doctored target keeps its generators, so the survivor sets agree
    # and the exact relation sets differ: a relation dropped from the
    # target's one factor is left over on the derived side, one added on
    # the target side; the factor, given as a relation list, is no longer
    # in builder form
    real = cli.expected_kac_target
    extra = canonicalize_relations((AlgElement.generator(gen(0, 0)) - AlgElement.one(),))[0]

    def doctored(spec):
        target = real(spec)
        ((o, part),) = target.factors
        relations = part.relations[:-1] if change == "dropped" else (*part.relations, extra)
        part = k.Presentation(part.generators, relations, part.u, part.q, part.f, part.label)
        return target._replace(factors=((o, part),))

    monkeypatch.setattr(cli, "expected_kac_target", doctored)
    path = _write(tmp_path, ONE_BLOCK)
    out = tmp_path / "report.json"
    assert cli.main(["match", "--config", path, "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["verdict"] == "mismatch vs Pol(U_1^+)"
    match = report["match"]
    assert not match["matched"] and match["mode"] == "exact-set"
    left = {"dropped": ["1 - u(1,1)* u(1,1)"], "added": []}[change]
    assert match["unmatched_derived"] == left
    assert match["unmatched_target"] == ([] if left else [repr(extra)])


@pytest.mark.parametrize("name", KAC_LARGE)
def test_a_match_run_writes_only_the_source_relations(monkeypatch, name):
    # the quotient and the target stay in builder form and match decides
    # blockwise, so the entries are written once, over the source's u, and
    # oriented by the builders' rule, never by comparison
    spec = KAC_LARGE[name]
    calls = []
    for fn in ("_defining_entries", "_canonical", "_oriented"):
        real = getattr(presentations, fn)
        monkeypatch.setattr(presentations, fn,
                            lambda *args, fn=fn, real=real: calls.append((fn, args)) or real(*args))
    code, report = cli.run(spec, "match")
    assert code == 0 and report["match"]["matched"]
    assert [fn for fn, _args in calls] == ["_defining_entries", "_canonical"]
    assert calls[0][1][0] == k.build_presentation(spec).u


def test_hopf_check_inconclusive_exit_two(tmp_path, monkeypatch):
    # drop the last relation of one-block q=1/2,
    # u(1,1) u(2,1)* + 1/4 u(2,1)* u(1,1): the rest no longer carries the
    # antipode laws or its own coproducts, so those items stay inconclusive
    real = cli.build_presentation
    monkeypatch.setattr(cli, "build_presentation", lambda spec: truncated_presentation(real(spec)))
    path = _write(tmp_path, ONE_BLOCK)
    out = tmp_path / "report.json"
    code = cli.main(["hopf-check", "--config", path, "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["verdict"] == "hopf axioms inconclusive"
    assert report["hopf"]["coassociativity"] is True


def test_hopf_check_hand_made_f_exits_two(tmp_path, monkeypatch):
    # the builder refuses this F; over a hand-made u coassociativity fails
    # and no relation is certified, so hopf-check exits 2
    monkeypatch.setattr(cli, "build_presentation",
                        lambda spec: plain_pair_presentation(hand_made_f()))
    path = _write(tmp_path, ONE_BLOCK)
    out = tmp_path / "report.json"
    assert cli.main(["hopf-check", "--config", path, "--out", str(out)]) == 2
    hopf = json.loads(out.read_text())["hopf"]
    assert hopf["coassociativity"] is False
    assert set(hopf["relations"].values()) == {"inconclusive"}


def test_central_morphism_is_decided_by_the_form_not_by_an_error(monkeypatch):
    # case II (1)x1 is over the standard symplectic form, so the check runs
    # there, and an error inside it propagates instead of reading as null
    spec = k.BlockSpec("case-II", ((F(1), 1),))
    assert cli.run(spec, "hopf-check")[1]["hopf"]["central_morphism"] is True

    def broken(p):
        raise ValueError("broken check")

    monkeypatch.setattr(cli, "central_morphism_check", broken)
    with pytest.raises(ValueError, match="^broken check$"):
        cli.run(spec, "hopf-check")
    # off the symplectic form the check is not run, and the report says null
    code, report = cli.run(cli.parse_config(ONE_BLOCK), "hopf-check")
    assert code == 0 and report["hopf"]["central_morphism"] is None


def test_hopf_check_case_one_passes(tmp_path):
    path = _write(tmp_path, {"kind": "case-I", "blocks": [{"q": "1/2", "m": 1}], "trailing": 1})
    out = tmp_path / "report.json"
    assert cli.main(["hopf-check", "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["hopf"]["coassociativity"] is True


@pytest.mark.parametrize("option, value", [
    ("--dim", "0"),
    ("--dim", "-3"),
    ("--dim", "600"),
    ("--seed", "-1"),
])
def test_invalid_option_values_exit_one(tmp_path, capsys, option, value):
    # --dim and --seed are gone: any value of them is a usage error
    path = _write(tmp_path, ONE_BLOCK)
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--config", path, option, value])
    assert exc.value.code == cli.EXIT_CONFIG
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("options", [
    {"seed": -1},
    {"dim": 0},
    {"dim": -2},
    {"seed": True},
    {"dim": True},
    {"seed": 1.0},
    {"dim": 600},
])
def test_run_rejects_invalid_options(options):
    # run takes no seed or dim: the numeric witness is an exact character
    (field,) = options
    with pytest.raises(TypeError, match=f"unexpected keyword argument {field!r}"):
        cli.run(cli.parse_config(ONE_BLOCK), "report", **options)


def test_run_rejects_unknown_verb():
    code, report = cli.run(cli.parse_config(ONE_BLOCK), "frobnicate")
    assert code == cli.EXIT_CONFIG
    assert report["error"].startswith("config field 'verb':")
    assert "sizes" not in report and "verdict" not in report


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


def test_numeric_reports_an_exhausted_rep_search(monkeypatch):
    # u(1,1) = 2 holds at no signed permutation matrix, so no character
    # verifies: the section says so, and the verb still exits 0
    build = cli.build_presentation

    def with_u11_two(spec):
        p = build(spec)
        extra = AlgElement.generator(gen(0, 0)) - AlgElement.scalar(2)
        return k.Presentation(p.generators, p.relations + (extra,), p.u, p.q, p.f, p.label)

    monkeypatch.setattr(cli, "build_presentation", with_u11_two)
    code, report = cli.run(cli.parse_config(ONE_BLOCK), "numeric")
    assert code == cli.EXIT_OK
    assert report["numeric"]["rep_search"] == {"found": False, "max_residual": None}
    assert report["verdict"].endswith("rep search exhausted")


def test_build_verb_lists_presentation(tmp_path):
    path = _write(tmp_path, ONE_BLOCK)
    out = tmp_path / "report.json"
    assert cli.main(["build", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["presentation"]["generators"] == ["u(1,1)", "u(2,1)"]
    assert report["sizes"] == {"generators": 2, "relations": 6}


def test_reports_are_deterministic_modulo_timings():
    spec = cli.parse_config(ONE_BLOCK)
    for verb in cli.VERBS:
        code1, rep1 = cli.run(spec, verb)
        code2, rep2 = cli.run(spec, verb)
        assert code1 == code2 == 0, verb
        rep1.pop("timings")
        rep2.pop("timings")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True), verb


def test_report_schema_fields():
    spec = cli.parse_config(
        {"kind": "case-II", "blocks": [{"q": "1/3", "m": 1}, {"q": "1/2", "m": 1}]}
    )
    code, report = cli.run(spec, "report")
    assert code == 0
    for key in ("input", "sizes", "kac", "match", "survivors", "hopf", "numeric", "timings",
                "verdict"):
        assert key in report
    assert set(report["kac"]) == {"forced", "rounds", "undetermined", "certificate"}
    assert set(report["kac"]["certificate"]) == {"combination", "coefficients"}
    survivors = report["survivors"]
    assert set(survivors) == {"characters", "witnesses", "unwitnessed", "candidates"}
    target = cli.expected_kac_target(spec)
    assert set(survivors["witnesses"]) == {g.label() for g in target.generators}
    assert survivors["unwitnessed"] == []
    assert set(report["match"]) == MATCH_KEYS
    assert set(report["numeric"]) == {"classical_identity", "rep_search"}
    assert set(report["numeric"]["rep_search"]) == {"found", "max_residual"}


def test_package_imports_without_numpy():
    src = Path(k.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import cqgkac, cqgkac.cli; "
        "assert 'numpy' not in sys.modules, 'numpy was imported'"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_cli_import_loads_no_dataclasses_inspect_or_argparse():
    # -S keeps a site .pth file from preloading any of them
    src = Path(k.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import cqgkac.cli as cli; "
        "cli.parse_config({'kind': 'unitary', 'blocks': [{'q': '1/2', 'm': 2}]}); "
        "loaded = {'dataclasses', 'inspect', 'argparse'} & set(sys.modules); "
        "assert not loaded, sorted(loaded)"
    )
    subprocess.run([sys.executable, "-S", "-c", code], check=True, timeout=60)


def test_the_report_certificate_verifies_and_proves_exactly_the_forced():
    # read back from the report's JSON and rebuilt from its p/q strings,
    # the one certificate verifies against freshly traced equations and
    # proves the tr[g g*] of exactly the forced generators
    specs = [*specs_up_to(3), *KAC_LARGE.values()]
    for spec in specs:
        kac = json.loads(json.dumps(cli.run(spec, "kac")[1]))["kac"]
        p = k.build_presentation(spec)
        eqs = k.derive_trace_equations(p)
        kac_report, _ = k.kac_fixpoint(p)
        assert kac["certificate"] == certificate_json(kac_report.certificate, eqs.equations)
        forced = {g for g in p.generators if g.label() in kac["forced"]}
        assert len(forced) == len(kac["forced"]), spec
        assert (kac["certificate"] is None) == (not forced), spec
        if not forced:
            continue
        symbol = {s.label(): s for e in eqs.equations for s in e.coeffs}
        assert len(symbol) == len({s for e in eqs.equations for s in e.coeffs})
        combination = kac["certificate"]["combination"]
        assert all(eqs.equations[c["equation"]].provenance == c["provenance"]
                   for c in combination), spec
        # each provenance names the diagonal identity entry its relation was kept from
        for c in combination:
            name, j, l = p.record[1][c["equation"]]
            assert j == l and c["provenance"] == f"{name}[{j + 1},{j + 1}]", spec
        cert = k.Certificate(
            tuple((c["equation"], k.rat(c["multiplier"])) for c in combination),
            {symbol[s]: k.rat(c) for s, c in kac["certificate"]["coefficients"].items()},
        )
        proven = k.verify_certificate(cert, eqs)
        assert proven == {k.generator_symbol(g) for g in forced}, spec


def test_the_kac_section_grows_as_n_squared():
    # one certificate of 4N multipliers and N^2/2 coefficients; one copy
    # of it per forced generator grew the section 10.6 times from 8 to 16
    sizes = {}
    for n in (8, 16):
        spec = k.BlockSpec("unitary", ((F(1, 2), n // 2), (F(1), n // 2)))
        kac = cli.run(spec, "kac")[1]["kac"]
        assert len(kac["forced"]) == n * n // 2
        sizes[n] = len(json.dumps(kac))
    assert sizes[16] <= 5 * sizes[8]


def test_the_match_section_does_not_grow_with_n():
    # a fixed key set; the letters the target sits on are the survivors,
    # listed nowhere in the section, so N = 8 and 16 give the same size
    sizes = {}
    for n in (8, 16):
        spec = k.BlockSpec("unitary", ((F(1, 2), n // 2), (F(1), n // 2)))
        code, report = cli.run(spec, "match")
        assert code == cli.EXIT_OK and report["match"]["matched"]
        assert set(report["match"]) == MATCH_KEYS
        sizes[n] = len(json.dumps(report["match"]))
    assert sizes[8] == sizes[16]


def test_summary_has_a_hopf_line(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, ONE_BLOCK)
    out = str(tmp_path / "report.json")
    line = "  hopf: coassociativity=True counit=True antipode 2/2 pass, relations 6/6 pass"
    for verb in ("hopf-check", "report"):
        assert cli.main([verb, "--config", path, "--out", out]) == 0
        assert line in capsys.readouterr().out.splitlines(), verb
    assert cli.main(["match", "--config", path, "--out", out]) == 0
    assert "hopf:" not in capsys.readouterr().out
    real = cli.build_presentation
    monkeypatch.setattr(cli, "build_presentation", lambda spec: truncated_presentation(real(spec)))
    assert cli.main(["hopf-check", "--config", path, "--out", out]) == 2
    line = "  hopf: coassociativity=True counit=True antipode 1/2 pass, relations 0/5 pass"
    assert line in capsys.readouterr().out.splitlines()


def test_summary_has_numeric_and_survivor_lines(tmp_path, capsys):
    path = _write(tmp_path, ONE_BLOCK)
    out = str(tmp_path / "report.json")
    numeric = "  numeric: identity residual 0.00e+00, character found"
    survivors = "  survivors: 1 characters, 0 unwitnessed, 1 candidates"
    assert cli.main(["numeric", "--config", path, "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert numeric in lines and not any(x.startswith("  survivors:") for x in lines)
    assert cli.main(["report", "--config", path, "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert numeric in lines and survivors in lines
    assert cli.main(["match", "--config", path, "--out", out]) == 0
    out_text = capsys.readouterr().out
    assert "numeric:" not in out_text and "survivors:" not in out_text
