"""Correctness gate for one benchmark input.

Compares the semantic fields of a `cli.run` report with the values recorded
in expected.json, never the whole report, so fields a later version adds
(stats, provenance labels) do not count as failures.  An input fails when
any check below fails; the benchmark counts such inputs in `failed`.
"""

from __future__ import annotations


def problems(expected: dict, verb: str, code, report, search_tol: float) -> list:
    """What is wrong with one run's outcome; empty when it is correct.

    `expected` is the spec's entry in expected.json: verdict, forced set,
    rounds, target and, for `report` specs, the recorded Hopf flags.  Kac
    and match fields are checked for the `match` and `report` verbs, the
    Hopf section for `report`, the numeric witness for `numeric` and
    `report`.
    """
    out = []
    if code != 0:
        out.append(f"exit code {code}, expected 0")
    if verb in ("match", "report"):
        out += _kac_and_match(expected, report)
    if verb == "report":
        out += _hopf(report.get("hopf") or {}, expected.get("hopf", {}))
    if verb == "numeric" and not str(report.get("verdict", "")).endswith("rep search found"):
        out.append(f"verdict {report.get('verdict')!r} does not report a found witness")
    if verb in ("numeric", "report"):
        out += _numeric(report.get("numeric") or {}, search_tol)
    return out


def _kac_and_match(expected, report):
    out = []
    if report.get("verdict") != expected["verdict"]:
        out.append(f"verdict {report.get('verdict')!r}, expected {expected['verdict']!r}")
    kac = report.get("kac") or {}
    if sorted(kac.get("forced", ())) != expected["forced"]:
        out.append("forced generator set differs from the recorded one")
    if kac.get("rounds") != expected["rounds"]:
        out.append(f"{kac.get('rounds')} Kac rounds, expected {expected['rounds']}")
    if kac.get("undetermined") != []:
        out.append(f"undetermined symbols {kac.get('undetermined')!r}")
    match = report.get("match") or {}
    if match.get("matched") is not True:
        out.append("match.matched is not true")
    if match.get("mode") != "exact-set":
        out.append(f"match mode {match.get('mode')!r}, expected 'exact-set'")
    if match.get("target") != expected["target"]:
        out.append(f"match target {match.get('target')!r}, expected {expected['target']!r}")
    return out


def _hopf(hopf, recorded):
    out = []
    # True always passes; False passes only where the recorded run said False
    # (a known limitation of the free-algebra check, see expected.json).
    for axiom in ("coassociativity", "counit"):
        value = hopf.get(axiom)
        if value is not True and value != recorded.get(axiom, True):
            out.append(f"hopf {axiom} is {value!r}")
    for section in ("antipode", "relations"):
        items = hopf.get(section)
        if not items:
            out.append(f"hopf {section} section missing")
            continue
        bad = sorted(k for k, v in items.items() if v != "pass")
        if bad:
            out.append(f"hopf {section} items not 'pass': {bad}")
    if hopf.get("central_morphism") not in (True, None):
        out.append(f"central_morphism is {hopf.get('central_morphism')!r}")
    return out


def _numeric(numeric, search_tol):
    search = numeric.get("rep_search") or {}
    if search.get("found") is not True:
        return ["rep_search found no witness"]
    residual = search.get("max_residual")
    if not isinstance(residual, float) or not residual < search_tol:
        return [f"rep_search max_residual {residual!r} not below {search_tol}"]
    return []
