"""Write expected.json: the semantic outcome of every spec in specs.json.

    python3 perfbench/record.py

Runs each spec once through `cli.run`, with the `report` verb for the
specs of workloads that use it and `match` for the rest, and keeps what the
correctness gate compares: the verdict, the forced-generator set, the Kac
round count, the target label and, from `report`, the coassociativity and
counit flags.  Run it only at a commit whose outputs are checked by hand.
"""

from __future__ import annotations

import json
import sys

import run


NOTE = (
    "hopf.coassociativity is false on case-I specs with a trailing block: "
    "hopf_axiom_check compares (D x id)D and (id x D)D exactly in the free "
    "algebra, but for the trailing block they agree only modulo its reality "
    "relations u_jk = u_jk*.  The gate accepts false only where it is recorded."
)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import cqgkac.cli as cli

    reported = {s for w in run.WORKLOADS.values() if w.verb == "report" for s in w.specs}
    specs = {}
    for name, doc in run.load_json("specs.json").items():
        verb = "report" if name in reported else "match"
        code, report = cli.run(cli.parse_config(doc), verb)
        if code != 0 or report["kac"]["undetermined"] or report["match"]["mode"] != "exact-set":
            print(f"{name}: exit {code}, {report.get('verdict')!r}; not recorded", file=sys.stderr)
            return 1
        specs[name] = {
            "verdict": report["verdict"],
            "forced": sorted(report["kac"]["forced"]),
            "rounds": report["kac"]["rounds"],
            "target": report["match"]["target"],
        }
        if verb == "report":
            hopf = report["hopf"]
            specs[name]["hopf"] = {k: hopf[k] for k in ("coassociativity", "counit")}
        print(f"{name}: {report['verdict']}, {report['kac']['rounds']} rounds")
    doc = {
        "note": NOTE,
        "recorded_from": {"git_commit": run.git_commit(), "source_sha256": run.source_digest()},
        "specs": specs,
    }
    (run.HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
