"""Answer ledger and digests of `cqgkac.cli.run` over every small spec.

Enumerates every valid BlockSpec with N <= 6 and block parameters in
{1/4, 1/3, 1/2, 2/3, 1}, builds each once, runs `match`, `build`,
`hopf-check`, `numeric` and `report` on that one build, and prints the
spec count per kind and one SHA-256 per verb over its reports, each
serialized with `json.dumps(report, sort_keys=True)` after its `timings`
are removed and ended by a newline.
Two checkouts that print the same `sha256` (match) digest gave the same
answers, byte for byte, on every spec; the same `kac sha256` digest (the
match reports with `kac.certificate` removed) means the same answers with
possibly a different Kac certificate; the same `build sha256` digest
means they built the same generators and relations; the same
`hopf sha256` digest means the same Hopf verdicts; the same
`numeric sha256` digest means the same float residuals, bit for bit; the
same `report sha256` digest means the same whole reports, the exact
characters of their `survivors` section among them.
The `terms sha256` digest covers every relation of `build_presentation`
with its terms in stored order, one JSON line per spec, so it also sees
a change of term order that the sorted `build` report hides.

The ledger (`tools/answers.tsv`) says where two checkouts differ.  It has
one line per spec: the spec's `config_json`, then a short hash of each
report section.  A section is `sizes`, a field of the `kac`, `match`,
`hopf` or `numeric` section (`hopf.relations`), or a verb's `exit`,
`verdict` or other field (`build.presentation`).  The columns `verb:<verb>`
hash each whole report and `terms` the stored term order.  Of the
`report` run only `verb:report` and `report.survivors` are kept: its
other sections repeat those of the verbs above.

    python tools/sweep.py             # print the digests
    python tools/sweep.py --record    # and write the ledger
    python tools/sweep.py --check     # and list every spec and section
                                      # that differs from the ledger

`--check` exits 1 when a spec or section differs.  Run it from a
checkout's root; it imports the package from that checkout's `src/`.
"""

import argparse
import hashlib
import itertools
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cqgkac import cli  # noqa: E402
from cqgkac.algebra import rat_str, word_label  # noqa: E402
from cqgkac.presentations import BlockSpec, SpecError, build_presentation  # noqa: E402

N_MAX = 6
QS = tuple(Fraction(q) for q in ("1/4", "1/3", "1/2", "2/3", "1"))
VERBS = ("match", "build", "hopf-check", "numeric", "report")
SPLIT = ("kac", "match", "hopf", "numeric")
LEDGER = Path(__file__).resolve().parent / "answers.tsv"
ABSENT = "-"


def _compositions(total, parts):
    """Tuples of `parts` positive integers summing to `total`."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def _candidates():
    """Every block list over QS with total multiplicity <= N_MAX, with
    every kind, trailing size and sign; BlockSpec rejects the invalid."""
    block_lists = [()]
    for total in range(1, N_MAX + 1):
        for count in range(1, total + 1):
            for qs in itertools.combinations(QS, count):
                for ms in _compositions(total, count):
                    block_lists.append(tuple(zip(qs, ms)))
    for kind in ("unitary", "one-block", "case-I", "case-II"):
        for blocks in block_lists:
            for trailing in range(N_MAX + 1):
                for epsilon in (1, -1):
                    yield kind, blocks, trailing, epsilon


def specs(n_max=N_MAX):
    """Valid BlockSpecs with N <= n_max, in a fixed order."""
    for kind, blocks, trailing, epsilon in _candidates():
        try:
            spec = BlockSpec(kind, blocks, trailing=trailing, epsilon=epsilon)
        except SpecError:
            continue
        if spec.size <= n_max:
            yield spec


def _line(report) -> bytes:
    return json.dumps(report, sort_keys=True).encode() + b"\n"


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:10]


def config_key(spec) -> str:
    return json.dumps(cli.config_json(spec), sort_keys=True, separators=(",", ":"))


def runs(spec):
    """The spec's relation terms line and (verb, exit code, report) per
    verb, every verb run over one build; `timings` are removed."""
    presentation = build_presentation(spec)
    terms = _line([[[rat_str(c), word_label(w)] for w, c in r.terms()]
                   for r in presentation.relations])
    built, cli.build_presentation = cli.build_presentation, lambda _spec: presentation
    try:
        out = [(verb, *cli.run(spec, verb)) for verb in VERBS]
    finally:
        cli.build_presentation = built
    for _, _, report in out:
        report.pop("timings", None)
    return terms, out


def answers(terms, out) -> dict:
    """Ledger column -> short hash for one spec's runs."""
    row = {"terms": _short(terms)}
    for verb, code, report in out:
        row[f"verb:{verb}"] = _short(_line(report))
        if verb == "report":
            row["report.survivors"] = _short(_line(report["survivors"]))
            continue
        row[f"{verb}.exit"] = _short(_line(code))
        for key, value in report.items():
            if key in ("input", "verb"):
                continue
            if key in SPLIT:
                row.update((f"{key}.{field}", _short(_line(v))) for field, v in value.items())
            elif key == "sizes":
                row[key] = _short(_line(value))
            else:
                row[f"{verb}.{key}"] = _short(_line(value))
    return row


def read_ledger() -> dict:
    """config_json line -> {column: hash} of the ledger."""
    lines = LEDGER.read_text(encoding="utf-8").splitlines()
    columns = lines[0].split("\t")[1:]
    ledger = {}
    for line in lines[1:]:
        config, *cells = line.split("\t")
        ledger[config] = {c: h for c, h in zip(columns, cells) if h != ABSENT}
    return ledger


def write_ledger(rows: dict) -> None:
    columns = sorted({c for row in rows.values() for c in row})
    lines = ["\t".join(["config_json", *columns])]
    lines += ["\t".join([config, *(row.get(c, ABSENT) for c in columns)])
              for config, row in rows.items()]
    LEDGER.write_text("\n".join(lines) + "\n", encoding="utf-8")


def differences(rows: dict, ledger: dict) -> dict:
    """config_json -> sorted differing columns, over the configs of `rows`;
    a spec missing from either side lists the column `config_json`."""
    out = {}
    for config in (*rows, *(c for c in ledger if c not in rows)):
        got, want = rows.get(config), ledger.get(config)
        if got is None or want is None:
            out[config] = ["config_json"]
            continue
        differ = sorted(c for c in got.keys() | want.keys() if got.get(c) != want.get(c))
        if differ:
            out[config] = differ
    return out


def print_differences(diff: dict) -> None:
    sections = Counter()
    for config, columns in diff.items():
        named = [c for c in columns if not c.startswith("verb:") and c != "terms"]
        sections.update(named)
        print(f"  {config}\n    sections: {', '.join(named) or '-'}"
              f"\n    reports: {', '.join(c for c in columns if c not in named) or '-'}")
    print(f"differing specs: {len(diff)}")
    print("differing sections: " + ", ".join(f"{c} ({n})" for c, n in sorted(sections.items())))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true", help="write the ledger")
    mode.add_argument("--check", action="store_true", help="compare with the ledger")
    args = parser.parse_args(argv)

    digests = {verb: hashlib.sha256() for verb in VERBS}
    kac = hashlib.sha256()
    terms_digest = hashlib.sha256()
    kinds = Counter()
    rows = {}
    start = time.perf_counter()
    for spec in specs():
        terms, out = runs(spec)
        rows[config_key(spec)] = answers(terms, out)
        for verb, _, report in out:
            digests[verb].update(_line(report))
            if verb == "match":
                certified = report["kac"]
                report["kac"] = {k: v for k, v in certified.items() if k != "certificate"}
                kac.update(_line(report))
        terms_digest.update(terms)
        kinds[spec.kind] += 1
    print(f"specs: {sum(kinds.values())} ({', '.join(f'{n} {k}' for k, n in kinds.items())})")
    print(f"sha256: {digests['match'].hexdigest()}")
    print(f"kac sha256: {kac.hexdigest()}")
    print(f"build sha256: {digests['build'].hexdigest()}")
    print(f"hopf sha256: {digests['hopf-check'].hexdigest()}")
    print(f"numeric sha256: {digests['numeric'].hexdigest()}")
    print(f"report sha256: {digests['report'].hexdigest()}")
    print(f"terms sha256: {terms_digest.hexdigest()}")
    print(f"seconds: {time.perf_counter() - start:.1f}")
    if args.record:
        write_ledger(rows)
        print(f"recorded {len(rows)} specs in {LEDGER}")
    elif args.check:
        diff = differences(rows, read_ledger())
        print_differences(diff)
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
