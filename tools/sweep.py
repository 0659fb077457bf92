"""Answer digests of `cqgkac.cli.run` over every small spec.

Enumerates every valid BlockSpec with N <= 6 and block parameters in
{1/4, 1/3, 1/2, 2/3, 1}, runs `match`, `build`, `hopf-check` and
`numeric` on each,
and prints the spec count per kind and one SHA-256 per verb over its
reports, each serialized with `json.dumps(report, sort_keys=True)` after
its `timings` are removed and ended by a newline.
Two checkouts that print the same `sha256` (match) digest gave the same
answers, byte for byte, on every spec; the same `kac sha256` digest (the
match reports with `kac.certificates` removed) means the same answers with
possibly different Kac certificates; the same `build sha256` digest
means they built the same generators and relations; the same
`hopf sha256` digest means the same Hopf verdicts; the same
`numeric sha256` digest means the same float residuals, bit for bit.

    python tools/sweep.py

Run it from a checkout's root; it imports the package from that
checkout's `src/`.
"""

import hashlib
import itertools
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cqgkac.cli import run  # noqa: E402
from cqgkac.presentations import BlockSpec, SpecError  # noqa: E402

N_MAX = 6
QS = tuple(Fraction(q) for q in ("1/4", "1/3", "1/2", "2/3", "1"))


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


def specs():
    """Valid BlockSpecs with N <= N_MAX, in a fixed order."""
    for kind, blocks, trailing, epsilon in _candidates():
        try:
            spec = BlockSpec(kind, blocks, trailing=trailing, epsilon=epsilon)
        except SpecError:
            continue
        if spec.size <= N_MAX:
            yield spec


def _line(report) -> bytes:
    return json.dumps(report, sort_keys=True).encode() + b"\n"


def main():
    digests = {verb: hashlib.sha256() for verb in ("match", "build", "hopf-check", "numeric")}
    kac = hashlib.sha256()
    kinds = Counter()
    start = time.perf_counter()
    for spec in specs():
        for verb, digest in digests.items():
            _, report = run(spec, verb)
            report.pop("timings", None)
            digest.update(_line(report))
            if verb == "match":
                certified = report["kac"]
                report["kac"] = {k: v for k, v in certified.items() if k != "certificates"}
                kac.update(_line(report))
        kinds[spec.kind] += 1
    print(f"specs: {sum(kinds.values())} ({', '.join(f'{n} {k}' for k, n in kinds.items())})")
    print(f"sha256: {digests['match'].hexdigest()}")
    print(f"kac sha256: {kac.hexdigest()}")
    print(f"build sha256: {digests['build'].hexdigest()}")
    print(f"hopf sha256: {digests['hopf-check'].hexdigest()}")
    print(f"numeric sha256: {digests['numeric'].hexdigest()}")
    print(f"seconds: {time.perf_counter() - start:.1f}")


if __name__ == "__main__":
    main()
