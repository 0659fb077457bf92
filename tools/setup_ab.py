"""A/B of the benchmark's `setup_s` between two checkouts.

Runs perfbench's own `SETUP_CHILD` (import `cqgkac.cli`, parse one
workload's configs) in fresh interpreters, alternating between the `src/`
of CHECKOUT_A and that of CHECKOUT_B, and prints each side's median and
quartiles and in how many pairs B was faster.  The child, the spec file
and the workload's spec names come from this checkout's `perfbench/`, so
both sides do the same work.  Each side first runs one untimed
interpreter, as perfbench does; the environment is passed on as it is, so
under PYTHONDONTWRITEBYTECODE=1 every interpreter compiles the package.
The last line is one JSON object with the samples of both sides.

    python tools/setup_ab.py CHECKOUT_A CHECKOUT_B --workload kac-large --pairs 30
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402


def setup_seconds(src, workload):
    """One fresh interpreter's import-and-parse time against `src`."""
    argv = [sys.executable, "-c", run.SETUP_CHILD, str(src), str(PERFBENCH / "specs.json"),
            *workload.specs]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=30)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    run.pin_blas()
    workload = run.WORKLOADS[args.workload]
    sides = {"A": args.checkout_a.resolve() / "src", "B": args.checkout_b.resolve() / "src"}
    for src in sides.values():
        if not (src / "cqgkac" / "__init__.py").is_file():
            parser.error(f"no cqgkac sources under {src}")
        setup_seconds(src, workload)
    times = {side: [] for side in sides}
    for i in range(args.pairs):
        for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
            times[side].append(setup_seconds(sides[side], workload))

    summaries = {side: run.summary(times[side], "s") for side in sides}
    for side, s in summaries.items():
        print(f"{side} {sides[side].parent}: median {s['median']:.4f} s "
              f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
    faster = sum(b < a for a, b in zip(times["A"], times["B"]))
    print(f"B faster in {faster} of {args.pairs} pairs")
    print(json.dumps({"workload": workload.name, "pairs": args.pairs, "b_faster": faster,
                      "summary": summaries, "samples": times}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
