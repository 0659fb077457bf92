"""A/B of the benchmark's `setup_s` between two checkouts.

Runs perfbench's own `SETUP_CHILD` (import `cqgkac.cli`, parse one
workload's configs) in fresh interpreters, alternating between the `src/`
of CHECKOUT_A and that of CHECKOUT_B.  It prints each side's median and
quartiles, in how many pairs each side was faster, and B's median change
against A's.  The child, the spec file and the workload's spec names come
from this checkout's `perfbench/`, so both sides do the same work.  Each
side first runs one untimed interpreter, as perfbench does.  The children
get this process's environment with perfbench's BLAS variables pinned to
one thread; the caller's own environment is left as it was.  Under
PYTHONDONTWRITEBYTECODE=1 every interpreter compiles the package.
The last line is one JSON object with the samples of both sides.

    python tools/setup_ab.py CHECKOUT_A CHECKOUT_B --workload kac-large --pairs 30
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402


def setup_seconds(src, workload, env):
    """One fresh interpreter's import-and-parse time against `src`."""
    argv = [sys.executable, "-c", run.SETUP_CHILD, str(src), str(PERFBENCH / "specs.json"),
            *workload.specs]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True,
                          env=env)
    return float(done.stdout.strip().splitlines()[-1])


def compare(description, measure, argv=None):
    """Parse CHECKOUT_A CHECKOUT_B --workload --pairs, run `measure(src,
    workload, env)` once untimed per side, then in alternating pairs (A
    first in even pairs), and print both sides' samples as described in
    the module docstring."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=30)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    # the BLAS pinning of `run.pin_blas`, passed to each child only
    env = {**os.environ, **{var: "1" for var in run.BLAS_VARS}}
    workload = run.WORKLOADS[args.workload]
    sides = {"A": args.checkout_a.resolve() / "src", "B": args.checkout_b.resolve() / "src"}
    for src in sides.values():
        if not (src / "cqgkac" / "__init__.py").is_file():
            parser.error(f"no cqgkac sources under {src}")
        measure(src, workload, env)
    times = {side: [] for side in sides}
    for i in range(args.pairs):
        for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
            times[side].append(measure(sides[side], workload, env))

    summaries = {side: run.summary(times[side], "s") for side in sides}
    for side, s in summaries.items():
        print(f"{side} {sides[side].parent}: median {s['median']:.4f} s "
              f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
    b_faster = sum(b < a for a, b in zip(times["A"], times["B"]))
    a_faster = sum(a < b for a, b in zip(times["A"], times["B"]))
    change = summaries["B"]["median"] / summaries["A"]["median"] - 1
    print(f"B faster in {b_faster} of {args.pairs} pairs, A in {a_faster}; "
          f"B's median {change:+.1%} against A's")
    print(json.dumps({"workload": workload.name, "pairs": args.pairs, "b_faster": b_faster,
                      "a_faster": a_faster, "summary": summaries, "samples": times}))
    return 0


def main(argv=None):
    return compare(__doc__.split("\n\n")[0], setup_seconds, argv)


if __name__ == "__main__":
    sys.exit(main())
