"""Tracing overhead: traced minus untraced wall time of one pass.

    python3 perfbench/overhead.py --workload kac-large --pairs 3

Alternates untraced and traced passes of the workload in one process, so
that both sides of each pair see the same machine load, and prints each
pair's difference and their median.  The end-to-end metrics never come from
a traced pass; this only says how far the per-layer times are inflated.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import layers
import run
from spans import Tracer


def pass_seconds(runner, traced):
    """Summed cli.run time of one pass, as wall_s counts it."""
    if traced:
        with Tracer(*layers.targets()) as tracer:
            records = runner.one_pass(tracer)
    else:
        records = runner.one_pass()
    return sum(r["seconds"] for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run.pin_blas()
    sys.path.insert(0, str(run.SRC))

    runner = run.Runner(run.WORKLOADS[args.workload], args.seed)
    diffs = []
    for i in range(args.pairs):
        # alternate which side goes first
        order = (False, True) if i % 2 == 0 else (True, False)
        seconds = {traced: pass_seconds(runner, traced) for traced in order}
        diffs.append(seconds[True] - seconds[False])
        print(f"pair {i}: untraced {seconds[False]:.4f} s, traced {seconds[True]:.4f} s, "
              f"overhead {diffs[-1]:+.4f} s ({diffs[-1] / seconds[False]:+.2%})")
    print(f"{args.workload}: median tracing overhead {statistics.median(diffs):+.4f} s "
          f"over {len(diffs)} pairs; {runner.failed} of {runner.attempted} inputs failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
