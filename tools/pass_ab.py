"""A/B of one perfbench pass, in process, between two checkouts.

Each fresh interpreter imports `cqgkac` from the `src/` of one checkout
and perfbench's `run` from this checkout's `perfbench/`, which is only
read.  It builds perfbench's own `Runner` for the workload (seed 1), runs
one untimed `one_pass` and then prints the best of 15 timed passes: a pass
is `Runner.one_pass`, so only the `cli.run` calls are timed, and every
output goes through the correctness gate; the child fails when one does
not pass it.  The interpreters alternate between CHECKOUT_A and
CHECKOUT_B as in `setup_ab.py`, with the same output: each side's median
and quartiles, in how many pairs each side was faster, B's median change
against A's, and one JSON line with the samples.

    python tools/pass_ab.py CHECKOUT_A CHECKOUT_B --workload kac-large --pairs 8
"""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import setup_ab  # noqa: E402

PASSES = 15

# Runs in a fresh interpreter: argv = [src dir, perfbench dir, workload, passes].
PASS_CHILD = """\
import sys
sys.path[:0] = sys.argv[1:3]
import run
runner = run.Runner(run.WORKLOADS[sys.argv[3]], seed=1)
runner.one_pass()
best = min(sum(r["seconds"] for r in runner.one_pass()) for _ in range(int(sys.argv[4])))
if runner.failed:
    sys.exit(f"{runner.failed} of {runner.attempted} inputs failed the gate")
print(best)
"""


def pass_seconds(src, workload, env):
    """One fresh interpreter's best pass over the workload against `src`."""
    argv = [sys.executable, "-c", PASS_CHILD, str(src), str(setup_ab.PERFBENCH),
            workload.name, str(PASSES)]
    # a gate failure's message reaches this process's stderr
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
                          env=env)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    return setup_ab.compare(__doc__.split("\n\n")[0], pass_seconds, argv)


if __name__ == "__main__":
    sys.exit(main())
