"""Per-stage time of one perfbench pass, in process, for each checkout given.

For each CHECKOUT a fresh interpreter imports `cqgkac` from its `src/` and
perfbench's `run` from this checkout's `perfbench/`, which is only read,
and builds perfbench's own `Runner` for the workload (seed 1), as
`pass_ab.py` does.  It wraps every stage function below in the module that
calls it, runs one untimed `one_pass` and then N timed ones, and reports
per stage the best over the passes of the stage's total time in a pass.
A stage's time includes that of every stage it calls.  The last row is
the best pass (`cli.run` calls only, as perfbench times them).  The table
has one column of milliseconds per checkout; a stage that a checkout does
not define reads "—".  The child fails when an output fails the gate.
The last line is one JSON object with the seconds.

    python tools/stages.py CHECKOUT [CHECKOUT ...] --workload kac-large --passes 40
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import setup_ab  # noqa: E402

# (module that calls the stage, function name), in pipeline order
STAGES = (
    ("cli", "build_presentation"),
    ("presentations", "_defining_entries"),
    ("presentations", "_canonical"),
    ("presentations", "_oriented"),
    ("cli", "kac_fixpoint"),
    ("trace", "derive_trace_equations"),
    ("trace", "_closed_form_certificate"),
    ("trace", "verify_certificate"),
    ("trace", "quotient_by_zero"),
    ("trace", "witness_characters"),
    ("cli", "expected_kac_target"),
    ("cli", "match_presentations"),
)

# Runs in a fresh interpreter: argv = [src dir, perfbench dir, workload,
# passes, stages as JSON].
STAGE_CHILD = """\
import importlib, json, sys, time
sys.path[:0] = sys.argv[1:3]
import run
stages = [tuple(s) for s in json.loads(sys.argv[5])]
spent = dict.fromkeys(stages, 0.0)

def wrap(stage, fn):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - start
    return timed

present = []
for stage in stages:
    module = importlib.import_module("cqgkac." + stage[0])
    if callable(getattr(module, stage[1], None)):
        setattr(module, stage[1], wrap(stage, getattr(module, stage[1])))
        present.append(stage)
runner = run.Runner(run.WORKLOADS[sys.argv[3]], seed=1)
runner.one_pass()
best = dict.fromkeys(present, float("inf"))
best_pass = float("inf")
for _ in range(int(sys.argv[4])):
    spent.update(dict.fromkeys(stages, 0.0))
    best_pass = min(best_pass, sum(r["seconds"] for r in runner.one_pass()))
    for stage in present:
        best[stage] = min(best[stage], spent[stage])
if runner.failed:
    sys.exit(f"{runner.failed} of {runner.attempted} inputs failed the gate")
print(json.dumps({"stages": {".".join(s): best.get(s) for s in stages}, "pass": best_pass}))
"""


def stage_seconds(src, workload, passes, env):
    """{"stages": {name: best seconds or None}, "pass": best seconds} of one
    fresh interpreter against `src`."""
    argv = [sys.executable, "-c", STAGE_CHILD, str(src), str(setup_ab.PERFBENCH), workload,
            str(passes), json.dumps(STAGES)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
                          env=env)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="+")
    parser.add_argument("--workload", required=True, choices=sorted(setup_ab.run.WORKLOADS))
    parser.add_argument("--passes", type=int, default=40)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    env = {**os.environ, **{var: "1" for var in setup_ab.run.BLAS_VARS}}
    results = []
    for checkout in args.checkouts:
        src = checkout.resolve() / "src"
        if not (src / "cqgkac" / "__init__.py").is_file():
            parser.error(f"no cqgkac sources under {src}")
        results.append(stage_seconds(src, args.workload, args.passes, env))

    def cell(seconds):
        return "—" if seconds is None else f"{seconds * 1e3:.2f}"

    width = max(len(".".join(s)) for s in STAGES)
    print(f"{'stage (ms)':<{width}}  " + "  ".join(str(c) for c in args.checkouts))
    for stage in map(".".join, STAGES):
        print(f"{stage:<{width}}  " + "  ".join(cell(r["stages"][stage]) for r in results))
    print(f"{'pass':<{width}}  " + "  ".join(cell(r["pass"]) for r in results))
    print(json.dumps({"workload": args.workload, "passes": args.passes,
                      "checkouts": [str(c) for c in args.checkouts], "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
