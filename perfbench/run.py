"""Benchmark of cqgkac through its public entry point `cqgkac.cli.run`.

    python3 perfbench/run.py --workload report-ladder --seed 1 --seconds 40 --trace 0

Each workload is a fixed list of block specs, read as JSON config documents
from specs.json and parsed by `cli.parse_config`, and one verb.  A pass runs
every input once, one after another in this single process (closed loop,
one client); the seed fixes the order.  Every output goes through the
correctness gate (gate.py) against expected.json.

--trace 0 runs whole passes while the next one is expected to end within
--seconds (at least one pass) and reports the end-to-end metrics:
  wall_s       median seconds of one pass, after import
  max_input_s  median over passes of the slowest single input
  setup_s      median over fresh interpreters of importing cqgkac and
               parsing the workload's configs
  peak_rss_mb  peak resident memory of this process, which ran the passes
--trace 1 makes one pass with spans recorded around the package's public
functions (layers.py) and reports the per-layer metrics derived from them.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give each metric with
its quartiles and sample count, failed_ratio and the run's provenance; the
full record (per-input times, spans) is written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate
import layers
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 9
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LADDER = (
    "one-block-1/2x1",
    "one-block-1/2x2-eps-1",
    "unitary-1/4x1-1x2",
    "unitary-1/4-1/2-1",
    "case-I-1/2+1",
    "case-II-1/3-1/2",
    "case-II-1/2-1",
)
LARGE = (
    "unitary-1/4x2-1/2x1-1x2",
    "one-block-1/2x4",
    "one-block-1/3x3-eps-1",
    "case-I-1/3x1-1/2x2+2",
    "case-II-1/4-1/2-1x2",
    "unitary-1/8-1/4-1/2-1",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    specs: tuple
    why: str
    options: dict = dataclasses.field(default_factory=dict)  # keyword arguments to cli.run
    start_seeds: tuple = ()  # rep_search seeds; each spec runs once per seed

    def inputs(self):
        """(spec name, cli.run keyword arguments) for one pass, in spec order."""
        if not self.start_seeds:
            return [(name, dict(self.options)) for name in self.specs]
        return [
            (name, dict(self.options, seed=seed))
            for name in self.specs
            for seed in self.start_seeds
        ]


# BENCHMARK.json declares report-ladder and kac-large with these reasons.
# numeric-dim2 runs the same way but is left out of it: on the machine the
# benchmark was built on its times spread by up to 0.26 of their median over
# ten runs, more than the largest bound BENCHMARK.json may set (README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report-ladder",
            "report",
            LADDER,
            "The whole pipeline as users run it (report, bound 4, dim 1) on the 7 "
            "baseline specs; Hopf, mostly the ideal echelon, is ~97 %. Measured: "
            "quotient.match_bounded is 0 on every workload.",
        ),
        Workload(
            "kac-large",
            "match",
            LARGE,
            "match on 6 specs of 16-34 generators: Kac needs exactly 2 rounds on "
            "every spec and solve_lp_max is ~97 % of Kac; Hopf and numeric bypassed; "
            "match_bounded 0.",
        ),
        Workload(
            "numeric-dim2",
            "numeric",
            LADDER[1:],
            "numeric at dim 2 on the 6 baseline specs with N >= 3, start seeds 0 "
            "and 1: rep_search is ~99 %, Kac and Hopf bypassed, unlike "
            "report-ladder's dim 1.",
            options={"dim": 2},
            # Fixed start seeds: the search's cost varies several-fold with
            # its start point, and ten runs with different benchmark seeds
            # must agree within the bounds; both seeds converge on all six.
            start_seeds=(0, 1),
        ),
    )
}


def pin_blas():
    """One BLAS thread, set before numpy loads and inherited by the setup
    interpreters, so numpy does not compete with the single-threaded loop."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def load_json(name):
    with open(HERE / name, encoding="utf-8") as fh:
        return json.load(fh)


def summary(values, unit):
    """Median and quartiles as statistics.quantiles gives them, and the count."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


# Runs in a fresh interpreter: argv = [src dir, specs.json, spec names...].
SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
import cqgkac.cli as cli
with open(sys.argv[2], encoding="utf-8") as fh:
    docs = json.load(fh)
specs = [cli.parse_config(docs[name]) for name in sys.argv[3:]]
print(time.perf_counter() - t0)
"""


def setup_seconds(workload, samples=SETUP_SAMPLES):
    """Seconds to import cqgkac and parse the configs, once per fresh
    interpreter; a first, untimed interpreter writes the bytecode caches."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE / "specs.json"), *workload.specs]
    times = []
    for i in range(samples + 1):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs inputs through cli.run and checks each outcome."""

    def __init__(self, workload, seed):
        import cqgkac.cli as cli
        from cqgkac.numeric import SEARCH_TOL

        self.cli = cli
        self.search_tol = SEARCH_TOL
        self.workload = workload
        self.rng = random.Random(seed)
        docs = load_json("specs.json")
        self.specs = {name: cli.parse_config(docs[name]) for name in workload.specs}
        self.expected = load_json("expected.json")["specs"]
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None):
        """One pass in seed order; a record per input.  The times are those
        of the cli.run calls alone: gc and the gate run outside them."""
        inputs = self.workload.inputs()
        self.rng.shuffle(inputs)
        records = []
        for request, (name, kwargs) in enumerate(inputs):
            gc.collect()
            span = None
            if tracer is not None:
                tracer.request = request
                span = tracer.begin("cli.run")
            start = time.perf_counter()
            try:
                code, report = self.cli.run(self.specs[name], self.workload.verb, **kwargs)
            except Exception:  # a raising input counts as failed; keep going
                code, report = None, None
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
            if span is not None:
                tracer.end(span)
            if report is None:
                found = [f"raised: {error.strip().splitlines()[-1]}"]
                print(error, file=sys.stderr)
            else:
                found = self.check(name, code, report)
            self.attempted += 1
            self.failed += bool(found)
            records.append({"spec": name, "options": kwargs, "seconds": seconds,
                            "problems": found})
        return records

    def check(self, name, code, report):
        expected = self.expected.get(name)
        if expected is None:
            return [f"no recorded expectation for {name}"]
        return gate.problems(expected, self.workload.verb, code, report, self.search_tol)


def measure(workload, seed, seconds, trace):
    """Run one benchmark measurement; returns the full record."""
    runner = Runner(workload, seed)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        with Tracer(*layers.targets()) as tracer:
            passes = [runner.one_pass(tracer)]
        wall = sum(r["seconds"] for r in passes[0])
        metrics = layers.layer_metrics(tracer.spans, wall)
        record["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
        record["summary"] = {}
    else:
        setup = setup_seconds(workload)
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(runner.one_pass())
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
        walls = [sum(r["seconds"] for r in p) for p in passes]
        slowest = [max(r["seconds"] for r in p) for p in passes]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["summary"] = {
            "wall_s": summary(walls, "s"),
            "max_input_s": summary(slowest, "s"),
            "setup_s": summary(setup, "s"),
            "peak_rss_mb": summary([rss_mb], "MB"),
        }
        metrics = {k: {"value": v["median"], "unit": v["unit"]}
                   for k, v in record["summary"].items()}
    record.update(
        passes=passes,
        attempted=runner.attempted,
        failed=runner.failed,
        failed_ratio=runner.failed / runner.attempted,
        metrics=metrics,
        provenance=provenance(workload, seed),
    )
    return record


def provenance(workload, seed):
    import numpy

    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest():
    """SHA-256 over the package sources, which identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cqgkac").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    pin_blas()
    if not (SRC / "cqgkac" / "__init__.py").is_file():
        print(f"perfbench: no cqgkac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, s in record["summary"].items():
        print(f"{name}: median {s['median']:.6g} {s['unit']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    for name, m in record["metrics"].items():
        if name not in record["summary"]:
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio: {record['failed_ratio']:.6g} "
          f"({record['failed']} of {record['attempted']} inputs)")
    for p in record["passes"]:
        for r in p:
            for problem in r["problems"]:
                print(f"FAILED {r['spec']} {r['options']}: {problem}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
