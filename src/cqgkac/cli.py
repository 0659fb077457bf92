"""Command-line front end.

Verbs: build, kac, match, hopf-check, numeric, report.  The block spec
comes from a JSON config; rationals are serialized as "p/q" strings so the
round trip stays exact.  Exit codes: 0 success/matched (and --help), 1
usage or configuration error, 2 derivation left undetermined or
inconclusive items, 3 target mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .algebra import rat, rat_str
from .hopf import central_morphism_check, hopf_axiom_check
from .numeric import classical_point, eval_residual, rep_search
from .presentations import BlockSpec, build_presentation
from .quotient import expected_kac_target, match_presentations
from .trace import kac_fixpoint

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNDETERMINED = 2
EXIT_MISMATCH = 3


class ConfigError(Exception):
    def __init__(self, field, message):
        super().__init__(f"config field {field!r}: {message}")
        self.field = field


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_unknown(doc: dict, known, prefix: str) -> None:
    for key in doc:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", "unknown field")


def parse_config(data) -> BlockSpec:
    """Validate a config document and build the block spec.

    Unknown fields and booleans in integer fields are errors, so a typo
    never silently builds a different spec.
    """
    if not isinstance(data, dict):
        raise ConfigError("<root>", "expected a JSON object")
    _reject_unknown(data, ("kind", "blocks", "trailing", "epsilon"), "")
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise ConfigError("kind", "missing or not a string")
    raw_blocks = data.get("blocks", [])
    if not isinstance(raw_blocks, list):
        raise ConfigError("blocks", "expected a list")
    blocks = []
    for i, item in enumerate(raw_blocks):
        if not isinstance(item, dict):
            raise ConfigError(f"blocks[{i}]", "expected an object with q and m")
        _reject_unknown(item, ("q", "m"), f"blocks[{i}].")
        try:
            q = rat(item["q"])
        except KeyError:
            raise ConfigError(f"blocks[{i}].q", "missing") from None
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ConfigError(f"blocks[{i}].q", str(exc)) from None
        m = item.get("m", 1)
        if not _is_int(m):
            raise ConfigError(f"blocks[{i}].m", "expected an integer")
        blocks.append((q, m))
    trailing = data.get("trailing", 0)
    if not _is_int(trailing):
        raise ConfigError("trailing", "expected an integer")
    epsilon = data.get("epsilon", 1)
    if not _is_int(epsilon) or epsilon not in (-1, 1):
        raise ConfigError("epsilon", "expected -1 or 1")
    try:
        return BlockSpec(kind, tuple(blocks), trailing=trailing, epsilon=epsilon)
    except ValueError as exc:
        raise ConfigError("blocks", str(exc)) from None


def config_json(spec: BlockSpec) -> dict:
    """Round-trippable JSON form of a block spec."""
    doc = {
        "kind": spec.kind,
        "blocks": [{"q": rat_str(b.q), "m": b.m} for b in spec.blocks],
    }
    if spec.kind == "case-I":
        doc["trailing"] = spec.trailing
    if spec.kind == "one-block":
        doc["epsilon"] = spec.epsilon
    return doc


def _certificate_json(gen, cert, rnd, equations):
    return {
        "generator": gen.label(),
        "target": cert.target.label(),
        "round": rnd,
        "combination": [
            {
                "equation": idx,
                "provenance": equations[idx].provenance,
                "multiplier": rat_str(mult),
            }
            for idx, mult in cert.multipliers
        ],
        "coefficients": {
            s.label(): rat_str(c) for s, c in sorted(
                cert.coefficients.items(), key=lambda kv: kv[0].sort_key()
            )
        },
    }


def _check_options(*, membership_bound: int, dim: int) -> None:
    """Reject option values no stage can use."""
    for field, value, least in (("membership_bound", membership_bound, 0), ("dim", dim, 1)):
        if not _is_int(value) or value < least:
            raise ConfigError(field, f"expected an integer >= {least}, got {value!r}")


def run(spec: BlockSpec, verb: str, *, membership_bound: int = 4, seed: int = 0, dim: int = 1):
    """Run a verb over a block spec; returns (exit code, report dict).

    Invalid options give EXIT_CONFIG and the message under "error".
    """
    report = {"input": config_json(spec), "verb": verb}
    try:
        _check_options(membership_bound=membership_bound, dim=dim)
    except ConfigError as exc:
        report["error"] = str(exc)
        return EXIT_CONFIG, report
    timings = {}
    code = EXIT_OK

    start = time.perf_counter()
    presentation = build_presentation(spec)
    timings["build"] = time.perf_counter() - start
    report["sizes"] = presentation.sizes

    if verb == "build":
        report["presentation"] = {
            "label": presentation.label,
            "generators": [g.label() for g in presentation.generators],
            "relations": [repr(r) for r in presentation.relations],
        }
        report["verdict"] = f"built {presentation.label}"

    kac_report = final = None
    if verb in ("kac", "match", "report"):
        start = time.perf_counter()
        kac_report, final = kac_fixpoint(presentation)
        timings["kac"] = time.perf_counter() - start
        report["kac"] = {
            "forced": [g.label() for g in kac_report.forced],
            "rounds": kac_report.iterations,
            "undetermined": [s.label() for s in kac_report.undetermined],
            "certificates": [
                _certificate_json(g, cert, rnd, kac_report.rounds[rnd].equations.equations)
                for g, cert, rnd in kac_report.certificates
            ],
        }
        if kac_report.undetermined:
            code = EXIT_UNDETERMINED
        if verb == "kac":
            report["verdict"] = (
                f"forced {len(kac_report.forced)} generators "
                f"in {kac_report.iterations} rounds"
            )

    if verb in ("match", "report") and code == EXIT_OK:
        start = time.perf_counter()
        target, renaming = expected_kac_target(spec)
        survivors = final.generator_set()
        expected = set(renaming)
        if survivors != expected:
            extra = sorted(g.label() for g in survivors - expected)
            missing = sorted(g.label() for g in expected - survivors)
            report["match"] = {
                "matched": False,
                "mode": "structural",
                "target": target.label,
                "unexpected_survivors": extra,
                "missing_survivors": missing,
            }
            report["verdict"] = f"mismatch vs {target.label} (survivor sets differ)"
            code = EXIT_MISMATCH
        else:
            verdict = match_presentations(final, target, renaming, membership_bound)
            report["match"] = {
                "matched": verdict.matched,
                "mode": verdict.mode,
                "target": target.label,
                "renaming": {
                    g.label(): h.label()
                    for g, h in sorted(verdict.renaming.items())
                },
                "unmatched_derived": [repr(r) for r in verdict.unmatched_derived],
                "unmatched_target": [repr(r) for r in verdict.unmatched_target],
            }
            if verdict.matched and not kac_report.forced:
                report["verdict"] = "matched self (no forced zeros)"
            elif verdict.matched:
                report["verdict"] = f"matched {target.label}"
            else:
                report["verdict"] = f"mismatch vs {target.label}"
                code = EXIT_MISMATCH
        timings["match"] = time.perf_counter() - start

    if verb in ("hopf-check", "report"):
        start = time.perf_counter()
        hopf = hopf_axiom_check(presentation, bound=membership_bound)
        section = {
            "coassociativity": hopf.coassociativity,
            "counit": hopf.counit,
            "antipode": dict(sorted(hopf.antipode.items())),
            "relations": {str(k): v for k, v in sorted(hopf.relations.items())},
            "bound": hopf.bound,
        }
        try:
            section["central_morphism"] = central_morphism_check(presentation)
        except ValueError:
            section["central_morphism"] = None
        report["hopf"] = section
        timings["hopf"] = time.perf_counter() - start
        if verb == "hopf-check":
            ok = hopf.all_pass and section["central_morphism"] in (True, None)
            report["verdict"] = "hopf axioms pass" if ok else "hopf axioms inconclusive"
            if not ok:
                code = EXIT_UNDETERMINED

    if verb in ("numeric", "report"):
        start = time.perf_counter()
        n = presentation.fundamental().rows
        identity_point = classical_point(presentation, np.eye(n))
        identity_residual = eval_residual(presentation, identity_point).max_residual
        found = rep_search(presentation, dim, seed)
        section = {
            "classical_identity": {"max_residual": identity_residual},
            "rep_search": {
                "found": found is not None,
                "dim": dim,
                "seed": seed,
                "max_residual": (
                    eval_residual(presentation, found).max_residual
                    if found is not None
                    else None
                ),
            },
        }
        report["numeric"] = section
        timings["numeric"] = time.perf_counter() - start
        if verb == "numeric":
            report["verdict"] = (
                f"identity point residual {identity_residual:.2e}; "
                f"rep search {'found' if found is not None else 'exhausted'}"
            )

    report["timings"] = timings
    return code, report


def _summary(report) -> str:
    lines = [f"{report['verb']}: {report.get('verdict', '')}"]
    sizes = report.get("sizes")
    if sizes:
        lines.append(
            f"  presentation: {sizes['generators']} generators, "
            f"{sizes['relations']} relations"
        )
    kac = report.get("kac")
    if kac:
        lines.append(
            f"  kac: forced {len(kac['forced'])} generators in {kac['rounds']} rounds"
            + (f", undetermined {len(kac['undetermined'])}" if kac["undetermined"] else "")
        )
    match = report.get("match")
    if match:
        lines.append(f"  match: {match['matched']} mode={match['mode']} target={match['target']}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_CONFIG; argparse's own 2 would read as
    "undetermined"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="cqgkac",
        description=(
            "Build universal unitary/orthogonal quantum-group presentations, "
            "derive their Kac quotients with exact certificates, and verify "
            "the free-product targets."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the block-spec JSON")
    common.add_argument("--out", help="write the JSON report here")
    common.add_argument("--membership-bound", type=int, default=4,
                        help="degree bound for ideal-membership checks")
    common.add_argument("--seed", type=int, default=0, help="seed for the numeric search")
    common.add_argument("--dim", type=int, default=1,
                        help="representation dimension for the numeric search")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, blurb in (
        ("build", "emit the presentation"),
        ("kac", "run the Kac fixpoint derivation"),
        ("match", "derive and compare against the free-product target"),
        ("hopf-check", "verify the Hopf structure at a degree bound"),
        ("numeric", "classical-point and representation-search checks"),
        ("report", "all stages"),
    ):
        sub.add_parser(verb, parents=[common], help=blurb)
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        spec = parse_config(data)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG

    code, report = run(
        spec,
        args.verb,
        membership_bound=args.membership_bound,
        seed=args.seed,
        dim=args.dim,
    )
    if code == EXIT_CONFIG:
        print(report["error"], file=sys.stderr)
        return code
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(_summary(report))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
