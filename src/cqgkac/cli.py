"""Command-line front end.

Verbs: build, kac, match, hopf-check, numeric, report.  Options: --config
(the block-spec JSON) and --out (write the report there and print a
summary).  No option sets a degree: Kac, match and Hopf work at the degrees
of their inputs, and the numeric witness is an exact character.  The block
spec comes from a JSON config; rationals are serialized as "p/q" strings so
the round trip stays exact.  Exit codes: 0 success/matched (and --help), 1
usage or configuration error, 2 derivation left undetermined or
inconclusive items, 3 target mismatch.
"""

from __future__ import annotations

import json
import sys
import time

from .algebra import is_int, rat, rat_str
from .hopf import central_morphism_check, hopf_axiom_check
from .numeric import classical_point, eval_residual, rep_search
from .presentations import BlockSpec, SpecError, build_presentation
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
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"blocks[{i}].q", str(exc)) from None
        m = item.get("m", 1)
        if not is_int(m):
            raise ConfigError(f"blocks[{i}].m", "expected an integer")
        blocks.append((q, m))
    trailing = data.get("trailing", 0)
    if not is_int(trailing):
        raise ConfigError("trailing", "expected an integer")
    epsilon = data.get("epsilon", 1)
    if not is_int(epsilon) or epsilon not in (-1, 1):
        raise ConfigError("epsilon", "expected -1 or 1")
    try:
        spec = BlockSpec(kind, tuple(blocks), trailing=trailing, epsilon=epsilon)
    except SpecError as exc:
        raise ConfigError(exc.field, str(exc)) from None
    if "epsilon" in data and kind != "one-block":
        raise ConfigError("epsilon", f"{kind} spec takes no epsilon")
    return spec


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


def _kac_certificates(kac_report):
    """The report's certificate entries, one per forced generator, all in
    round 0.  Every certificate cites the one closed-form combination, so
    its multipliers and coefficients are rendered once and shared."""
    if not kac_report.certificates:
        return []
    equations = kac_report.equations.equations
    first = kac_report.certificates[0][1]
    shared = {
        "combination": [
            {"equation": idx, "provenance": equations[idx].provenance, "multiplier": rat_str(mult)}
            for idx, mult in first.multipliers
        ],
        "coefficients": {
            s.label(): rat_str(c)
            for s, c in sorted(first.coefficients.items(), key=lambda kv: kv[0].sort_key())
        },
    }
    return [{"generator": g.label(), "target": cert.target.label(), "round": 0, **shared}
            for g, cert in kac_report.certificates]


VERBS = {
    "build": "emit the presentation",
    "kac": "run the Kac fixpoint derivation",
    "match": "derive and compare against the free-product target",
    "hopf-check": "check the Hopf axioms: letterwise over u, the antipode in the bounded ideal",
    "numeric": "identity-point residual and an exact character's residual",
    "report": "all stages",
}


def run(spec: BlockSpec, verb: str):
    """Run a verb over a block spec; returns (exit code, report dict).

    An unknown verb gives EXIT_CONFIG and the message under "error".
    `report` adds a "survivors" section: the exact characters the Kac
    layer's closing round found (`KacReport.cover`, from
    `numeric.witness_characters`), nonzero on the generators it leaves
    alive,

        "survivors": {
            "characters": [V, ...],   # N x N signed permutation matrices,
                                      # lists of int rows, each re-verified
            "witnesses": {"u(j,k)": i, ...},  # survivor -> index of a
                                              # character nonzero on it
            "unwitnessed": ["u(j,k)", ...],   # survivors none reached
            "candidates": n,          # candidates drawn from the enumeration
        }

    A character is a tracial state and a finite-dimensional representation,
    so each witness proves its generator survives in the Kac and the RFD
    quotient.  `kac.rounds` is 1 plus whether the closed-form round forced
    anything, and every certificate's `round` is 0.
    """
    report = {"input": config_json(spec), "verb": verb}
    if verb not in VERBS:
        error = ConfigError("verb", f"expected one of {', '.join(VERBS)}, got {verb!r}")
        report["error"] = str(error)
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
            "certificates": _kac_certificates(kac_report),
        }
        kac_verdict = (
            f"forced {len(kac_report.forced)} generators in {kac_report.iterations} rounds"
        )
        if kac_report.undetermined:
            code = EXIT_UNDETERMINED
            report["verdict"] = f"{kac_verdict}; {len(kac_report.undetermined)} undetermined"
        elif verb == "kac":
            report["verdict"] = kac_verdict

    if verb in ("match", "report") and code == EXIT_OK:
        start = time.perf_counter()
        target, renaming = expected_kac_target(spec)
        survivors = set(final.generators)
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
            verdict = match_presentations(final, target, renaming)
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

    if verb == "report":
        cover = kac_report.cover
        report["survivors"] = {
            "characters": [[list(row) for row in V] for V in cover.characters],
            "witnesses": {g.label(): i for g, i in sorted(cover.witness.items())},
            "unwitnessed": [g.label() for g in cover.uncovered],
            "candidates": cover.tried,
        }

    if verb in ("hopf-check", "report"):
        start = time.perf_counter()
        hopf = hopf_axiom_check(presentation)
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
        n = presentation.u.rows
        eye = [[float(j == k) for k in range(n)] for j in range(n)]
        identity_point = classical_point(presentation, eye)
        identity_residual = eval_residual(presentation, identity_point).max_residual
        found = rep_search(presentation)
        section = {
            "classical_identity": {"max_residual": identity_residual},
            "rep_search": {
                "found": found is not None,
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
    hopf = report.get("hopf")
    if hopf:
        antipode, relations = list(hopf["antipode"].values()), list(hopf["relations"].values())
        lines.append(
            f"  hopf: coassociativity={hopf['coassociativity']} counit={hopf['counit']}"
            f" antipode {antipode.count('pass')}/{len(antipode)} pass,"
            f" relations {relations.count('pass')}/{len(relations)} pass"
        )
    numeric = report.get("numeric")
    if numeric:
        found = "found" if numeric["rep_search"]["found"] else "not found"
        residual = numeric["classical_identity"]["max_residual"]
        lines.append(f"  numeric: identity residual {residual:.2e}, character {found}")
    survivors = report.get("survivors")
    if survivors:
        lines.append(f"  survivors: {len(survivors['characters'])} characters, "
                     f"{len(survivors['unwitnessed'])} unwitnessed, "
                     f"{survivors['candidates']} candidates")
    return "\n".join(lines)


def main(argv=None) -> int:
    """The `cqgkac` command; `run` is the library entry point.  argparse
    is loaded here only, so importing the module does not pay for it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Usage errors exit with EXIT_CONFIG; argparse's own 2 would read
        as "undetermined"."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")

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
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, blurb in VERBS.items():
        sub.add_parser(verb, parents=[common], help=blurb)
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # JSONDecodeError, UnicodeDecodeError on non-UTF-8 bytes, or
    # RecursionError on nesting deeper than the decoder can follow
    except (ValueError, RecursionError) as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        spec = parse_config(data)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG

    code, report = run(spec, args.verb)
    if code == EXIT_CONFIG:
        print(report["error"], file=sys.stderr)
        return code
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(_summary(report))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
