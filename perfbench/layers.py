"""Which cqgkac functions the traced pass wraps, and the per-layer metrics
derived from their spans.

Span names are "<module>.<function>" of the module that defines the function,
so each layer is a module of the package.  A function is patched under every
name it is called through: `cli` imports the stage entry points, `trace`
imports `solve_lp_max` and `quotient_by_zero`, `hopf` imports
`bounded_ideal_echelon`.
"""

from __future__ import annotations

from spans import SpanTable


def _sizes(args, kwargs, presentation):
    return dict(presentation.sizes)


def _kac(args, kwargs, result):
    report, _final = result
    return {"rounds": report.iterations, "forced": len(report.forced)}


def _match(args, kwargs, verdict):
    return {"bounded": int(verdict.mode == "bounded-ideal")}


def _hopf(args, kwargs, report):
    items = list(report.antipode.values()) + list(report.relations.values())
    return {"items": len(items), "inconclusive": len(items) - items.count("pass")}


def _found(args, kwargs, assignment):
    return {"found": int(assignment is not None)}


def _equations(args, kwargs, eqs):
    return {"equations": len(eqs.equations)}


def _lp_cells(args, kwargs, result):
    a_rows, _b, c = args[:3]
    return {"cells": len(a_rows) * len(c)}


def _echelon(args, kwargs, ech):
    words = set()
    for row in ech.pivots.values():
        words.update(row)
    return {"rank": ech.rank(), "words": len(words)}


def targets():
    """(owner, attribute, span name, attrs) for every wrapped function, and
    the counted SparseEchelon.add."""
    from cqgkac import cli, hopf, linalg, numeric, quotient, trace

    # The first reduced() call on an equation set eliminates; later calls
    # return the cached rows.  Holding each set keeps its id from being
    # reused for the length of the traced pass.
    reduced_sets = {}

    def first_reduction(args, kwargs, rows):
        if id(args[0]) in reduced_sets:
            return {}
        reduced_sets[id(args[0])] = args[0]
        return {"rows": len(rows)}

    spans = [
        (cli, "build_presentation", "presentations.build_presentation", _sizes),
        (cli, "kac_fixpoint", "trace.kac_fixpoint", _kac),
        (trace, "derive_trace_equations", "trace.derive_trace_equations", _equations),
        (trace.TraceEquationSet, "reduced", "trace.reduced", first_reduction),
        (trace, "forced_zero", "trace.forced_zero", None),
        (trace, "verify_certificate", "trace.verify_certificate", None),
        (trace, "solve_lp_max", "simplex.solve_lp_max", _lp_cells),
        (trace, "quotient_by_zero", "quotient.quotient_by_zero", None),
        (cli, "expected_kac_target", "quotient.expected_kac_target", None),
        (cli, "match_presentations", "quotient.match_presentations", _match),
        (quotient, "bounded_ideal_echelon", "quotient.bounded_ideal_echelon", _echelon),
        (hopf, "bounded_ideal_echelon", "quotient.bounded_ideal_echelon", _echelon),
        (cli, "hopf_axiom_check", "hopf.hopf_axiom_check", _hopf),
        (cli, "central_morphism_check", "hopf.central_morphism_check", None),
        (cli, "classical_point", "numeric.classical_point", None),
        (cli, "eval_residual", "numeric.eval_residual", None),
        (numeric, "eval_residual", "numeric.eval_residual", None),
        (cli, "rep_search", "numeric.rep_search", _found),
    ]
    counters = [(linalg.SparseEchelon, "add", "rows_tried")]
    return spans, counters


ECHELON = "quotient.bounded_ideal_echelon"
HOPF = ("hopf.hopf_axiom_check", "hopf.central_morphism_check")
NUMERIC_STAGE = ("numeric.classical_point", "numeric.eval_residual", "numeric.rep_search")

# name, unit, better, value from the span table
LAYER_METRICS = (
    ("presentations.build_s", "s", "lower",
     lambda t: t.time("presentations.build_presentation")),
    ("presentations.generators", "count", "lower",
     lambda t: t.attr("generators", "presentations.build_presentation")),
    ("presentations.relations", "count", "lower",
     lambda t: t.attr("relations", "presentations.build_presentation")),
    ("trace.kac_s", "s", "lower", lambda t: t.time("trace.kac_fixpoint")),
    ("trace.derive_s", "s", "lower", lambda t: t.time("trace.derive_trace_equations")),
    ("trace.reduce_s", "s", "lower", lambda t: t.time("trace.reduced")),
    ("trace.forced_zero_calls", "count", "lower", lambda t: t.count("trace.forced_zero")),
    ("trace.verify_s", "s", "lower", lambda t: t.time("trace.verify_certificate")),
    ("trace.rounds", "count", "lower", lambda t: t.attr("rounds", "trace.kac_fixpoint")),
    ("trace.equations", "count", "lower",
     lambda t: t.attr("equations", "trace.derive_trace_equations")),
    ("trace.reduced_rows", "count", "lower", lambda t: t.attr("rows", "trace.reduced")),
    ("trace.forced", "count", "higher", lambda t: t.attr("forced", "trace.kac_fixpoint")),
    ("simplex.lp_s", "s", "lower", lambda t: t.time("simplex.solve_lp_max")),
    ("simplex.lp_calls", "count", "lower", lambda t: t.count("simplex.solve_lp_max")),
    ("simplex.lp_cells", "count", "lower", lambda t: t.attr("cells", "simplex.solve_lp_max")),
    ("quotient.quotient_s", "s", "lower", lambda t: t.time("quotient.quotient_by_zero")),
    ("quotient.match_s", "s", "lower",
     lambda t: t.time("quotient.expected_kac_target", "quotient.match_presentations")),
    ("quotient.echelon_s", "s", "lower", lambda t: t.time(ECHELON)),
    ("quotient.match_bounded", "count", "lower",
     lambda t: t.attr("bounded", "quotient.match_presentations")),
    ("linalg.echelon_rows_tried", "count", "lower", lambda t: t.attr("rows_tried", ECHELON)),
    ("linalg.echelon_rank", "count", "lower", lambda t: t.attr("rank", ECHELON)),
    ("linalg.echelon_words", "count", "lower", lambda t: t.attr("words", ECHELON)),
    ("hopf.hopf_s", "s", "lower", lambda t: t.time(*HOPF)),
    ("hopf.self_s", "s", "lower", lambda t: t.self_seconds(*HOPF)),
    ("hopf.items_checked", "count", "higher", lambda t: t.attr("items", "hopf.hopf_axiom_check")),
    ("hopf.inconclusive", "count", "lower",
     lambda t: t.attr("inconclusive", "hopf.hopf_axiom_check")),
    ("numeric.numeric_s", "s", "lower", lambda t: t.time(*NUMERIC_STAGE, under="cli.run")),
    ("numeric.rep_search_s", "s", "lower", lambda t: t.time("numeric.rep_search")),
    ("numeric.eval_residual_calls", "count", "lower", lambda t: t.count("numeric.eval_residual")),
    ("numeric.eval_residual_s", "s", "lower", lambda t: t.time("numeric.eval_residual")),
    ("numeric.found", "count", "higher", lambda t: t.attr("found", "numeric.rep_search")),
    ("cli.self_s", "s", "lower", lambda t: t.self_seconds("cli.run")),
)


def layer_metrics(spans, traced_wall_s: float) -> dict:
    """Every per-layer metric, plus the traced pass's own wall time."""
    table = SpanTable(spans)
    out = {name: {"value": fn(table), "unit": unit} for name, unit, _better, fn in LAYER_METRICS}
    out["tracing.wall_s"] = {"value": traced_wall_s, "unit": "s"}
    return out
