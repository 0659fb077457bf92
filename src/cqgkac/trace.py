"""Formal tracial-state calculus over a presentation.

Applying a tracial state to every relation yields exact linear equations
between trace symbols (cyclic word classes, split into real and imaginary
unknowns).  Symbols of the form tr[g g*] are nonnegative.  A generator g is
certified to lie in the Kac ideal when an exact LP proves the maximum of
its symbol over the equation polytope is zero; the dual multipliers give a
nonnegative combination of equations that any tracial state must satisfy,
which is stored and re-verified independently of the solver.

The Kac quotient is reached by a fixpoint loop: derive, force, quotient,
repeat until no generator dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgElement, GeneratorId, Word, add_terms, rat_str, word_adjoint, word_key, word_label,
)
from .presentations import Presentation
from .quotient import quotient_by_zero
from .simplex import Infeasible, Unbounded, solve_lp_max


class Undetermined(Exception):
    """The equations do not bound the target symbol; nothing is claimed."""


class CertificateError(Exception):
    """A stored certificate failed exact re-verification."""


@dataclass(frozen=True)
class TraceSymbol:
    """A cyclic word class: the least rotation among the word's rotations
    and its adjoint's; `selfadjoint` marks classes closed under *."""

    word: Word
    selfadjoint: bool

    def sort_key(self):
        return word_key(self.word)

    def label(self) -> str:
        return f"tr[{word_label(self.word)}]"


def _rotations(w: Word):
    return [w[i:] + w[:i] for i in range(len(w))]


def cyclic_canonical(w: Word):
    """Canonical symbol of a word plus the sign of its imaginary part.

    Sign -1 means the adjoint's class was strictly smaller, encoding
    tr(w*) = conj(tr(w)).
    """
    if not w:
        return TraceSymbol((), True), 1
    m1 = min(_rotations(w))
    m2 = min(_rotations(word_adjoint(w)))
    if m1 == m2:
        return TraceSymbol(m1, True), 1
    if m1 < m2:
        return TraceSymbol(m1, False), 1
    return TraceSymbol(m2, False), -1


def generator_symbol(g: GeneratorId) -> TraceSymbol:
    """The nonnegative symbol tr[g g*] of a generator."""
    sym, _ = cyclic_canonical((g.plain(), g.plain().adjoint()))
    return sym


class TraceExpr:
    """constant + sum Re-coefficients + i * sum Im-coefficients."""

    __slots__ = ("constant", "re", "im")

    def __init__(self, constant=0, re=None, im=None):
        self.constant = Fraction(constant)
        self.re = add_terms({}, (re or {}).items())
        self.im = add_terms({}, (im or {}).items())

    def is_zero(self) -> bool:
        return not self.constant and not self.re and not self.im

    def __eq__(self, other):
        return (
            isinstance(other, TraceExpr)
            and self.constant == other.constant
            and self.re == other.re
            and self.im == other.im
        )

    def __repr__(self):
        parts = []
        if self.constant:
            parts.append(rat_str(self.constant))
        for s in sorted(self.re, key=TraceSymbol.sort_key):
            parts.append(f"{rat_str(self.re[s])} {s.label()}")
        for s in sorted(self.im, key=TraceSymbol.sort_key):
            parts.append(f"{rat_str(self.im[s])} Im{s.label()}")
        return " + ".join(parts) if parts else "0"


def trace_of(a: AlgElement) -> TraceExpr:
    """Formal trace of an element: words collapse to cyclic symbols, the
    unit word feeds the constant (tr(1) = 1)."""
    constant = Fraction(0)
    re, im = [], []
    for w, c in a.terms():
        if not w:
            constant += c
            continue
        sym, sign = cyclic_canonical(w)
        re.append((sym, c))
        if not sym.selfadjoint:
            im.append((sym, sign * c))
    return TraceExpr(constant, add_terms({}, re), add_terms({}, im))


@dataclass(frozen=True)
class TraceEquation:
    """One linear equation (= 0) over trace unknowns of a single part."""

    part: str  # "re" or "im"
    constant: Fraction
    coeffs: dict
    provenance: str


class TraceEquationSet:
    """Equations from tracing every relation, with the nonnegative index."""

    __slots__ = ("equations", "nonneg", "_reduced")

    def __init__(self, equations, nonneg):
        self.equations = tuple(equations)
        self.nonneg = frozenset(nonneg)
        self._reduced = None

    def real_indices(self):
        return [i for i, e in enumerate(self.equations) if e.part == "re"]

    def reduced(self):
        """Real-part rows with every free symbol eliminated exactly.

        Each surviving row keeps its expression as a combination of the
        original equations, so LP duals translate back to certificates.
        """
        if self._reduced is None:
            self._reduced = _eliminate_free(self)
        return self._reduced


@dataclass
class _Row:
    coeffs: dict  # TraceSymbol -> Fraction, nonneg symbols only after reduction
    const: Fraction
    combo: dict  # original equation index -> Fraction


def _eliminate_free(eqs: TraceEquationSet):
    rows = {}
    occurrences = {}
    for i in eqs.real_indices():
        e = eqs.equations[i]
        row = _Row(dict(e.coeffs), e.constant, {i: Fraction(1)})
        rid = len(rows)
        rows[rid] = row
        for s in row.coeffs:
            if s not in eqs.nonneg:
                occurrences.setdefault(s, set()).add(rid)
    for sym in sorted(occurrences, key=TraceSymbol.sort_key):
        holders = sorted(occurrences.get(sym, ()))
        holders = [r for r in holders if r in rows and sym in rows[r].coeffs]
        if not holders:
            continue
        pid = holders[0]
        pivot = rows.pop(pid)
        pc = pivot.coeffs[sym]
        for rid in holders[1:]:
            row = rows[rid]
            f = -row.coeffs[sym] / pc
            add_terms(row.coeffs, ((s, f * v) for s, v in pivot.coeffs.items()))
            for s in pivot.coeffs:
                if s in row.coeffs and s not in eqs.nonneg:
                    occurrences.setdefault(s, set()).add(rid)
            row.const += f * pivot.const
            add_terms(row.combo, ((k, f * v) for k, v in pivot.combo.items()))
    out = []
    for rid in sorted(rows):
        row = rows[rid]
        if not row.coeffs:
            if row.const:
                raise Infeasible("trace equations are inconsistent")
            continue
        out.append(row)
    return tuple(out)


def derive_trace_equations(P: Presentation) -> TraceEquationSet:
    """Trace every relation once; its real and imaginary parts become
    separate equations with provenance rel[i].  The nonnegative index holds
    tr[g g*] for every generator g."""
    equations = []
    for i, r in enumerate(P.relations):
        t = trace_of(r)
        if t.constant or t.re:
            equations.append(TraceEquation("re", t.constant, t.re, f"rel[{i}]"))
        if t.im:
            equations.append(TraceEquation("im", Fraction(0), t.im, f"rel[{i}]"))
    nonneg = {generator_symbol(g) for g in P.generators}
    return TraceEquationSet(equations, nonneg)


@dataclass(frozen=True)
class Certificate:
    """An exact nonnegative combination of traced relations proving that a
    nonnegative symbol vanishes for every tracial state."""

    target: TraceSymbol
    multipliers: tuple  # ((equation index, Fraction), ...)
    constant: Fraction
    coefficients: dict  # TraceSymbol -> Fraction, the resulting combination


def _recombine(eqs: TraceEquationSet, multipliers):
    """(constant, coefficients) of the sum of mult * equation over the
    (equation index, mult) pairs; only real-part equations may be cited."""
    const = Fraction(0)
    coeffs = {}
    for idx, mult in multipliers:
        eq = eqs.equations[idx]
        if eq.part != "re":
            raise CertificateError(f"equation {idx} is not a real-part equation")
        const += mult * eq.constant
        add_terms(coeffs, ((s, mult * c) for s, c in eq.coeffs.items()))
    return const, coeffs


def verify_certificate(cert: Certificate, eqs: TraceEquationSet) -> bool:
    """Recombine the cited equations and re-check every sign condition.

    Reads only the multipliers and the equations, never the LP: raises
    CertificateError on any failure.
    """
    const, coeffs = _recombine(eqs, cert.multipliers)
    if const != cert.constant or coeffs != cert.coefficients:
        raise CertificateError("stored combination does not match the recombination")
    if const != 0:
        raise CertificateError("combination has a nonzero constant")
    for s, c in coeffs.items():
        if s not in eqs.nonneg:
            raise CertificateError(f"free symbol {s.label()} survives in the combination")
        if c < 0:
            raise CertificateError(f"negative coefficient on {s.label()}")
    if coeffs.get(cert.target, 0) <= 0:
        raise CertificateError("target symbol does not appear positively")
    return True


def forced_zero(eqs: TraceEquationSet, target: TraceSymbol):
    """Certificate that the target symbol is zero, or None if a tracial
    state may keep it positive.  Raises Undetermined when the reduced
    system leaves the target unbounded."""
    if target not in eqs.nonneg:
        raise ValueError(f"{target.label()} is not in the nonnegative index")
    rows = eqs.reduced()
    variables = sorted({s for row in rows for s in row.coeffs}, key=TraceSymbol.sort_key)
    if target not in set(variables):
        raise Undetermined(target.label())
    a = [[row.coeffs.get(v, Fraction(0)) for v in variables] for row in rows]
    b = [-row.const for row in rows]
    c = [Fraction(int(v == target)) for v in variables]
    try:
        res = solve_lp_max(a, b, c)
    except Unbounded:
        raise Undetermined(target.label()) from None
    if res.value > 0:
        return None
    combo = {}
    for mult, row in zip(res.dual, rows):
        if mult:
            add_terms(combo, ((idx, mult * m) for idx, m in row.combo.items()))
    multipliers = tuple(sorted(combo.items()))
    cert = Certificate(target, multipliers, *_recombine(eqs, multipliers))
    verify_certificate(cert, eqs)
    return cert


@dataclass(frozen=True)
class KacRound:
    """One derive-and-force pass: the equations used, the generators
    forced to zero with their certificates, and undetermined symbols."""

    equations: TraceEquationSet
    forced: tuple  # ((GeneratorId, Certificate), ...)
    undetermined: tuple


@dataclass(frozen=True)
class KacReport:
    rounds: tuple

    @property
    def forced(self):
        return [g for rnd in self.rounds for g, _ in rnd.forced]

    @property
    def certificates(self):
        return [
            (g, cert, i) for i, rnd in enumerate(self.rounds) for g, cert in rnd.forced
        ]

    @property
    def undetermined(self):
        return list(self.rounds[-1].undetermined) if self.rounds else []

    @property
    def iterations(self) -> int:
        return len(self.rounds)


def kac_fixpoint(P: Presentation):
    """Iterate derive -> force -> quotient until no generator dies.

    Every round but the last removes at least one generator, so the loop
    ends after at most (number of generators + 1) rounds.  Sound by
    construction: every actual tracial state satisfies the derived
    equations, so certified symbols genuinely vanish and the quotient stays
    above the Kac quotient.  Returns (KacReport, final presentation).
    """
    if not P.eliminated:
        raise ValueError(
            "presentation still carries unresolved reality relations "
            "(non-monomial F); the Kac derivation only handles eliminated forms"
        )
    rounds = []
    current = P
    while True:
        eqs = derive_trace_equations(current)
        forced, undetermined = [], []
        for g in current.generators:
            try:
                cert = forced_zero(eqs, generator_symbol(g))
            except Undetermined:
                undetermined.append(generator_symbol(g))
                continue
            if cert is not None:
                forced.append((g, cert))
        rounds.append(KacRound(eqs, tuple(forced), tuple(undetermined)))
        if not forced:
            break
        current = quotient_by_zero(current, [g for g, _ in forced])
    return KacReport(tuple(rounds)), current
