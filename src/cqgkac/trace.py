"""Formal tracial-state calculus over a presentation.

Applying a tracial state to a relation gives a formal trace over cyclic
word classes.  Only its real part is built and becomes an equation: the
imaginary parts form a homogeneous system in unknowns no real part
mentions, which Im = 0 always solves.  Symbols of the form
tr[g g*] are nonnegative; the others are free.  Only relations with a
constant term are traced: the closed form below reads no others.

A generator g is certified to lie in the Kac ideal by a nonnegative
combination of equations with constant 0, no free symbol, and a positive
coefficient on tr[g g*]; `verify_certificate` re-checks it reading only
the equations.  The Kac quotient needs one such combination, in closed
form (S. Wang, Free products of compact quantum groups, 1995; Van Daele &
Wang, Universal quantum groups, 1996).  With a_jk = tr[u_jk u_jk*] and Q
diagonal, the traced diagonal entries of the four unitarity identities
read

  UU*-I[j,j]: sum_k a_jk - 1,   QUbarQ^-1U^t-I[j,j]: sum_k (Q_j/Q_k) a_jk - 1,
  U*U-I[k,k]: sum_j a_jk - 1,   U^tQUbarQ^-1-I[k,k]: sum_j (Q_j/Q_k) a_jk - 1.

Weighting each row pair (twisted minus plain) by Q_j and each column pair
(plain minus twisted) by Q_k gives constant 0 and the coefficient
(Q_j - Q_k)^2 / Q_k >= 0 on a_jk, so every generator joining two different
eigenvalues of Q dies at once.  That one closed-form round is the whole
derivation, with no fixpoint: the exact characters of
`numeric.witness_characters` then cover the rest.  A character is a
tracial state, so a generator it is nonzero on survives, and a survivor no
character reaches is reported undetermined.

The exact LP search for such combinations (`_shared_certificates` over
`TraceEquationSet.reduced`, simplex after Freund, Roundy & Todd 1985) is
no longer on the Kac path.  It stays as the reference the tests check the
closed form against, and because the benchmark harness wraps
`solve_lp_max`, `forced_zero` and `TraceEquationSet.reduced` by name.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    AlgElement, GeneratorId, Word, add_terms, ratio, word_adjoint, word_key, word_label,
)
from .linalg import SparseEchelon
from .numeric import CharacterCover, witness_characters
from .presentations import Presentation
from .quotient import quotient_by_zero
from .simplex import Infeasible, Unbounded, solve_lp_max


class Undetermined(Exception):
    """The equations do not bound the target symbol; nothing is claimed."""


class CertificateError(Exception):
    """A stored certificate failed exact re-verification."""


class TraceSymbol(NamedTuple):
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


def trace_of(a: AlgElement):
    """Real part of the formal trace of an element as (constant, {symbol:
    coefficient}): words collapse to cyclic symbols, the unit word feeds the
    constant (tr(1) = 1)."""
    coeffs = add_terms({}, ((cyclic_canonical(w)[0], c) for w, c in a.terms() if w))
    return a.coefficient(()), coeffs


class TraceEquation(NamedTuple):
    """One linear equation (= 0) over the real parts of trace unknowns."""

    constant: int | Fraction
    coeffs: dict
    provenance: str


class TraceEquationSet:
    """Equations from tracing relations, with the nonnegative index."""

    __slots__ = ("equations", "nonneg", "_reduced")

    def __init__(self, equations, nonneg):
        self.equations = tuple(equations)
        self.nonneg = frozenset(nonneg)
        self._reduced = None

    def reduced(self):
        """Independent rows with every free symbol eliminated exactly.

        Each row keeps its expression as a combination of the original
        equations, so LP duals translate back to certificates.
        """
        if self._reduced is None:
            self._reduced = _eliminate_free(self)
        return self._reduced


class _Row(NamedTuple):
    coeffs: dict  # nonneg TraceSymbol -> Fraction
    const: Fraction
    combo: dict  # original equation index -> Fraction


def _eliminate_free(eqs: TraceEquationSet):
    """Echelon the equations over the columns: free symbols, nonneg
    symbols, the constant, then one column per equation recording the
    combination.  Leads are least columns, so a row led by a nonneg symbol
    carries no free symbol; a lead on the constant is a contradiction, a
    lead on an equation column a dependent equation."""
    symbols = sorted(
        {s for e in eqs.equations for s in e.coeffs},
        key=lambda s: (s in eqs.nonneg, s.sort_key()),
    )
    column = {s: j for j, s in enumerate(symbols)}
    const = len(symbols)
    ech = SparseEchelon()
    for i, e in enumerate(eqs.equations):
        row = {column[s]: c for s, c in e.coeffs.items()}
        row[const] = e.constant
        row[const + 1 + i] = 1
        ech.add(row)
    if const in ech.pivots:
        raise Infeasible("trace equations are inconsistent")
    first_nonneg = sum(s not in eqs.nonneg for s in symbols)
    out = []
    for lead in sorted(ech.pivots):
        if not first_nonneg <= lead < const:
            continue
        vec = ech.pivots[lead]
        out.append(_Row(
            {symbols[j]: Fraction(v) for j, v in vec.items() if j < const},
            Fraction(vec.get(const, 0)),
            {j - const - 1: Fraction(v) for j, v in vec.items() if j > const},
        ))
    return tuple(out)


def derive_trace_equations(P: Presentation) -> TraceEquationSet:
    """Trace each relation with a constant term, the diagonal unitarity
    entries the closed form reads; its real part becomes an equation with
    provenance rel[i], and the canonical order puts these first, so equation
    i is rel[i].  Imaginary parts are left out: they have constant 0 and
    only Im-unknowns no real part and no nonneg tr[g g*] mentions, so Im = 0
    solves them.  The nonnegative index holds tr[g g*] for every generator."""
    equations = []
    for i, r in enumerate(P.relations):
        constant = r.coefficient(())
        if constant:
            equations.append(TraceEquation(constant, trace_of(r)[1], f"rel[{i}]"))
    nonneg = {generator_symbol(g) for g in P.generators}
    return TraceEquationSet(equations, nonneg)


class Certificate(NamedTuple):
    """An exact nonnegative combination of traced relations proving that a
    nonnegative symbol vanishes for every tracial state."""

    target: TraceSymbol
    multipliers: tuple  # ((equation index, int or Fraction), ...)
    constant: int | Fraction
    coefficients: dict  # TraceSymbol -> int or Fraction, the resulting combination


def _recombine(eqs: TraceEquationSet, multipliers):
    """(constant, coefficients) of the sum of mult * equation over the
    (equation index, mult) pairs; each index must name an equation."""
    const = 0
    coeffs = {}
    for idx, mult in multipliers:
        if not 0 <= idx < len(eqs.equations):
            raise CertificateError(f"equation {idx} is out of range")
        eq = eqs.equations[idx]
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


def _shared_certificates(eqs: TraceEquationSet, targets):
    """({target: Certificate}, undetermined set) for nonnegative targets.

    The candidates are the targets the reduced rows mention; the rest are
    undetermined.  Each pass maximises the sum of the candidates' symbols.
    Candidates positive on the recession ray of an unbounded sum are
    unbounded alone, so undetermined; candidates positive at a positive
    optimum can stay positive, so dropped.  At optimum zero the dual is one
    nonnegative combination of equations, positive on every candidate left,
    and each of them gets it as a re-verified certificate.
    """
    rows = eqs.reduced()
    variables = sorted({s for row in rows for s in row.coeffs}, key=TraceSymbol.sort_key)
    column = {v: j for j, v in enumerate(variables)}
    undetermined = {t for t in targets if t not in column}
    candidates = [t for t in targets if t in column]
    a = [[row.coeffs.get(v, Fraction(0)) for v in variables] for row in rows]
    b = [-row.const for row in rows]
    while candidates:
        c = [Fraction(0)] * len(variables)
        for t in candidates:
            c[column[t]] = Fraction(1)
        try:
            res = solve_lp_max(a, b, c)
        except Unbounded as exc:
            unbounded = {t for t in candidates if exc.ray[column[t]] > 0}
            undetermined |= unbounded
            candidates = [t for t in candidates if t not in unbounded]
            continue
        if res.value > 0:
            candidates = [t for t in candidates if res.solution[column[t]] == 0]
            continue
        combo = {}
        for mult, row in zip(res.dual, rows):
            if mult:
                add_terms(combo, ((idx, mult * m) for idx, m in row.combo.items()))
        multipliers = tuple(sorted(combo.items()))
        const, coeffs = _recombine(eqs, multipliers)
        certs = {t: Certificate(t, multipliers, const, coeffs) for t in candidates}
        for cert in certs.values():
            verify_certificate(cert, eqs)
        return certs, undetermined
    return {}, undetermined


def forced_zero(eqs: TraceEquationSet, target: TraceSymbol):
    """Certificate that the target symbol is zero, or None if a tracial
    state may keep it positive: the one-target case of the shared round.
    Raises Undetermined when the reduced system leaves the target
    unbounded or does not mention it."""
    if target not in eqs.nonneg:
        raise ValueError(f"{target.label()} is not in the nonnegative index")
    certs, undetermined = _shared_certificates(eqs, [target])
    if undetermined:
        raise Undetermined(target.label())
    return certs.get(target)


def _closed_form_multipliers(P: Presentation, eqs: TraceEquationSet):
    """The closed-form combination as (equation index, multiplier) pairs,
    or None when some diagonal entry of the four identities is not (a
    multiple of) an equation, as on a hand-made presentation.

    Each entry is traced from a_jk = tr(u_jk u_jk*) over P's fundamental
    matrix and found by its coefficients at constant -1: an equation with
    constant c is keyed by coefficient / -c."""
    index = {}
    for i, e in enumerate(eqs.equations):
        if e.constant:
            scale = -e.constant
            index[frozenset((s, ratio(c, scale)) for s, c in e.coeffs.items())] = (i, scale)
    n = P.u.rows
    q = [P.q.entry(j, j) for j in range(n)]
    a = [[trace_of(x * x.adjoint())[1] for x in (P.u.entry(j, k) for k in range(n))]
         for j in range(n)]

    def entry(weights):
        return frozenset(add_terms({}, (
            (s, w * c) for (j, k), w in weights for s, c in a[j][k].items()
        )).items())

    combo = {}
    for j in range(n):
        plain_row = entry(((j, k), 1) for k in range(n))  # UU*-I[j,j]
        twisted_row = entry(((j, k), ratio(q[j], q[k])) for k in range(n))  # QUbarQ^-1U^t-I[j,j]
        plain_col = entry(((k, j), 1) for k in range(n))  # U*U-I[j,j]
        twisted_col = entry(((k, j), ratio(q[k], q[j])) for k in range(n))  # U^tQUbarQ^-1-I[j,j]
        for key, weight in (
            (twisted_row, q[j]), (plain_row, -q[j]), (plain_col, q[j]), (twisted_col, -q[j]),
        ):
            if key not in index:
                return None
            i, scale = index[key]
            add_terms(combo, ((i, ratio(weight, scale)),))
    return tuple(sorted(combo.items()))


def _closed_form_certificates(P: Presentation, eqs: TraceEquationSet):
    """((generator, Certificate), ...) for the generators of P the
    closed-form combination has a positive coefficient on, all sharing that
    one combination, verified once."""
    multipliers = _closed_form_multipliers(P, eqs)
    if multipliers is None:
        return ()
    const, coeffs = _recombine(eqs, multipliers)
    symbols = ((g, generator_symbol(g)) for g in P.generators)
    certs = tuple((g, Certificate(s, multipliers, const, coeffs))
                  for g, s in symbols if coeffs.get(s, 0) > 0)
    if certs:
        verify_certificate(certs[0][1], eqs)
    return certs


class KacReport(NamedTuple):
    """What `kac_fixpoint` concluded: the equations the certificates cite,
    one certificate per forced generator, all citing the one closed-form
    combination, the symbols of the survivors no character reaches, and
    the `numeric.CharacterCover` of the survivors."""

    equations: TraceEquationSet
    certificates: tuple  # ((GeneratorId, Certificate), ...)
    undetermined: tuple
    cover: CharacterCover

    @property
    def forced(self):
        return [g for g, _ in self.certificates]

    @property
    def iterations(self) -> int:
        """2 when the closed-form round forced something (it and the
        character cover), else 1."""
        return 1 + bool(self.certificates)


def kac_fixpoint(P: Presentation):
    """Force by the closed form, then witness the survivors by characters.

    One round, no fixpoint: the closed-form combination of the traced
    diagonal entries is one certificate, shared by every generator it
    forces; it forces nothing when those entries are not among P's
    equations.  When something dies, P is quotiented.  Then
    `witness_characters` looks for a verified character of P nonzero on
    each survivor; a survivor none reaches (one outside P's fundamental
    matrix among them) is undetermined.
    Sound by construction: every tracial state satisfies the derived
    equations, so certified symbols vanish and the quotient stays above the
    Kac quotient.  Returns (KacReport, final presentation).
    """
    eqs = derive_trace_equations(P)
    certs = _closed_form_certificates(P, eqs)
    final = quotient_by_zero(P, [g for g, _ in certs]) if certs else P
    cover = witness_characters(P, final.generators)
    uncovered = set(cover.uncovered)
    undetermined = tuple(generator_symbol(g) for g in final.generators if g in uncovered)
    return KacReport(eqs, certs, undetermined, cover), final
