"""Formal tracial-state calculus over a presentation.

Applying a tracial state to a relation gives a formal trace over cyclic
word classes.  Only its real part is built and becomes an equation: the
imaginary parts form a homogeneous system in unknowns no real part
mentions, which Im = 0 always solves.  Symbols of the form
tr[g g*] are nonnegative; the others are free.  Only relations with a
constant term are traced: the closed form below reads no others.

A certificate is a nonnegative combination of equations: its multipliers
and the coefficients it claims.  It proves that every tr[g g*] it is
positive on vanishes for every tracial state, so g lies in the Kac ideal;
`verify_certificate` recombines it from the equations alone, checks the
constant 0, the claim and the signs, and returns those symbols.  The Kac
quotient needs one certificate, in closed form (S. Wang, Free products of
compact quantum groups, 1995; Van Daele & Wang, Universal quantum groups,
1996).  With a_jk = tr[u_jk u_jk*] and Q diagonal, the traced diagonal
entries of the four unitarity identities read

  UU*-I[j,j]: sum_k a_jk - 1,   QUbarQ^-1U^t-I[j,j]: sum_k (Q_j/Q_k) a_jk - 1,
  U*U-I[k,k]: sum_j a_jk - 1,   U^tQUbarQ^-1-I[k,k]: sum_j (Q_j/Q_k) a_jk - 1.

Weighting each row pair (twisted minus plain) by Q_j and each column pair
(plain minus twisted) by Q_k gives constant 0 and the coefficient
(Q_j - Q_k)^2 / Q_k >= 0 on a_jk, so that one certificate kills every
generator joining two different eigenvalues of Q.  The certificate claims
these coefficients, summed from u, and reads its 4N entries by identity and
position from `Presentation.record` (none without a record), so its one
recombination checks the formula against the traced relations.  That one
round is the whole derivation, with no fixpoint: the exact characters of
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
    AlgElement, GeneratorId, Word, add_terms, exact, mul, ratio, word_adjoint, word_key,
    word_label,
)
from .linalg import SparseEchelon
from .numeric import CharacterCover, witness_characters
from .presentations import IDENTITIES, Presentation, _monomial_decode
from .quotient import quotient_by_zero
from .simplex import Infeasible, Unbounded, solve_lp_max


class Undetermined(Exception):
    """The equations do not bound the target symbol; nothing is claimed."""


class CertificateError(Exception):
    """A stored certificate failed exact re-verification."""


class TraceSymbol(NamedTuple):
    """A cyclic word class: the least rotation among the word's rotations
    and its adjoint's."""

    word: Word

    def sort_key(self):
        return word_key(self.word)

    def label(self) -> str:
        return f"tr[{word_label(self.word)}]"


def cyclic_canonical(w: Word) -> TraceSymbol:
    """Canonical symbol of a word: tr(w*) = conj(tr(w)) has the same real
    part, so a word and its adjoint share one symbol, the least rotation
    of either, found in one pass over the offsets."""
    n, a = len(w), word_adjoint(w)
    best, ww, aa = min(w, a), w + w, a + a
    for i in range(1, n):
        for r in (ww[i:i + n], aa[i:i + n]):
            if r < best:
                best = r
    return TraceSymbol(best)


def generator_symbol(g: GeneratorId) -> TraceSymbol:
    """The nonnegative symbol tr[g g*] of a generator."""
    return cyclic_canonical((g.plain(), g.plain().adjoint()))


def trace_of(a: AlgElement):
    """Real part of the formal trace of an element as (constant, {symbol:
    coefficient}): words collapse to cyclic symbols, the unit word feeds the
    constant (tr(1) = 1)."""
    coeffs = add_terms({}, ((cyclic_canonical(w), c) for w, c in a.terms() if w))
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
    """Trace each relation with a constant term (the diagonal unitarity
    entries the closed form reads, first in canonical order, so equation i
    is rel[i]), named as in `P.record` (QUbarQ^-1Ut-I[2,2]) or else rel[i].
    Imaginary parts are left out: they have constant 0 and only Im-unknowns
    no real part and no nonneg tr[g g*] mentions, so Im = 0 solves them.
    The nonnegative index holds tr[g g*] for every generator."""
    record = P.record
    equations = []
    for i, r in enumerate(P.relations):
        constant = r.coefficient(())
        if constant:
            o = record[1][i] if record else None
            provenance = f"{o[0]}[{o[1] + 1},{o[2] + 1}]" if o else f"rel[{i}]"
            equations.append(TraceEquation(constant, trace_of(r)[1], provenance))
    nonneg = {generator_symbol(g) for g in P.generators}
    return TraceEquationSet(equations, nonneg)


class Certificate(NamedTuple):
    """Multipliers of traced relations and the coefficients their exact
    nonnegative combination claims, whose constant must be 0; it proves
    each symbol it is positive on zero for every tracial state."""

    multipliers: tuple  # ((equation index, int or Fraction), ...)
    coefficients: dict  # TraceSymbol -> int or Fraction, the claimed combination


def _recombine(eqs: TraceEquationSet, multipliers):
    """(constant, coefficients) of the sum of mult * equation over the
    (equation index, mult) pairs, every product by `mul`, the constant in
    stored form; each index must name an equation."""
    const = 0
    coeffs = {}
    for idx, mult in multipliers:
        if not 0 <= idx < len(eqs.equations):
            raise CertificateError(f"equation {idx} is out of range")
        eq = eqs.equations[idx]
        const += mul(mult, eq.constant)
        add_terms(coeffs, ((s, mul(mult, c)) for s, c in eq.coeffs.items()))
    return exact(const), coeffs


def verify_certificate(cert: Certificate, eqs: TraceEquationSet) -> frozenset:
    """Recombine the cited equations, check that the constant is 0 and the
    coefficients are the claimed ones, re-check every sign condition, and
    return the symbols proven zero: those with a positive coefficient.
    Reads only the certificate and the equations, never how it was found:
    raises CertificateError on any failure, and when no symbol is positive.
    """
    const, coeffs = _recombine(eqs, cert.multipliers)
    if const != 0:
        raise CertificateError("combination has a nonzero constant")
    if coeffs != cert.coefficients:
        raise CertificateError("stored combination does not match the recombination")
    for s, c in coeffs.items():
        if s not in eqs.nonneg:
            raise CertificateError(f"free symbol {s.label()} survives in the combination")
        if c < 0:
            raise CertificateError(f"negative coefficient on {s.label()}")
    if not coeffs:
        raise CertificateError("combination is positive on no symbol")
    return frozenset(coeffs)


def _shared_certificates(eqs: TraceEquationSet, targets):
    """(Certificate or None, the symbols it proves, undetermined set) for
    nonnegative targets.

    The candidates are the targets the reduced rows mention; the rest are
    undetermined.  Each pass maximises the sum of the candidates' symbols.
    Candidates positive on the recession ray of an unbounded sum are
    unbounded alone, so undetermined; candidates positive at a positive
    optimum can stay positive, so dropped.  At optimum zero the dual is one
    nonnegative combination of equations, positive on every candidate left:
    the certificate, verified once.
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
        cert = Certificate(multipliers, _recombine(eqs, multipliers)[1])
        return cert, verify_certificate(cert, eqs), undetermined
    return None, frozenset(), undetermined


def forced_zero(eqs: TraceEquationSet, target: TraceSymbol):
    """A certificate proving the target symbol zero, or None if a tracial
    state may keep it positive: the one-target case of the shared round.
    Raises Undetermined when the reduced system leaves the target
    unbounded or does not mention it."""
    if target not in eqs.nonneg:
        raise ValueError(f"{target.label()} is not in the nonnegative index")
    cert, proven, undetermined = _shared_certificates(eqs, [target])
    if undetermined:
        raise Undetermined(target.label())
    return cert if target in proven else None


def _closed_form_certificate(P: Presentation):
    """The closed-form certificate, not yet verified: it claims the sum of
    (Q_j - Q_k)^2 / Q_k tr(u_jk u_jk*) over Q_j != Q_k, one weight per pair
    of Q-classes, each tr(x x*) summed from the term pairs of x.  Its
    multipliers sit on the diagonal entries `P.record` names, minus each
    weight (equation i, 1 - entry, is rel[i]).  Where the plain pair is not
    written, UU*-I[j,j] is QUbarQ^-1Ut-I[pi(j),pi(j)] and U*U-I[j,j] is
    UtQUbarQ^-1-I[pi(j),pi(j)], at scale 1.  None when the claim is empty
    (one eigenvalue of Q), P has no record or an entry is not stored."""
    n = len(P.u)
    q = [P.q.entry(j, j) for j in range(n)]
    weights = {a: {b: ratio(mul(a - b, a - b), b) for b in set(q) if b != a} for a in set(q)}
    coefficients = {}
    for j, row in enumerate(P.u):
        for w, x in ((weights[q[j]].get(q[k]), x) for k, x in enumerate(row)):
            if w:
                add_terms(coefficients, ((cyclic_canonical(a + word_adjoint(b)), mul(w, mul(c, e)))
                                         for a, c in x.terms() for b, e in x.terms() if a or b))
    record = P.record
    if not coefficients or record is None:
        return None
    identities, origins = record
    where = {o: i for i, o in enumerate(origins)}
    uu, su, tw, tt = IDENTITIES[:4]
    plain = uu in identities
    multipliers = {}
    for j, pj in enumerate(range(n) if plain else _monomial_decode(P.f)[0]):
        for key, weight in (((tt, j, j), q[j]), ((uu, j, j) if plain else (tt, pj, pj), -q[j]),
                            ((su, j, j) if plain else (tw, pj, pj), q[j]), ((tw, j, j), -q[j])):
            i = where.get(key)
            if i is None:
                return None
            add_terms(multipliers, ((i, -weight),))
    return Certificate(tuple(sorted(multipliers.items())), coefficients)


class KacReport(NamedTuple):
    """What `kac_fixpoint` concluded: the equations the certificate cites,
    the one closed-form certificate (None when nothing is forced), the
    generators whose tr[g g*] its verification returned, the symbols of the
    survivors no character reaches, and their `numeric.CharacterCover`."""

    equations: TraceEquationSet
    certificate: Certificate | None
    forced: tuple  # (GeneratorId, ...) in P's order
    undetermined: tuple
    cover: CharacterCover

    @property
    def iterations(self) -> int:
        """2 when the closed-form round forced something (it and the
        character cover), else 1."""
        return 1 + bool(self.forced)


def kac_fixpoint(P: Presentation):
    """Force by the closed form, then witness the survivors by characters.

    One round, no fixpoint: the closed-form certificate claims the
    coefficients (Q_j - Q_k)^2 / Q_k and cites the traced diagonal entries;
    its verification recombines them once, checks the claim and forces
    every generator whose tr[g g*] it returns, none when Q has one
    eigenvalue or P has no record of those entries.  When
    something dies, P is quotiented.  Then `witness_characters` looks for
    a verified character of P nonzero on each survivor; a survivor none
    reaches (one outside P's fundamental matrix among them) is
    undetermined.  Sound by construction: every tracial state satisfies
    the derived equations, so certified symbols vanish and the quotient
    stays above the Kac quotient.  Returns (KacReport, final presentation).
    """
    eqs = derive_trace_equations(P)
    cert = _closed_form_certificate(P)
    proven = verify_certificate(cert, eqs) if cert else frozenset()
    forced = tuple(g for g in P.generators if generator_symbol(g) in proven)
    final = quotient_by_zero(P, forced) if forced else P
    cover = witness_characters(P, final.generators)
    uncovered = set(cover.uncovered)
    undetermined = tuple(generator_symbol(g) for g in final.generators if g in uncovered)
    return KacReport(eqs, cert, forced, undetermined, cover), final
