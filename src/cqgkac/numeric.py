"""Numeric witnesses for presentations, and exact characters.

A character is a one-dimensional *-representation.  The characters here
send the fundamental matrix to a signed permutation matrix V that commutes
with Q (F*F for the orthogonal kinds) and, for the orthogonal kinds, with
F.  They are enumerated in a fixed order with no randomness: the identity
(the counit), then each transposition inside an eigenvalue class of Q
together with its F-partner transposition, then the half-swap
[[0, I], [-I, 0]] of a class that F maps onto itself (the q = 1 block of
case II), then the transpositions again with the signs F asks for.  There
are at most N^2 + 1 candidates, never all of the signed permutations.
`verify_character` re-checks each one exactly over the integers, reading
only the presentation and V.  A character nonzero on a generator witnesses
that the generator survives in every quotient that keeps a character,
the Kac and the RFD quotient among them.

Floating point lives only in the rest of this module, in plain Python
complex numbers.  Every assignment is one-dimensional: a complex value per
generator.  Residuals measure how far an assignment is from satisfying
every relation (the absolute value of each relation's sum); classical
points evaluate the fundamental matrix at a scalar matrix V, accepted when
its Frobenius-norm defects are below the threshold.  The twist m conj(V)
m^-1 they check, m = F or Q, is read off m's nonzeros d_j = m[j,pi(j)] (pi
is the identity for the diagonal Q): entry (j,k) is (d_j/d_k)
conj(V[pi(j)][pi(k)]), the reality entry's formula.  `rep_search` returns
the first verified character as such an assignment, so its residual is
exactly 0.  Acceptance threshold 1e-10, witness threshold 1e-8.
"""

from __future__ import annotations

import math
from itertools import combinations
from numbers import Integral, Number
from typing import NamedTuple

from .presentations import Presentation, _monomial_decode

ACCEPT_TOL = 1e-10
SEARCH_TOL = 1e-8


class NumAssignment(NamedTuple):
    """A complex value for each plain generator; starred letters evaluate
    as complex conjugates."""

    values: dict


class ResidualReport(NamedTuple):
    residuals: tuple
    max_residual: float


def eval_residual(P: Presentation, assignment: NumAssignment) -> ResidualReport:
    """Absolute residual of every relation under the assignment, its terms
    summed in order, then |x - conj(x)| for each self-adjoint generator.
    Only a word with a nonzero value touches its coefficient, so a
    coefficient too large for a float counts only where it matters."""
    needed = {g.plain() for r in P.relations for g in r.letters()}
    needed |= set(P.generators)
    missing = sorted(g.label() for g in needed if g not in assignment.values)
    if missing:
        raise ValueError(f"assignment misses generators: {missing}")
    values = {}
    for g, x in assignment.values.items():
        if not isinstance(x, Number):
            raise ValueError(f"value for {g.label()} is not a number: {x!r}")
        values[g] = complex(x)
    residuals = []
    for r in P.relations:
        acc = 0j
        for w, c in r.terms():
            value = 1 + 0j
            for g in w:
                x = values[g.plain()]
                value *= x.conjugate() if g.star else x
            if value:
                acc += float(c) * value
        residuals.append(abs(acc))
    residuals += [abs(2 * values[g].imag) for g in P.generators if g.selfadjoint]
    top = max(residuals, default=0.0)
    return ResidualReport(tuple(residuals), top)


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _adjoint(a):
    return [[x.conjugate() for x in col] for col in zip(*a)]


def _twist(m, V):
    """m conj(V) m^-1 for a monomial exact m (F, or the diagonal Q): entry
    (j,k) is (d_j/d_k) conj(V[pi(j)][pi(k)]), d_j = m[j,pi(j)].  Where that V
    entry is 0 the entry is 0, and d_j/d_k, maybe too large for a float, is
    not formed; elsewhere a d_j/d_k past the float range reads as inf, so a
    defect built on it is inf or NaN and fails."""
    pi, d = _monomial_decode(m)

    def scale(j, k):
        try:
            return float(d[j] / d[k])
        except OverflowError:
            return math.inf

    return [
        [scale(j, k) * V[pj][pk].conjugate() if V[pj][pk] else 0j for k, pk in enumerate(pi)]
        for j, pj in enumerate(pi)
    ]


def _distance(a, b):
    """Frobenius norm of a - b."""
    return math.sqrt(sum(abs(x - y) ** 2 for ra, rb in zip(a, b) for x, y in zip(ra, rb)))


def _unitary_defect(a, eye):
    return max(_distance(_mul(a, _adjoint(a)), eye), _distance(_mul(_adjoint(a), a), eye))


def classical_point(P: Presentation, V) -> NumAssignment:
    """One-dimensional evaluation at a scalar matrix V, any N x N nested
    sequence of numbers.

    V must be numerically unitary; orthogonal-type presentations also need
    V = F conj(V) F^-1, unitary-type ones need Q conj(V) Q^-1 unitary.
    Each defect is a Frobenius norm, never below the operator norm, and a
    NaN defect fails.  Rejections carry the violated condition and its
    measured defect.
    """
    n = P.u.rows
    try:
        V = [[complex(x) for x in row] for row in V]
    except TypeError as exc:
        raise ValueError(f"V is not a {n}x{n} matrix of numbers: {exc}") from None
    widths = sorted({len(row) for row in V})
    if len(V) != n or widths != [n]:
        shape = (len(V), *widths) if len(widths) <= 1 else f"ragged, row lengths {widths}"
        raise ValueError(f"V has shape {shape}, expected {(n, n)}")
    eye = [[complex(j == k) for k in range(n)] for j in range(n)]
    defect = _unitary_defect(V, eye)
    if not defect <= ACCEPT_TOL:
        raise ValueError(f"V is not unitary: defect {defect:.3e} exceeds {ACCEPT_TOL:.1e}")
    if P.f is not None:
        defect = _distance(V, _twist(P.f, V))
        if not defect <= ACCEPT_TOL:
            raise ValueError(
                f"V fails the reality condition V = F conj(V) F^-1: defect {defect:.3e}"
            )
    else:
        defect = _unitary_defect(_twist(P.q, V), eye)
        if not defect <= ACCEPT_TOL:
            raise ValueError(
                f"Q conj(V) Q^-1 is not unitary: defect {defect:.3e} exceeds {ACCEPT_TOL:.1e}"
            )
    return _point(P, V)


def _point(P: Presentation, V) -> NumAssignment:
    return NumAssignment({g: complex(V[g.row][g.col]) for g in P.generators})


class CharacterError(Exception):
    """A character failed exact re-verification."""


def _value(element, V):
    """The element evaluated at u(j,k) -> V[j][k]; V is an integer matrix
    (real, so u(j,k)* goes to the same entry).  Each word's letters multiply
    as ints, stopping at 0, and only a nonzero word touches its
    coefficient."""
    total = 0
    for w, c in element.terms():
        x = 1
        for g in w:
            x *= V[g.row][g.col]
            if not x:
                break
        else:
            total += x * c
    return total


def verify_character(P: Presentation, V) -> bool:
    """Check exactly that u(j,k) -> V[j][k] is a character of P.

    V must be an N x N signed permutation matrix of integers, N the size of
    P's one fundamental matrix.  Every relation must vanish at V, and every
    entry of the fundamental matrix (whose eliminated positions are
    expressions in the kept generators) must evaluate to V's entry.  Reads
    only P and V, never the enumerator: raises CharacterError naming the
    failing rel[i] or position, or a generator outside the N x N layout.
    """
    u = P.u
    n = u.rows
    if len(V) != n or any(len(row) != n for row in V):
        raise CharacterError(f"V is not {n}x{n}")
    for row in V:
        if any(isinstance(x, bool) or not isinstance(x, Integral) for x in row):
            raise CharacterError("V has a non-integer entry")
    for line in (*V, *zip(*V)):
        if sorted(abs(x) for x in line) != [0] * (n - 1) + [1]:
            raise CharacterError("V is not a signed permutation matrix")
    for g in P.generators:
        if not (g.row < n and g.col < n):
            raise CharacterError(f"{g.label()} lies outside the {n}x{n} fundamental matrix")
    for i, r in enumerate(P.relations):
        value = _value(r, V)
        if value:
            raise CharacterError(f"rel[{i}] evaluates to {value}, not 0")
    for j in range(n):
        for k in range(n):
            if _value(u.entry(j, k), V) != V[j][k]:
                raise CharacterError(f"fundamental entry ({j + 1},{k + 1}) differs from V")
    return True


def _candidates(P: Presentation):
    """Signed permutation matrices in enumeration order, each once.

    The F-partner of a transposition (a b) is (pi(a) pi(b)), where F[j,
    pi(j)] is the nonzero of row j (pi is the identity for the unitary
    kind).  Signs start at +1; the signs F asks for keep +1 on the smaller
    index of each pi-orbit r and put sign(d(sigma r) / d(r)) on pi(r), d(j)
    = F[j, pi(j)], which is what V F = F V needs once sigma commutes with pi.
    """
    q, f = P.q, P.f
    n = q.rows
    pi, d = _monomial_decode(f) if f else (list(range(n)), None)
    classes = {}
    for j in range(n):
        classes.setdefault(q.entry(j, j), []).append(j)

    def matrix(perm, signs):
        return tuple(tuple(signs[j] if k == perm[j] else 0 for k in range(n)) for j in range(n))

    def f_signs(perm):
        signs = [1] * n
        for r in range(n):
            if r < pi[r] and d[perm[r]] * d[r] < 0:
                signs[pi[r]] = -1
        return signs

    transpositions = []
    for members in classes.values():
        for a, b in combinations(members, 2):
            perm = list(range(n))
            perm[a], perm[b] = b, a
            if {pi[a], pi[b]} != {a, b}:
                perm[pi[a]], perm[pi[b]] = pi[b], pi[a]
            transpositions.append(perm)
    plus = [1] * n
    stages = [(list(range(n)), plus)]
    stages += [(perm, plus) for perm in transpositions]
    for members in classes.values():
        if any(pi[j] != j for j in members) and {pi[j] for j in members} == set(members):
            half = [pi[j] if j in members else j for j in range(n)]
            stages.append((half, f_signs(half)))
    if f is not None:
        stages += [(perm, f_signs(perm)) for perm in transpositions]
    seen = set()
    for perm, signs in stages:
        V = matrix(perm, signs)
        if V not in seen:
            seen.add(V)
            yield V


def characters(P: Presentation):
    """The candidates that pass verify_character, in enumeration order; the
    identity (the counit) comes first."""
    for V in _candidates(P):
        try:
            verify_character(P, V)
        except CharacterError:
            continue
        yield V


class CharacterCover(NamedTuple):
    """Characters witnessing the wanted generators.

    characters : verified signed permutation matrices (tuples of int rows),
                 each nonzero on a wanted generator no earlier one reached.
    witness    : wanted generator -> index of the character nonzero on it.
    uncovered  : wanted generators no candidate reached, sorted.
    tried      : candidates drawn from the enumeration.
    """

    characters: tuple
    witness: dict
    uncovered: tuple
    tried: int


def witness_characters(P: Presentation, wanted) -> CharacterCover:
    """Enumerate until every wanted generator has a character nonzero on
    it; a candidate zero on every wanted generator still uncovered is not
    verified.  A generator outside P's fundamental matrix is never
    reached."""
    n = P.u.rows
    left = set(wanted)
    found, witness, tried = [], {}, 0
    for V in _candidates(P):
        if not left:
            break
        tried += 1
        hits = {g for g in left if g.row < n and g.col < n and V[g.row][g.col]}
        if not hits:
            continue
        try:
            verify_character(P, V)
        except CharacterError:
            continue
        witness.update((g, len(found)) for g in hits)
        left -= hits
        found.append(V)
    return CharacterCover(tuple(found), witness, tuple(sorted(left)), tried)


def rep_search(P: Presentation):
    """The first verified character as a one-dimensional assignment, or
    None when no candidate passes.  Exact, so its residual is 0 up to
    rounding."""
    V = next(characters(P), None)
    return None if V is None else _point(P, V)
