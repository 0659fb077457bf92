"""Numeric witnesses for presentations, and exact characters.

A character is a one-dimensional *-representation.  The characters here
send the fundamental matrix to a signed permutation matrix V that commutes
with Q (F*F for the orthogonal kinds) and, for the orthogonal kinds, with
F.  There is one candidate per offset s = 0 .. max |C| - 1, in that fixed
order with no randomness: offset s shifts every eigenvalue class C of Q
cyclically by s, and F's partner class by the conjugate shift, so s = 0
is the identity (the counit).  Every position inside a class is nonzero
in exactly one of the first |C| offsets, so the max |C| candidates are
together nonzero on every such position, and no fewer can be: a row of a
largest class has max |C| of them, and a permutation meets one.
`verify_character` re-checks each one exactly over the integers, reading
only the presentation and V: u by `AlgElement.at(V)`, the package's one
evaluation at a scalar matrix, and the identities in closed form.  A
character nonzero on a generator witnesses that the generator survives in
every quotient that keeps a character, the Kac and the RFD quotient among
them.

Floating point lives only in the rest of this module, in plain Python
complex numbers.  Every assignment is one-dimensional: a complex value per
generator.  Residuals measure how far an assignment is from satisfying
every relation (the absolute value of each relation's sum); classical
points evaluate the fundamental matrix at a scalar matrix V, accepted when
its Frobenius-norm defects are below the threshold.  The twist m conj(V)
m^-1 they check, m = F or Q, is read off m's nonzeros d_j = m[j,pi(j)]
(`Presentation.monomial`; pi is the identity for the diagonal Q): entry
(j,k) is (d_j/d_k) conj(V[pi(j)][pi(k)]), the reality entry's formula.
`rep_search` returns the first verified character as such an assignment,
so its residual is exactly 0.  Acceptance threshold 1e-10, witness
threshold 1e-8.
"""

from __future__ import annotations

import math
from numbers import Integral, Number
from typing import NamedTuple

from .presentations import Presentation

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
    missing = sorted(g.label() for g in P.generators if g not in assignment.values)
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


def _twist(monomial, V):
    """m conj(V) m^-1 for a monomial exact m given as (pi, d), d_j = m[j,pi(j)]
    (`Presentation.monomial`, or the identity and Q's diagonal): entry (j,k)
    is (d_j/d_k) conj(V[pi(j)][pi(k)]).  Where that V entry is 0 the entry is
    0, and d_j/d_k, maybe too large for a float, is not formed; elsewhere a
    d_j/d_k past the float range reads as inf, so a defect built on it is inf
    or NaN and fails."""
    pi, d = monomial

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
    n = len(P.u)
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
        defect = _distance(V, _twist(P.monomial, V))
        if not defect <= ACCEPT_TOL:
            raise ValueError(
                f"V fails the reality condition V = F conj(V) F^-1: defect {defect:.3e}"
            )
    else:
        defect = _unitary_defect(_twist((range(n), [P.q.entry(j, j) for j in range(n)]), V), eye)
        if not defect <= ACCEPT_TOL:
            raise ValueError(
                f"Q conj(V) Q^-1 is not unitary: defect {defect:.3e} exceeds {ACCEPT_TOL:.1e}"
            )
    return _point(P, V)


def _point(P: Presentation, V) -> NumAssignment:
    return NumAssignment({g: complex(V[g.row][g.col]) for g in P.generators})


class CharacterError(Exception):
    """A character failed exact re-verification."""


def verify_character(P: Presentation, V) -> bool:
    """Check exactly that u(j,k) -> V[j][k] is a character of P.

    V must be an N x N signed permutation matrix of integers, V[j][sigma(j)]
    = s_j, P in builder form (`P.defining`), every entry of u must evaluate
    to V's, and V must satisfy the identities, in closed form: the plain
    pair always holds, the twisted pair iff Q_j = Q_sigma(j), V = F V F^-1
    iff pi sigma = sigma pi and s_j d_sigma(j) = d_j s_pi(j), d_j =
    F[j,pi(j)].  Reads only P and V, never the enumerator, and evaluates
    no relation: raises CharacterError naming what fails.
    """
    u = P.u
    n = len(u)
    try:
        square = len(V) == n and all(len(row) == n for row in V)
    except TypeError:
        square = False
    if not square:
        raise CharacterError(f"V is not {n}x{n}")
    for row in V:
        if any(isinstance(x, bool) or not isinstance(x, Integral) for x in row):
            raise CharacterError("V has a non-integer entry")
    for line in (*V, *zip(*V)):
        if sorted(abs(x) for x in line) != [0] * (n - 1) + [1]:
            raise CharacterError("V is not a signed permutation matrix")
    if not P.defining:
        raise CharacterError("P is not in builder form: its relations are not the defining ones")
    for j in range(n):
        for k in range(n):
            if u[j][k].at(V) != V[j][k]:
                raise CharacterError(f"fundamental entry ({j + 1},{k + 1}) differs from V")
    sigma = [next(k for k, x in enumerate(row) if x) for row in V]
    pi, d = P.monomial or (None, None)
    for j, sj in enumerate(sigma):
        if P.q.entry(j, j) != P.q.entry(sj, sj):
            raise CharacterError(f"V breaks QUbarQ^-1Ut-I[{j + 1},{j + 1}]: "
                                 f"Q_{j + 1} != Q_{sj + 1}")
        if d and (pi[sj] != sigma[pi[j]] or V[j][sj] * d[sj] != d[j] * V[pi[j]][sigma[pi[j]]]):
            raise CharacterError(f"V breaks U-FUbarF^-1[{j + 1},{sj + 1}]: V F != F V")
    return True


def _candidates(P: Presentation):
    """One signed permutation matrix per offset s = 0 .. max |C| - 1, the
    identity first.

    Offset s shifts every eigenvalue class C of Q, in sorted order, by
    sigma: c_i -> c_(i+s mod |C|).  Where F's partner class pi(C) differs
    from C, pi(C) takes the conjugate shift pi sigma pi; F[j, pi(j)] is the
    nonzero of row j (pi is the identity for the unitary kind).  Where
    pi(C) = C, pi commutes with the shift: it is the identity on a unitary
    class and on the trailing block, and translation by m on the sorted
    q = 1 block of case II.  Offset s is nonzero at (c_i, c_k) exactly when
    s = k - i mod |C|, so one offset below |C| reaches each position inside
    C, and the same one its image in pi(C).  The signs keep +1 on the
    smaller index r of each pi-orbit and put sign(d(sigma r) / d(r)) on
    pi(r), d(j) = F[j, pi(j)], which is what V F = F V needs once sigma
    commutes with pi.
    """
    q, n = P.q, len(P.u)
    pi, d = P.monomial or (range(n), None)
    classes = {}
    for j in range(n):
        classes.setdefault(q.entry(j, j), []).append(j)
    for s in range(max(map(len, classes.values()))):
        perm, shifted = list(range(n)), set()
        for members in classes.values():
            if members[0] in shifted:
                continue  # the partner of a class shifted before
            for i, c in enumerate(members):
                perm[c] = members[(i + s) % len(members)]
                perm[pi[c]] = pi[perm[c]]
            shifted.update(pi[c] for c in members)
        signs = [1] * n
        for r in range(n):
            if r < pi[r] and d[perm[r]] * d[r] < 0:
                signs[pi[r]] = -1
        yield tuple(tuple(signs[j] if k == perm[j] else 0 for k in range(n)) for j in range(n))


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
    verified.  A wanted letter that is no generator of P raises
    ValueError naming it."""
    left = set(wanted)
    unknown = left - set(P.generators)
    if unknown:
        raise ValueError(f"unknown generators: {sorted(g.label() for g in unknown)}")
    found, witness, tried = [], {}, 0
    for V in _candidates(P):
        if not left:
            break
        tried += 1
        hits = {g for g in left if V[g.row][g.col]}
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
