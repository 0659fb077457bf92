"""Quotients by zero-sent generators, expected Kac-quotient targets,
presentation matching, and the bounded two-sided relation ideal.

The paper's Kac-quotient theorem gives one free factor per diagonal block
of the standard form: Pol(U_M^+) for a block with q < 1 and multiplicity
M, Pol(O_J^+) for the q = 1 block of case II, Pol(O_t^+) for the trailing
identity block of case I.  Each factor sits at its block's start row
`BlockSpec.offsets[i]`: its letter u(j,k) is the source letter
u(o + j, o + k), o that offset.  The target is a `KacTarget`: its
factors in builder form, (generators, u, Q, F), at their offsets; its
relations over source letters are written only when read.

A presentation in builder form has as relations the canonical entries of
its identities over u (`presentations`); when every reality entry is 0,
its relation classes are those of the four unitarity identities' entries.

  (a) Sending letters to 0 is a *-algebra map that commutes with taking
      entries of identities over u: for P in builder form,
      `quotient_by_zero(P, gens)` is the builder form of the zeroed u,
      with P's Q and F.
  (b) Let P and the factors of T be in builder form.  A factor of size m
      at offset o has the block of rows [o, o + m) and, when P has F and
      the factor has none, the partner rows pi([o, o + m)).  P and T have
      one relation set when
        * if P has F: pi is an involution, Q = F*F, and every reality
          entry u(j,k) - (d_j/d_k) u(pi(j),pi(k))* of P's u is 0 (the
          reality partners, with their scale);
        * on each block, P's u is the factor's u shifted, and P's Q, and
          its F where the factor has one (pi keeping the block), are the
          factor's up to a scalar;
        * blocks and partner rows partition the rows, and u is 0 where
          row and column lie in different parts.
      Then every identity entry across two parts is 0.  On a block the
      entries are the factor's: they read Q through its ratios only, and
      the reality entries F through the ratios of d.  On partner rows each
      is a nonzero multiple of one on its block, by the conjugation of the
      `presentations` docstring.

Matching is exact: the generator sets are compared first, and when they
differ the match is "structural"; else the canonical relation sets are
compared, equal sets decided by (b) with no relation written.  On any
difference both sets are written and compared, so what is left on each
side is reported, and the match fails unless nothing is.

The bounded ideal of degree d is the span of the words-times-relations
w·r·w' with |w| + deg r + |w'| <= d, over the relations and their
adjoints.  Its rows live on the integer word columns of a `WordIndex` over
the given letters, so column order is `word_key` order.  Each row is built
by concatenation: the id of w·v·w' is computed from the ids of its parts,
and its coefficients are the relation's primitive integer coefficients.
The rows go into one fraction-free `SparseEchelon`, and membership is exact
(see `linalg`).
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .algebra import AlgElement, GeneratorId, ScalarMatrix, mul, renamer
from .linalg import SparseEchelon, WordIndex
from .presentations import (
    BlockSpec,
    Presentation,
    _unreal,
    build_universal_orthogonal,
    build_universal_unitary,
    symplectic_matrix,
)


def quotient_by_zero(P: Presentation, gens) -> Presentation:
    """Send the listed generators (and their adjoints) to zero: drop every
    word containing one of their letters.  A P in builder form gives the
    builder form of the zeroed u, with P's Q and F (module docstring, (a));
    any other P has its zeroed relations re-canonicalized."""
    gens = {g.plain() for g in gens}
    unknown = gens - set(P.generators)
    if unknown:
        twins = {g._replace(selfadjoint=not g.selfadjoint) for g in unknown} & set(P.generators)
        kinds = "".join(f"; {g.label()} is {'self-adjoint' if g.selfadjoint else 'plain'} here"
                        for g in sorted(twins))
        raise ValueError(f"unknown generators: {sorted(g.label() for g in unknown)}{kinds}")
    dead = gens | {g.adjoint() for g in gens}

    def keep(e):
        return AlgElement._wrap({w: c for w, c in e.terms() if dead.isdisjoint(w)})

    return Presentation(
        [g for g in P.generators if g not in gens],
        None if P.defining else [keep(r) for r in P.relations],
        [[keep(x) for x in row] for row in P.u], P.q, P.f, label=P.label,
    )


class KacTarget(NamedTuple):
    """The free product of the Kac factors: each factor in builder form,
    with the offset of its block."""

    label: str
    generators: tuple
    factors: tuple  # ((offset, Presentation), ...)

    @property
    def relations(self):
        """The factors' relations at their blocks' letters, sorted; written
        on every read."""
        rels = []
        for o, part in self.factors:
            rels.extend(map(renamer(_shift(part, o)), part.relations))
        return tuple(sorted(rels, key=AlgElement.sort_key))


def _shift(part, o):
    """The letter map of a factor at offset o: u(j,k) to u(o + j, o + k)."""
    return {g: GeneratorId(o + g.row, o + g.col, False, g.selfadjoint) for g in part.generators}


def expected_kac_target(spec: BlockSpec) -> KacTarget:
    """The free-product Kac target of a block spec.

    One free factor per block of the standard layout, in block order:

        block with q < 1 (any kind), multiplicity M   -> Pol(U_M^+)
        q = 1 block of case II (`unit_block`), M      -> Pol(O_J^+), J of size 2M
        trailing identity block of case I, size t     -> Pol(O_t^+)

    Factor i sits at row and column `spec.offsets[i]` of the source: its
    letter u(j,k) becomes u(offsets[i] + j, offsets[i] + k), keeping its
    kind (plain or self-adjoint).  The shift keeps letter order, so each
    factor's canonical relations stay canonical.  The factors come from
    their builders, independently of any source, and write no relations
    until `relations` is read.
    """
    unit = spec.unit_block
    parts = [
        build_universal_orthogonal(symplectic_matrix(b.m)) if b is unit
        else build_universal_unitary(ScalarMatrix.identity(b.m))
        for b in spec.blocks
    ]
    if spec.trailing:
        parts.append(build_universal_orthogonal(ScalarMatrix.identity(spec.trailing)))
    factors = tuple(zip(spec.offsets, parts))
    gens = sorted(h for o, part in factors for h in _shift(part, o).values())
    return KacTarget(" * ".join(p.label for p in parts), tuple(gens), factors)


class MatchVerdict(NamedTuple):
    """Outcome of comparing a derived quotient with its target; the
    `unmatched_*` hold generators in mode "structural", else relations."""

    matched: bool
    mode: str
    unmatched_derived: tuple
    unmatched_target: tuple


def match_presentations(P, T) -> MatchVerdict:
    """Compare P and T, each a `Presentation` or a `KacTarget`: first the
    generator sets, then the canonical relation sets.  When the generators
    agree, a builder-form presentation and a target whose blocks split it
    by (b) (module docstring) have equal relation sets, and none is
    written; otherwise the sets are written and compared.  Each side's
    leftovers are sorted."""
    mode, key, left, right = "structural", None, set(P.generators), set(T.generators)
    if left == right:
        mode, key = "exact-set", AlgElement.sort_key
        if _splits(P, T) or _splits(T, P):
            return MatchVerdict(True, mode, (), ())
        left, right = set(P.relations), set(T.relations)
    only_left = tuple(sorted(left - right, key=key))
    only_right = tuple(sorted(right - left, key=key))
    return MatchVerdict(not only_left and not only_right, mode, only_left, only_right)


def _splits(P, T) -> bool:
    """Whether T's blocks split the builder-form P by (b) (module
    docstring), so that P and T have one relation set."""
    if not (isinstance(P, Presentation) and isinstance(T, KacTarget) and P.defining):
        return False
    u, n = P.u, len(P.u)
    q = [P.q.entry(j, j) for j in range(n)]
    pi, d = P.monomial or (None, None)
    if pi is not None and (_unreal(u, P.monomial) or not all(
            pi[pj] == j and q[pj] == mul(d[j], d[j]) for j, pj in enumerate(pi))):
        return False
    region = [None] * n
    for i, (o, part) in enumerate(T.factors):
        m, shift = len(part.u), renamer(_shift(part, o))
        rows = range(o, o + m)
        if not 0 <= o <= n - m or not part.defining or any(
                u[o + j][o + k] != shift(x) for j, row in enumerate(part.u)
                for k, x in enumerate(row)) or any(
                mul(q[o + j], part.q.entry(0, 0)) != mul(q[o], part.q.entry(j, j))
                for j in range(m)):
            return False
        claimed = [(j, i) for j in rows]
        if part.monomial is not None:
            sigma, e = part.monomial
            if pi is None or any(pi[o + j] != o + sigma[j] or mul(d[o + j], e[0]) != mul(d[o], e[j])
                                 for j in range(m)):
                return False
        elif pi is not None:
            claimed += [(pi[j], ~i) for j in rows]
        for j, owner in claimed:
            if region[j] is not None:
                return False
            region[j] = owner
    return None not in region and all(
        region[j] == region[k] or x.is_zero() for j, row in enumerate(u) for k, x in enumerate(row))


def _with_adjoints(plain):
    """Each plain letter followed by its adjoint; a self-adjoint letter once."""
    return list(dict.fromkeys(h for g in plain for h in (g, g.adjoint())))


def _primitive_terms(index: WordIndex, r: AlgElement):
    """(length, base-n value, coefficient) per word of r, with the
    coefficients scaled to coprime integers."""
    den = lcm(*(c.denominator for _w, c in r.terms()))
    ints = {w: c.numerator * (den // c.denominator) for w, c in r.terms()}
    g = gcd(*ints.values())
    return [(len(w), index.value(w), c // g) for w, c in ints.items()]


def bounded_ideal_echelon(rels, letters, d: int) -> SparseEchelon:
    """Echelon basis of the two-sided ideal of `rels` truncated at degree d.

    Columns are the ids of `WordIndex(letters)`; every relation letter must
    be among `letters`.  The relations are taken in the given order, each
    followed by its adjoint unless the two are equal; on canonical `rels`
    no other two coincide, and a repeated row would be dependent, which
    `SparseEchelon.add` rejects.  For each of them rows are tried in the
    order: left word, right word, with words of each length in
    `itertools.product` order over `letters`.
    """
    index = WordIndex(letters)
    n = index.n
    ech = SparseEchelon()
    closed = []
    for r in rels:
        star = r.adjoint()
        closed += (r,) if star == r else (r, star)
    digits = [index.digit[g] for g in letters]
    values = [[0]]  # base-n values of the words of each length, in product order
    for r in closed:
        room = d - r.degree()
        if room < 0:
            continue
        while len(values) <= room:
            values.append([v * n + x for v in values[-1] for x in digits])
        terms = _primitive_terms(index, r)
        for a in range(room + 1):
            for left in values[a]:
                for b in range(room - a + 1):
                    shift = n ** b
                    heads = [
                        (index.offset(a + length + b) + (left * n ** length + v) * shift, c)
                        for length, v, c in terms
                    ]
                    for right in values[b]:
                        ech.add({head + right: c for head, c in heads})
    return ech
