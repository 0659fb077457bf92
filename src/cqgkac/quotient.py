"""Quotients by zero-sent generators, expected Kac-quotient targets,
presentation matching, and the bounded two-sided relation ideal.

The paper's Kac-quotient theorem gives one free factor per diagonal block
of the standard form: Pol(U_M^+) for a block with q < 1 and multiplicity
M, Pol(O_J^+) for the q = 1 block of case II, Pol(O_t^+) for the trailing
identity block of case I.  Each factor sits at its block's start row
`BlockSpec.offsets[i]`: its letter u(j,k) is the source letter
u(o + j, o + k), o that offset.  The target is a `KacTarget`, a relation
set over source letters, not a `Presentation`.

Matching is exact: the generator sets are compared first, and when they
differ the match is "structural"; else the canonical relation sets are
compared as sets.  Either way what is left on each side is reported, and
the match fails unless nothing is.

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

from .algebra import AlgElement, ScalarMatrix, renamer
from .linalg import SparseEchelon, WordIndex
from .presentations import (
    BlockSpec,
    Presentation,
    build_universal_orthogonal,
    build_universal_unitary,
    symplectic_matrix,
)


def quotient_by_zero(P: Presentation, gens) -> Presentation:
    """Send the listed generators (and their adjoints) to zero: drop every
    word containing one of their letters, then re-canonicalize."""
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
        [keep(r) for r in P.relations],
        [[keep(x) for x in row] for row in P.u], P.q, P.f, label=P.label,
    )


class KacTarget(NamedTuple):
    """The free product of the Kac factors, each at its block's letters."""

    label: str
    generators: tuple
    relations: tuple


def expected_kac_target(spec: BlockSpec) -> KacTarget:
    """The free-product Kac target of a block spec.

    One free factor per block of the standard layout, in block order:

        block with q < 1 (any kind), multiplicity M   -> Pol(U_M^+)
        q = 1 block of case II (`unit_block`), M      -> Pol(O_J^+), J of size 2M
        trailing identity block of case I, size t     -> Pol(O_t^+)

    Factor i sits at row and column `spec.offsets[i]` of the source: its
    letter u(j,k) becomes u(offsets[i] + j, offsets[i] + k), keeping its
    kind (plain or self-adjoint).  The shift keeps letter order, so each
    factor's canonical relations stay canonical.
    """
    unit = spec.unit_block
    parts = [
        build_universal_orthogonal(symplectic_matrix(b.m)) if b is unit
        else build_universal_unitary(ScalarMatrix.identity(b.m))
        for b in spec.blocks
    ]
    if spec.trailing:
        parts.append(build_universal_orthogonal(ScalarMatrix.identity(spec.trailing)))
    gens, rels = [], []
    for part, o in zip(parts, spec.offsets):
        shift = {g: g._replace(row=o + g.row, col=o + g.col) for g in part.generators}
        gens.extend(shift.values())
        rels.extend(map(renamer(shift), part.relations))
    label = " * ".join(p.label for p in parts)
    rels.sort(key=AlgElement.sort_key)
    return KacTarget(label, tuple(sorted(gens)), tuple(rels))


class MatchVerdict(NamedTuple):
    """Outcome of comparing a derived quotient with its target; the
    `unmatched_*` hold generators in mode "structural", else relations."""

    matched: bool
    mode: str
    unmatched_derived: tuple
    unmatched_target: tuple


def match_presentations(P, T) -> MatchVerdict:
    """Compare P and T, each a `Presentation` or a `KacTarget`: first the
    generator sets, then the canonical relation sets.  Each side's
    leftovers are sorted."""
    mode, key, left, right = "structural", None, set(P.generators), set(T.generators)
    if left == right:
        mode, key = "exact-set", AlgElement.sort_key
        left, right = set(P.relations), set(T.relations)
    only_left = tuple(sorted(left - right, key=key))
    only_right = tuple(sorted(right - left, key=key))
    return MatchVerdict(not only_left and not only_right, mode, only_left, only_right)


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
