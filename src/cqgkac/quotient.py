"""Quotients by zero-sent generators, expected Kac-quotient targets,
presentation matching, and the bounded two-sided relation ideal.

The paper's Kac-quotient theorem gives one free factor per diagonal block
of the standard form: Pol(U_M^+) for a block with q < 1 and multiplicity
M, Pol(O_J^+) for the q = 1 block of case II, Pol(O_t^+) for the trailing
identity block of case I.  Each factor sits at its block's start row
`BlockSpec.offsets[i]`, so the source letter u(o + j, o + k), o that
offset, is renamed to the factor's letter u(j,k).  The target is a
`KacTarget`, a relation set over factor-tagged letters, not a `Presentation`.

Matching is exact: after the structural renaming both relation sets are
canonicalized and compared as sets.  Relations left on either side are
reported, and the match fails.

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

from .algebra import AlgElement, AlgMatrix, ScalarMatrix
from .linalg import SparseEchelon, WordIndex
from .presentations import (
    BlockSpec,
    Presentation,
    build_universal_orthogonal,
    build_universal_unitary,
    canonicalize_relations,
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
        return AlgElement({w: c for w, c in e.terms() if dead.isdisjoint(w)})

    u = AlgMatrix([[keep(P.u.entry(j, k)) for k in range(P.u.cols)] for j in range(P.u.rows)])
    return Presentation(
        [g for g in P.generators if g not in gens],
        [keep(r) for r in P.relations],
        u, P.q, P.f, label=P.label,
    )


class KacTarget(NamedTuple):
    """The free product of the Kac factors, factor i's letters tagged i."""

    label: str
    generators: tuple
    relations: tuple


def expected_kac_target(spec: BlockSpec):
    """The free-product Kac target of a block spec, plus the renaming hint.

    One free factor per block of the standard layout, in block order:

        block with q < 1 (any kind), multiplicity M   -> Pol(U_M^+)
        q = 1 block of case II (`unit_block`), M      -> Pol(O_J^+), J of size 2M
        trailing identity block of case I, size t     -> Pol(O_t^+)

    Factor i sits at row and column `spec.offsets[i]` of the source, so
    the renaming sends u(offsets[i] + j, offsets[i] + k) to factor i's
    letter u(j,k), keeping its kind (plain or self-adjoint).
    """
    unit = spec.unit_block
    parts = [
        build_universal_orthogonal(symplectic_matrix(b.m)) if b is unit
        else build_universal_unitary(ScalarMatrix.identity(b.m))
        for b in spec.blocks
    ]
    if spec.trailing:
        parts.append(build_universal_orthogonal(ScalarMatrix.identity(spec.trailing)))
    rels, renaming = [], {}
    for tag, (part, o) in enumerate(zip(parts, spec.offsets)):
        retag = {g: g._replace(factor=tag) for g in part.generators}
        rels.extend(r.rename(retag) for r in part.relations)
        renaming.update((g._replace(row=o + g.row, col=o + g.col), h) for g, h in retag.items())
    label = " * ".join(p.label for p in parts)
    rels.sort(key=AlgElement.sort_key)  # canonical: each part is; retags keep letter order
    target = KacTarget(label, tuple(sorted(renaming.values())), tuple(rels))
    return target, renaming


class MatchVerdict(NamedTuple):
    """Outcome of comparing a derived quotient with its target."""

    matched: bool
    mode: str
    renaming: dict
    unmatched_derived: tuple
    unmatched_target: tuple


def match_presentations(P, T, renaming) -> MatchVerdict:
    """Compare the canonical relation sets of P, renamed, and T; each side
    is a `Presentation` or a `KacTarget`."""
    if set(renaming) != set(P.generators):
        raise ValueError("renaming is not total on the derived generators")
    if sorted(renaming.values()) != sorted(set(renaming.values())):
        raise ValueError("renaming is not injective")
    if set(renaming.values()) != set(T.generators):
        raise ValueError("renaming is not onto the target generators")
    renamed = canonicalize_relations(r.rename(renaming) for r in P.relations)
    derived_keys = {r.sort_key(): r for r in renamed}
    target_keys = {r.sort_key(): r for r in T.relations}
    only_derived = tuple(derived_keys[k] for k in sorted(derived_keys.keys() - target_keys.keys()))
    only_target = tuple(target_keys[k] for k in sorted(target_keys.keys() - derived_keys.keys()))
    matched = not only_derived and not only_target
    return MatchVerdict(matched, "exact-set", dict(renaming), only_derived, only_target)


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
    be among `letters`.  Rows are tried in the order: relation, left word,
    right word, with words of each length in `itertools.product` order
    over `letters`.
    """
    index = WordIndex(letters)
    n = index.n
    ech = SparseEchelon()
    closed = []
    seen = set()
    for r in rels:
        for s in (r, r.adjoint()):
            key = s.sort_key()
            if key not in seen:
                seen.add(key)
                closed.append(s)
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


def ideal_membership_bounded(x: AlgElement, rels, d: int) -> bool:
    """Whether x lies in the span of w * r * w' with total degree <= d.

    One-sided: False only means "not found at this bound".  Exact integer
    linear algebra over the word basis; monotone in d.
    """
    if x.is_zero():
        return True
    if d < x.degree():
        raise ValueError(f"degree bound {d} is below the element degree {x.degree()}")
    letters = _with_adjoints(sorted({g.plain() for e in [*rels, x] for g in e.letters()}))
    ech = bounded_ideal_echelon(rels, letters, d)
    return ech.contains(WordIndex(letters).row(x.terms()))
