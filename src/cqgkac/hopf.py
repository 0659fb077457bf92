"""Coproduct, counit and antipode on presented CQG algebras.

The coproduct acts on a letter at position (j,k) by the matrix formula
over the presentation's fundamental matrix u, so eliminated positions
contribute their substituted expressions.

Coassociativity, the counit laws and the relations are decided by one
pass over the positions of u, in the free algebra; no coassociator and no
Δ(r) is expanded.  Call u Δ-compatible when Δ(u[j,k]) = Σ_l u[j,l] ⊗
u[l,k] at every position.

  * `coassociativity` is True exactly when u is Δ-compatible.  A letter g
    at (j,k) has Δ(g) = Σ_l u[j,l] ⊗ u[l,k], so then (Δ ⊗ id)Δ(g) and
    (id ⊗ Δ)Δ(g) both equal Σ_{l,m} u[j,m] ⊗ u[m,l] ⊗ u[l,k].
  * `counit` is True exactly when ε(u[j,k]) = δ_jk at every position and
    every generator g is the entry of u at its own position.  Then
    (ε ⊗ id)Δ(g) = Σ_l δ_jl u[l,k] = g, and (id ⊗ ε)Δ(g) = g likewise.
  * The relations, Δ(I) ⊆ I ⊗ A + A ⊗ I, pass by a certificate.  Over
    generic letters v with Δ(v_jk) = Σ_l v_jl ⊗ v_lk, each entry of a
    defining identity has a cofactor expansion, such as Δ(R_jk) = R_jk ⊗
    1 + Σ_{l,m} v_jl v_km* ⊗ R_lm for R = V V* − I, and likewise for
    V* V − I, the Q-twisted pair and V − F V̄ F⁻¹.  It carries over when
    the relations are the canonicalized `defining_relations` of u
    (`Presentation.defining`, recorded by the builders), u is
    Δ-compatible, and Δ(g) = Δ(g)* for every self-adjoint letter g.
    Otherwise every relation is inconclusive.  In that canonical set the
    reality relation has folded the plain pair into the twisted pair
    (`presentations`).

Every builder presentation meets these conditions.  On a hand-made u they
are sufficient, not necessary: u = [[2g]] is coassociative, but Δ(2g) =
8 g ⊗ g is not u[1,1] ⊗ u[1,1], so coassociativity is reported False.

Only the antipode laws use the relation ideal.  For the generator g at
(j,k), Δ(g) = Σ_l u[j,l] ⊗ u[l,k], so by linearity its two items are the
S-image sums

    m(S ⊗ id)Δ(g) − ε(g) = Σ_l S(u[j,l]) u[l,k] − δ_jk,
    m(id ⊗ S)Δ(g) − ε(g) = Σ_l u[j,l] S(u[l,k]) − δ_jk,

over any u, each one dot product over the matrix of S-images.  They are
decided modulo the ideal truncated at the degree D of the longest word
they contain; items outside it are inconclusive.

Also here: the central morphism onto the order-two group algebra, for
presentations over the standard symplectic form.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    AlgElement, GeneratorId, add_terms, exact, mul, ratio, word_adjoint, word_key, word_label,
)
from .linalg import WordIndex
from .presentations import Presentation, symplectic_matrix
from .quotient import _with_adjoints, bounded_ideal_echelon


class TensorElement:
    """Finite exact combination of word pairs (the tensor square)."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = add_terms({}, ((p, exact(c)) for p, c in terms.items())) if terms else {}

    @classmethod
    def _wrap(cls, terms: dict) -> "TensorElement":
        """Adopt a dict of nonzero exact coefficients without copying it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def of(cls, a: AlgElement, b: AlgElement) -> "TensorElement":
        return cls._wrap(add_terms({}, (
            ((w1, w2), mul(c1, c2)) for w1, c1 in a.terms() for w2, c2 in b.terms()
        )))

    def terms(self):
        return self._terms.items()

    def __add__(self, other):
        return TensorElement._wrap(add_terms(dict(self._terms), other._terms.items()))

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return TensorElement._wrap(add_terms({}, (
            ((a1 + a2, b1 + b2), mul(c1, c2))
            for (a1, b1), c1 in self._terms.items()
            for (a2, b2), c2 in other._terms.items()
        )))

    def adjoint(self) -> "TensorElement":
        return TensorElement._wrap({
            (word_adjoint(a), word_adjoint(b)): c for (a, b), c in self._terms.items()
        })

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda p: (word_key(p[0]), word_key(p[1])))
        return " + ".join(
            f"{self._terms[k]}·({word_label(k[0])} ⊗ {word_label(k[1])})" for k in keys
        )


def _layout_entry(P: Presentation, g: GeneratorId):
    """P's fundamental matrix; ValueError unless g is one of its letters."""
    u = P.u
    if not (0 <= g.row < len(u) and 0 <= g.col < len(u)):
        raise ValueError(f"letter {g.label()} lies outside the fundamental layout")
    return u


def _letter_coproduct(P: Presentation, g: GeneratorId) -> TensorElement:
    u = _layout_entry(P, g)
    acc = {}
    for x, row in zip(u[g.row], u):
        add_terms(acc, TensorElement.of(x, row[g.col]).terms())
    out = TensorElement._wrap(acc)
    return out.adjoint() if g.star else out


def _coproduct(deltas: dict, a: AlgElement) -> TensorElement:
    acc = {}
    for w, c in a.terms():
        terms = ((((), ()), c),)
        if w:
            out = deltas[w[0]]
            for g in w[1:]:
                out = out * deltas[g]
            terms = ((p, mul(c, x)) for p, x in out.terms())
        add_terms(acc, terms)
    return TensorElement._wrap(acc)


def coproduct(P: Presentation, a: AlgElement) -> TensorElement:
    """Unital *-homomorphic extension of U |-> U x U."""
    return _coproduct({g: _letter_coproduct(P, g) for g in a.letters()}, a)


def counit(P: Presentation, a: AlgElement):
    """Multiplicative with value delta_(j,k) on the letter at (j,k)."""
    total = 0
    for w, c in a.terms():
        v = c
        for g in w:
            _layout_entry(P, g)
            if g.row != g.col:
                v = 0
                break
        total += v
    return total


def _letter_antipode(P: Presentation, g: GeneratorId) -> AlgElement:
    mirror = _layout_entry(P, g)[g.col][g.row]
    if not g.star:
        return mirror.adjoint()
    # starred letters carry the twist S(Ubar) = Q^-1 U^t Q; at Q = I this
    # is the plain mirror letter
    return mirror.scale(ratio(P.q.entry(g.col, g.col), P.q.entry(g.row, g.row)))


def _antipode(images: dict, a: AlgElement) -> AlgElement:
    """S(a), anti-multiplicative over the letter images `images`."""
    def image(w, c):
        factor = AlgElement.scalar(c)
        for g in reversed(w):
            factor = factor * images[g]
        return factor

    return AlgElement.sum(image(w, c) for w, c in a.terms())


def antipode(P: Presentation, a: AlgElement) -> AlgElement:
    """Anti-multiplicative with letter (j,k) |-> adjoint of letter (k,j);
    starred letters pick up the Q-twist so S respects the relations."""
    return _antipode({g: _letter_antipode(P, g) for g in a.letters()}, a)


def _antipode_items(P: Presentation, letters) -> dict:
    """Per generator label, the antipode items (m(S ⊗ id)Δ(g) − ε(g),
    m(id ⊗ S)Δ(g) − ε(g)) as S-image sums (module docstring).  S is
    computed once per letter of `letters`, which hold every letter of u,
    and once per entry of u."""
    u = P.u
    images = {g: _letter_antipode(P, g) for g in letters}
    s = [[_antipode(images, x) for x in row] for row in u]
    span = range(len(u))
    return {
        g.label(): (
            AlgElement.dot(((s[g.row][l], u[l][g.col]) for l in span), int(g.row == g.col)),
            AlgElement.dot(((u[g.row][l], s[l][g.col]) for l in span), int(g.row == g.col)),
        )
        for g in P.generators
    }


def _require_known_letters(P: Presentation, letters) -> None:
    """ValueError naming the first letter of u or of a relation that is
    neither a generator of P nor the adjoint of one."""
    known = set(letters)
    places = [(f"u[{j + 1},{k + 1}]", x) for j, row in enumerate(P.u) for k, x in enumerate(row)]
    places += [(f"relation {i}", r) for i, r in enumerate(P.relations)]
    for where, x in places:
        stray = x.letters() - known
        if stray:
            raise ValueError(
                f"{where} holds the letter {min(stray).label()}, which is neither a generator "
                f"of {P.label or 'the presentation'} nor the adjoint of one"
            )


class HopfReport(NamedTuple):
    """Per-axiom outcome of the Hopf verification; `bound` is the degree
    at which the antipode items' relation ideal is truncated."""

    coassociativity: bool
    counit: bool
    antipode: dict  # generator label -> "pass" | "inconclusive"
    relations: dict  # relation index -> "pass" | "inconclusive"
    bound: int

    @property
    def all_pass(self) -> bool:
        return (
            self.coassociativity
            and self.counit
            and all(v == "pass" for v in self.antipode.values())
            and all(v == "pass" for v in self.relations.values())
        )


def hopf_axiom_check(P: Presentation) -> HopfReport:
    """Coassociativity, the counit laws and the relations by the letterwise
    conditions of the module docstring, the antipode laws modulo the
    relation ideal.  A letter of u or of a relation that is neither a
    generator nor the adjoint of one raises ValueError.

    Δ and S are computed once per letter; the relation certificate reads
    `P.defining`.  Per generator, both antipode sides are one-slot items,
    one dot product each over the S-images of u.  The ideal is truncated
    once, at the longest word D among them, and an item passes if it lies
    in that bounded ideal.
    """
    u = P.u
    letters = _with_adjoints(P.generators)
    _require_known_letters(P, letters)
    # a starred letter's coproduct is its plain twin's adjoint
    deltas = {g: _letter_coproduct(P, g) for g in P.generators}
    deltas.update([(g.adjoint(), d.adjoint()) for g, d in deltas.items() if not g.selfadjoint])
    positions = [(j, k) for j in range(len(u)) for k in range(len(u))]

    # the matrix coproduct at (j,k), Σ_l u[j,l] ⊗ u[l,k], is Δ of the plain letter there
    compatible = all(
        _coproduct(deltas, u[g.row][g.col])
        == (deltas[g] if g in deltas else _letter_coproduct(P, g))
        for g in (GeneratorId(j, k) for j, k in positions)
    )
    counit_ok = all(counit(P, u[j][k]) == int(j == k) for j, k in positions) and all(
        u[g.row][g.col] == AlgElement.generator(g) for g in P.generators
    )
    certified = (
        compatible
        and all(deltas[g] == deltas[g].adjoint() for g in P.generators if g.selfadjoint)
        and P.defining
    )

    antipode_items = _antipode_items(P, letters)

    degree = max((x.degree() for sides in antipode_items.values() for x in sides), default=0)
    ideal = bounded_ideal_echelon(P.relations, letters, degree)
    index = WordIndex(letters)
    antipode_report = {
        label: "pass" if all(ideal.contains(index.row(x.terms())) for x in sides)
        else "inconclusive"
        for label, sides in antipode_items.items()
    }
    relation_report = dict.fromkeys(
        range(len(P.relations)), "pass" if certified else "inconclusive"
    )
    return HopfReport(compatible, counit_ok, antipode_report, relation_report, degree)


def _require_symplectic(P: Presentation) -> None:
    f = P.f
    if f is None or f.rows % 2 or f != symplectic_matrix(f.rows // 2):
        raise ValueError("expected a presentation over the standard symplectic form")


def _gamma(a: AlgElement):
    """The central morphism onto the group algebra of the order-two group:
    a diagonal letter maps to t, any other letter to 0; t is hermitian
    with t^2 = 1.  Returns (coefficient of 1, coefficient of t)."""
    total = [0, 0]
    for w, c in a.terms():
        if all(g.row == g.col for g in w):
            total[len(w) % 2] += c
    return total


def central_morphism_check(P: Presentation) -> bool:
    """Whether (gamma x id) Delta equals (gamma x id) flip Delta on every
    fundamental position; gamma is taken once per entry of u."""
    _require_symplectic(P)
    u = P.u
    span = range(len(u))
    z = [[_gamma(x) for x in row] for row in u]
    for j in span:
        for k in span:
            for part in (0, 1):
                lhs = AlgElement.sum(u[l][k].scale(z[j][l][part]) for l in span)
                rhs = AlgElement.sum(u[j][l].scale(z[l][k][part]) for l in span)
                if lhs != rhs:
                    return False
    return True
