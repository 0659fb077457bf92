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

The counit ε is the value at the identity matrix (`AlgElement.at`).

Also here: the central morphism γ onto the group algebra of the order-two
group {1, t}, for presentations over the standard symplectic form.  Its
elements are equal exactly when both characters, t ↦ ±1, agree on them,
and γ followed by those is the value at I and at −I.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    AlgElement, Combination, GeneratorId, add_terms, mul, ratio, word_adjoint, word_key,
    word_label,
)
from .linalg import WordIndex
from .presentations import Presentation, symplectic_matrix
from .quotient import _with_adjoints, bounded_ideal_echelon


class TensorElement(Combination):
    """Finite exact combination of word pairs (the tensor square)."""

    __slots__ = ()

    @classmethod
    def of(cls, a: AlgElement, b: AlgElement) -> "TensorElement":
        return cls._wrap(add_terms({}, (
            ((w1, w2), mul(c1, c2)) for w1, c1 in a.terms() for w2, c2 in b.terms()
        )))

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
    out = TensorElement.sum(TensorElement.of(x, row[g.col]) for x, row in zip(u[g.row], u))
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


def _identity(n: int, c=1) -> tuple:
    """c times the n x n identity, as rows for `AlgElement.at`."""
    return tuple(tuple(c if j == k else 0 for k in range(n)) for j in range(n))


def counit(P: Presentation, a: AlgElement):
    """The value of a at the identity: delta_(j,k) on the letter at (j,k);
    ValueError unless every letter of a lies in P's layout."""
    for g in a.letters():
        _layout_entry(P, g)
    return a.at(_identity(len(P.u)))


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
    # every letter of u is a generator or its adjoint, and the generators
    # lie in the layout (their coproducts above), so ε is the value at I
    eye = _identity(len(u))
    counit_ok = all(u[j][k].at(eye) == int(j == k) for j, k in positions) and all(
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


def central_morphism_check(P: Presentation) -> bool:
    """Whether (gamma x id) Delta equals (gamma x id) flip Delta on every
    fundamental position; gamma maps a diagonal letter to t, any other to
    0, and is read by the characters t -> 1 and t -> -1, the values at I
    and -I, each taken once per entry of u (module docstring)."""
    _require_symplectic(P)
    u = P.u
    n = len(u)
    span = range(n)
    for sign in (1, -1):
        point = _identity(n, sign)
        z = [[x.at(point) for x in row] for row in u]
        for j in span:
            for k in span:
                lhs = AlgElement.sum(u[l][k].scale(z[j][l]) for l in span)
                rhs = AlgElement.sum(u[j][l].scale(z[l][k]) for l in span)
                if lhs != rhs:
                    return False
    return True
