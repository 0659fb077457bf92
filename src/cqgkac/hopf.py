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
    the relations are the canonicalized `defining_relations` of u, u is
    Δ-compatible, and Δ(g) = Δ(g)* for every self-adjoint letter g.
    Otherwise every relation is inconclusive.  That relation test
    compares with the same canonical set the builders store, in which the
    reality relation has folded the plain pair into the twisted pair
    (`presentations`).

Every builder presentation meets these conditions.  On a hand-made u they
are sufficient, not necessary: u = [[2g]] is coassociative, but Δ(2g) =
8 g ⊗ g is not u[1,1] ⊗ u[1,1], so coassociativity is reported False.
A hand-made F with d_j = −d_k at a self-paired position, e.g. diag(1, −1)
⊕ [[0, 1/2], [2, 0]], keeps u(j,k) = −u(j,k)* only as a relation, so u is
not Δ-compatible there: coassociativity is False and every relation is
inconclusive.

Only the antipode laws use the relation ideal: they are decided modulo
the ideal truncated at the degree D of the longest word they contain;
items outside it are inconclusive.

Also here: the central morphism onto the order-two group algebra, for
presentations over the standard symplectic form.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    AlgElement, GeneratorId, add_terms, exact, ratio, word_adjoint, word_key, word_label,
)
from .linalg import WordIndex
from .presentations import (
    Presentation,
    canonicalize_relations,
    defining_relations,
    symplectic_matrix,
)
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
            ((w1, w2), c1 * c2) for w1, c1 in a.terms() for w2, c2 in b.terms()
        )))

    def terms(self):
        return self._terms.items()

    def __add__(self, other):
        return TensorElement._wrap(add_terms(dict(self._terms), other._terms.items()))

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return TensorElement._wrap(add_terms({}, (
            ((a1 + a2, b1 + b2), c1 * c2)
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
    if g.factor or not (0 <= g.row < u.rows and 0 <= g.col < u.cols):
        raise ValueError(f"letter {g.label()} lies outside the fundamental layout")
    return u


def _letter_coproduct(P: Presentation, g: GeneratorId) -> TensorElement:
    u = _layout_entry(P, g)
    acc = {}
    for l in range(u.rows):
        add_terms(acc, TensorElement.of(u.entry(g.row, l), u.entry(l, g.col)).terms())
    out = TensorElement._wrap(acc)
    return out.adjoint() if g.star else out


def _coproduct(deltas: dict, a: AlgElement) -> TensorElement:
    acc = {}
    for w, c in a.terms():
        out = TensorElement({((), ()): c})
        for g in w:
            out = out * deltas[g]
        add_terms(acc, out.terms())
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
    mirror = _layout_entry(P, g).entry(g.col, g.row)
    if not g.star:
        return mirror.adjoint()
    # starred letters carry the twist S(Ubar) = Q^-1 U^t Q; at Q = I this
    # is the plain mirror letter
    return mirror.scale(ratio(P.q.entry(g.col, g.col), P.q.entry(g.row, g.row)))


def antipode(P: Presentation, a: AlgElement) -> AlgElement:
    """Anti-multiplicative with letter (j,k) |-> adjoint of letter (k,j);
    starred letters pick up the Q-twist so S respects the relations."""
    def image(w, c):
        factor = AlgElement.scalar(c)
        for g in reversed(w):
            factor = factor * _letter_antipode(P, g)
        return factor

    return AlgElement.sum(image(w, c) for w, c in a.terms())


def _require_known_letters(P: Presentation, u, letters) -> None:
    """ValueError naming the first letter of u or of a relation that is
    neither a generator of P nor the adjoint of one."""
    known = set(letters)
    places = [(f"u[{j + 1},{k + 1}]", u.entry(j, k)) for j in range(u.rows) for k in range(u.cols)]
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

    Per generator, both antipode sides are one-slot items.  The ideal is
    truncated once, at the longest word D among them, and an item passes
    if it lies in that bounded ideal.
    """
    u = P.u
    letters = _with_adjoints(P.generators)
    _require_known_letters(P, u, letters)
    deltas = {g: _letter_coproduct(P, g) for g in letters}
    positions = [(j, k) for j in range(u.rows) for k in range(u.cols)]

    # the coproduct of the plain letter at (j,k), read over u, is Σ_l u[j,l] ⊗ u[l,k]
    compatible = all(
        _coproduct(deltas, u.entry(j, k)) == _letter_coproduct(P, GeneratorId(0, j, k))
        for j, k in positions
    )
    counit_ok = all(counit(P, u.entry(j, k)) == int(j == k) for j, k in positions) and all(
        u.entry(g.row, g.col) == AlgElement.generator(g) for g in P.generators
    )
    certified = (
        compatible
        and all(deltas[g] == deltas[g].adjoint() for g in P.generators if g.selfadjoint)
        and P.relations == canonicalize_relations(defining_relations(u, P.q, P.f))
    )

    antipode_items = {}
    for g in P.generators:
        terms = deltas[g].terms()
        eps = AlgElement.scalar(counit(P, AlgElement.generator(g)))
        lhs = AlgElement.sum([-eps, *(
            antipode(P, AlgElement.word(w1, c)) * AlgElement.word(w2) for (w1, w2), c in terms
        )])
        rhs = AlgElement.sum([-eps, *(
            AlgElement.word(w1, c) * antipode(P, AlgElement.word(w2)) for (w1, w2), c in terms
        )])
        antipode_items[g.label()] = (lhs, rhs)

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
    fundamental position."""
    _require_symplectic(P)
    mat = P.u
    n = mat.rows
    for j in range(n):
        for k in range(n):
            zl = [_gamma(mat.entry(j, l)) for l in range(n)]
            zr = [_gamma(mat.entry(l, k)) for l in range(n)]
            for part in (0, 1):
                lhs = AlgElement.sum(mat.entry(l, k).scale(zl[l][part]) for l in range(n))
                rhs = AlgElement.sum(mat.entry(j, l).scale(zr[l][part]) for l in range(n))
                if lhs != rhs:
                    return False
    return True
