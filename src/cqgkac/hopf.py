"""Coproduct, counit and antipode on presented CQG algebras.

The coproduct acts on a letter at position (j,k) by the matrix formula
over the presentation's fundamental matrix u, so eliminated positions
contribute their substituted expressions.  The counit laws and
coassociativity are decided exactly in the free algebra.

The relations, Δ(I) ⊆ I ⊗ A + A ⊗ I, pass by a certificate; no Δ(r) is
expanded.  Over generic letters v with Δ(v_jk) = Σ_l v_jl ⊗ v_lk, each
entry of a defining identity has a cofactor expansion, such as
Δ(R_jk) = R_jk ⊗ 1 + Σ_{l,m} v_jl v_km* ⊗ R_lm for R = V V* − I, and
likewise for V* V − I, the Q-twisted pair and V − F V̄ F⁻¹.  It carries
over when (1) the relations are the canonicalized `defining_relations`
of u and (2) Δ(u[j,k]) = Σ_l u[j,l] ⊗ u[l,k] at every position, with
Δ(g) = Δ(g)* for every self-adjoint letter g.  Otherwise every relation
is inconclusive, as for a hand-made F with d_j = −d_k at a self-paired
position, e.g. diag(1, −1) ⊕ [[0, 1/2], [2, 0]], where u(j,k) = −u(j,k)*
holds only modulo the relations (coassociativity fails there too).

The antipode laws are decided modulo the relation ideal truncated at the
degree D of the longest word they contain; items outside it are
inconclusive.

Also here: the central morphism onto the order-two group algebra, for
presentations over the standard symplectic form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgElement, GeneratorId, add_terms, word_adjoint, word_key, word_label
from .linalg import WordIndex
from .presentations import (
    Presentation,
    canonicalize_relations,
    defining_relations,
    symplectic_matrix,
)
from .quotient import bounded_ideal_echelon


class TensorElement:
    """Finite rational combination of word pairs (the tensor square)."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = add_terms({}, ((p, Fraction(c)) for p, c in terms.items())) if terms else {}

    @classmethod
    def _wrap(cls, terms: dict) -> "TensorElement":
        """Adopt a dict of nonzero Fractions without copying it."""
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

    def flip(self) -> "TensorElement":
        return TensorElement._wrap({(b, a): c for (a, b), c in self._terms.items()})

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
    if g.factor or u is None or not (0 <= g.row < u.rows and 0 <= g.col < u.cols):
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


def counit(P: Presentation, a: AlgElement) -> Fraction:
    """Multiplicative with value delta_(j,k) on the letter at (j,k)."""
    total = Fraction(0)
    for w, c in a.terms():
        v = c
        for g in w:
            _layout_entry(P, g)
            if g.row != g.col:
                v = Fraction(0)
                break
        total += v
    return total


def _letter_antipode(P: Presentation, g: GeneratorId) -> AlgElement:
    mirror = _layout_entry(P, g).entry(g.col, g.row)
    if not g.star:
        return mirror.adjoint()
    # starred letters carry the twist S(Ubar) = Q^-1 U^t Q; at Q = I this
    # is the plain mirror letter
    return mirror.scale(P.q.entry(g.col, g.col) / P.q.entry(g.row, g.row))


def antipode(P: Presentation, a: AlgElement) -> AlgElement:
    """Anti-multiplicative with letter (j,k) |-> adjoint of letter (k,j);
    starred letters pick up the Q-twist so S respects the relations."""
    def image(w, c):
        factor = AlgElement.scalar(c)
        for g in reversed(w):
            factor = factor * _letter_antipode(P, g)
        return factor

    return AlgElement.sum(image(w, c) for w, c in a.terms())


def _coassociator(deltas: dict, delta: TensorElement) -> dict:
    """(Δ ⊗ id)(delta) − (id ⊗ Δ)(delta) over word triples, zeros dropped."""
    out = {}
    for (w1, w2), c in delta.terms():
        left = _coproduct(deltas, AlgElement.word(w1, c)).terms()
        right = _coproduct(deltas, AlgElement.word(w2, -c)).terms()
        add_terms(out, (((a, b, w2), v) for (a, b), v in left))
        add_terms(out, (((w1, a, b), v) for (a, b), v in right))
    return out


def _presentation_letters(P: Presentation):
    return list(dict.fromkeys(h for g in P.generators for h in (g, g.adjoint())))


@dataclass(frozen=True)
class HopfReport:
    """Per-axiom outcome of the Hopf verification at ideal degree `bound`."""

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


def _relations_certified(P: Presentation, deltas: dict) -> bool:
    """Checks (1) and (2) of the module docstring.  The coproduct of the plain
    letter at (j,k), read over P.u, is Σ_l u[j,l] ⊗ u[l,k]."""
    u = P.u
    return (
        P.relations == canonicalize_relations(defining_relations(u, P.q, P.f))
        and all(
            _coproduct(deltas, u.entry(j, k)) == _letter_coproduct(P, GeneratorId(0, j, k))
            for j in range(u.rows)
            for k in range(u.cols)
        )
        and all(deltas[g] == deltas[g].adjoint() for g in P.generators if g.selfadjoint)
    )


def hopf_axiom_check(P: Presentation) -> HopfReport:
    """Counit laws and coassociativity exactly, the relations by the
    certificate of the module docstring, the antipode laws modulo the
    relation ideal.

    Per generator, both antipode sides are one-slot items.  The ideal is
    truncated once, at the longest word D among them, and an item passes
    if it lies in that bounded ideal.
    """
    letters = _presentation_letters(P)
    deltas = {g: _letter_coproduct(P, g) for g in letters}

    coassoc = not any(_coassociator(deltas, deltas[g]) for g in P.generators)
    counit_ok = True
    antipode_items = {}
    for g in P.generators:
        terms = deltas[g].terms()
        eps = AlgElement.scalar(counit(P, AlgElement.generator(g)))
        left = AlgElement.sum(
            AlgElement.word(w2, c * counit(P, AlgElement.word(w1))) for (w1, w2), c in terms
        )
        right = AlgElement.sum(
            AlgElement.word(w1, c * counit(P, AlgElement.word(w2))) for (w1, w2), c in terms
        )
        lhs = AlgElement.sum([-eps, *(
            antipode(P, AlgElement.word(w1, c)) * AlgElement.word(w2) for (w1, w2), c in terms
        )])
        rhs = AlgElement.sum([-eps, *(
            AlgElement.word(w1, c) * antipode(P, AlgElement.word(w2)) for (w1, w2), c in terms
        )])
        if left != AlgElement.generator(g) or right != AlgElement.generator(g):
            counit_ok = False
        antipode_items[g.label()] = (lhs, rhs)

    degree = max((x.degree() for sides in antipode_items.values() for x in sides), default=0)
    ideal = bounded_ideal_echelon(P.relations, letters, degree)
    index = WordIndex(letters)
    antipode_report = {
        label: "pass" if all(ideal.contains(index.row(x.terms())) for x in sides)
        else "inconclusive"
        for label, sides in antipode_items.items()
    }
    certified = "pass" if _relations_certified(P, deltas) else "inconclusive"
    relation_report = dict.fromkeys(range(len(P.relations)), certified)
    return HopfReport(coassoc, counit_ok, antipode_report, relation_report, degree)


@dataclass(frozen=True)
class MorphismSpec:
    """A *-morphism onto the group algebra of the order-two group.

    Images are pairs (coefficient of 1, coefficient of t) per plain
    generator; t is hermitian with t^2 = 1.
    """

    images: dict

    def apply(self, a: AlgElement):
        total = [Fraction(0), Fraction(0)]
        for w, c in a.terms():
            value = (Fraction(1), Fraction(0))
            for g in w:
                img = self.images.get(g.plain())
                if img is None:
                    raise ValueError(f"no image for letter {g.label()}")
                # t is hermitian, so starred letters share the image
                value = (
                    value[0] * img[0] + value[1] * img[1],
                    value[0] * img[1] + value[1] * img[0],
                )
                if value == (0, 0):
                    break
            total[0] += c * value[0]
            total[1] += c * value[1]
        return (total[0], total[1])


def _require_symplectic(P: Presentation) -> None:
    f = P.f
    if f is None or f.rows % 2 or f != symplectic_matrix(f.rows // 2):
        raise ValueError("expected a presentation over the standard symplectic form")


def default_central_morphism(P: Presentation) -> MorphismSpec:
    """Diagonal letters map to t, off-diagonal letters to 0."""
    images = {}
    for g in P.generators:
        images[g] = (Fraction(0), Fraction(1)) if g.row == g.col else (Fraction(0), Fraction(0))
    return MorphismSpec(images)


def central_morphism_check(P: Presentation, morphism: MorphismSpec = None) -> bool:
    """Whether (gamma x id) Delta equals (gamma x id) flip Delta on every
    fundamental position."""
    _require_symplectic(P)
    gamma = morphism or default_central_morphism(P)
    mat = P.u
    n = mat.rows
    for j in range(n):
        for k in range(n):
            zl = [gamma.apply(mat.entry(j, l)) for l in range(n)]
            zr = [gamma.apply(mat.entry(l, k)) for l in range(n)]
            for part in (0, 1):
                lhs = AlgElement.sum(mat.entry(l, k).scale(zl[l][part]) for l in range(n))
                rhs = AlgElement.sum(mat.entry(j, l).scale(zr[l][part]) for l in range(n))
                if lhs != rhs:
                    return False
    return True

