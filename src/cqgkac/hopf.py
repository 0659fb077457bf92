"""Coproduct, counit and antipode on presented CQG algebras.

The coproduct acts on a letter at position (j,k) by the matrix formula
over the factor's fundamental matrix, so eliminated positions contribute
their substituted expressions.  The counit laws hold exactly in the free
algebra.  Coassociativity holds there too, except where eliminated
positions only agree modulo self-paired reality relations; then it is
checked modulo the relation ideal.  Antipode laws and coproduct-invariance
of the relations are verified modulo the relation ideal at a degree bound
and reported pass / inconclusive (a bound exhaustion is never called a
fail).

Also here: the central morphism onto the order-two group algebra and its
Hopf kernel, for presentations over the standard symplectic form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgElement, GeneratorId, Word, word_adjoint, word_key, word_label
from .linalg import WordIndex
from .presentations import Presentation, symplectic_matrix
from .quotient import bounded_ideal_echelon


class TensorElement:
    """Finite rational combination of word pairs (the tensor square)."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for pair, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[pair] = c
        self._terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def of(cls, a: AlgElement, b: AlgElement) -> "TensorElement":
        out = {}
        for w1, c1 in a.terms():
            for w2, c2 in b.terms():
                out[(w1, w2)] = out.get((w1, w2), 0) + c1 * c2
        return cls(out)

    def terms(self):
        return self._terms.items()

    def is_zero(self):
        return not self._terms

    def __add__(self, other):
        out = dict(self._terms)
        for pair, c in other._terms.items():
            s = out.get(pair, 0) + c
            if s:
                out[pair] = s
            elif pair in out:
                del out[pair]
        t = TensorElement.__new__(TensorElement)
        t._terms = out
        return t

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        out = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                pair = (a1 + a2, b1 + b2)
                s = out.get(pair, 0) + c1 * c2
                if s:
                    out[pair] = s
                elif pair in out:
                    del out[pair]
        t = TensorElement.__new__(TensorElement)
        t._terms = out
        return t

    def scale(self, c):
        c = Fraction(c)
        t = TensorElement.__new__(TensorElement)
        t._terms = {pair: c * v for pair, v in self._terms.items()} if c else {}
        return t

    def flip(self) -> "TensorElement":
        t = TensorElement.__new__(TensorElement)
        t._terms = {(b, a): c for (a, b), c in self._terms.items()}
        return t

    def adjoint(self) -> "TensorElement":
        t = TensorElement.__new__(TensorElement)
        t._terms = {
            (word_adjoint(a), word_adjoint(b)): c for (a, b), c in self._terms.items()
        }
        return t

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda p: (word_key(p[0]), word_key(p[1])))
        return " + ".join(
            f"{self._terms[k]}·({word_label(k[0])} ⊗ {word_label(k[1])})" for k in keys
        )


def _layout_entry(P: Presentation, g: GeneratorId) -> None:
    mat = P.fundamentals.get(g.factor)
    if mat is None or not (0 <= g.row < mat.rows and 0 <= g.col < mat.cols):
        raise ValueError(f"letter {g.label()} lies outside the fundamental layout")


def _letter_coproduct(P: Presentation, g: GeneratorId) -> TensorElement:
    _layout_entry(P, g)
    mat = P.fundamentals[g.factor]
    out = TensorElement.zero()
    for l in range(mat.rows):
        out = out + TensorElement.of(mat.entry(g.row, l), mat.entry(l, g.col))
    return out.adjoint() if g.star else out


def _word_coproduct(P: Presentation, w: Word) -> TensorElement:
    out = TensorElement({((), ()): Fraction(1)})
    for g in w:
        out = out * _letter_coproduct(P, g)
    return out


def coproduct(P: Presentation, a: AlgElement) -> TensorElement:
    """Unital *-homomorphic extension of U |-> U x U."""
    out = TensorElement.zero()
    for w, c in a.terms():
        out = out + _word_coproduct(P, w).scale(c)
    return out


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
    _layout_entry(P, g)
    mirror = P.fundamentals[g.factor].entry(g.col, g.row)
    if not g.star:
        return mirror.adjoint()
    # starred letters carry the twist S(Ubar) = Q^-1 U^t Q; at Q = I this
    # is the plain mirror letter
    q = P.qmatrices[g.factor]
    return mirror.scale(q.entry(g.col, g.col) / q.entry(g.row, g.row))


def antipode(P: Presentation, a: AlgElement) -> AlgElement:
    """Anti-multiplicative with letter (j,k) |-> adjoint of letter (k,j);
    starred letters pick up the Q-twist so S respects the relations."""
    out = AlgElement.zero()
    for w, c in a.terms():
        factor = AlgElement.scalar(c)
        for g in reversed(w):
            factor = factor * _letter_antipode(P, g)
        out = out + factor
    return out


def _coassociator(P: Presentation, delta: TensorElement) -> dict:
    """(Δ ⊗ id)(delta) − (id ⊗ Δ)(delta) over word triples, zeros dropped."""
    out = {}
    for (w1, w2), c in delta.terms():
        for (a, b), c2 in _word_coproduct(P, w1).terms():
            out[(a, b, w2)] = out.get((a, b, w2), 0) + c * c2
        for (a, b), c2 in _word_coproduct(P, w2).terms():
            out[(w1, a, b)] = out.get((w1, a, b), 0) - c * c2
    return {key: c for key, c in out.items() if c}


def _presentation_letters(P: Presentation):
    letters = []
    for g in P.generators:
        letters.append(g)
        letters.append(g.adjoint())
    return letters


@dataclass(frozen=True)
class HopfReport:
    """Per-axiom outcome of the bounded Hopf verification."""

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


def hopf_axiom_check(P: Presentation, bound: int = 4) -> HopfReport:
    """Coassociativity/counit checks on the generators, antipode laws and
    coproduct-invariance of the relations modulo the relation ideal at
    the given degree bound.

    Coassociativity is compared exactly in the free algebra first; where
    the two sides differ, the difference is projected slot by slot onto
    the normal forms of the bounded ideal, and it holds if that is zero.
    """
    letters = _presentation_letters(P)
    index = WordIndex(letters)
    ideal = bounded_ideal_echelon(P.relations, letters, bound)

    coassoc = True
    counit_ok = True
    antipode_report = {}
    for g in P.generators:
        delta = _letter_coproduct(P, g)
        diff = _coassociator(P, delta)
        if diff:
            coassoc = coassoc and _in_ideal_tensor(ideal, index, diff.items())
        eps = counit(P, AlgElement.generator(g))
        left = AlgElement.zero()
        right = AlgElement.zero()
        lhs = AlgElement.scalar(-eps)
        rhs = AlgElement.scalar(-eps)
        for (w1, w2), c in delta.terms():
            left = left + AlgElement.word(w2, c * counit(P, AlgElement.word(w1)))
            right = right + AlgElement.word(w1, c * counit(P, AlgElement.word(w2)))
            lhs = lhs + antipode(P, AlgElement.word(w1, c)) * AlgElement.word(w2)
            rhs = rhs + AlgElement.word(w1, c) * antipode(P, AlgElement.word(w2))
        if left != AlgElement.generator(g) or right != AlgElement.generator(g):
            counit_ok = False
        ok = all(
            x.is_zero() or (x.degree() <= bound and ideal.contains(index.row(x.terms())))
            for x in (lhs, rhs)
        )
        antipode_report[g.label()] = "pass" if ok else "inconclusive"

    relation_report = {}
    for i, r in enumerate(P.relations):
        preserved = _in_ideal_tensor(ideal, index, coproduct(P, r).terms())
        relation_report[i] = "pass" if preserved else "inconclusive"
    return HopfReport(coassoc, counit_ok, antipode_report, relation_report, bound)


def _in_ideal_tensor(ideal, index: WordIndex, terms) -> bool:
    """Whether a tensor of words lies in the sum, over its slots, of
    A ⊗ … ⊗ I ⊗ … ⊗ A, with I the bounded ideal.

    Applies the ideal's normal-form map to one slot after another; the
    result is zero exactly on that sum, because the normal-form map is a
    linear projection with kernel I.  For Δ(r) this decides
    Δ(r) ∈ I ⊗ A + A ⊗ I.
    """
    t = {tuple(index.encode(w) for w in key): c for key, c in terms}
    slots = len(next(iter(t))) if t else 0
    for slot in range(slots):
        rows = {}
        for key, c in t.items():
            rows.setdefault(key[:slot] + key[slot + 1:], {})[key[slot]] = c
        t = {
            rest[:slot] + (col,) + rest[slot:]: c
            for rest, row in rows.items()
            for col, c in ideal.residue(row).items()
        }
    return not t


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


def _require_symplectic(P: Presentation) -> int:
    if len(P.factor_tags) != 1:
        raise ValueError("expected a single-factor presentation")
    (tag,) = P.factor_tags
    f = P.fmatrices[tag]
    n = P.fundamentals[tag].rows
    if f is None or n % 2 or f != symplectic_matrix(n // 2):
        raise ValueError("expected a presentation over the standard symplectic form")
    return tag


def default_central_morphism(P: Presentation) -> MorphismSpec:
    """Diagonal letters map to t, off-diagonal letters to 0."""
    images = {}
    for g in P.generators:
        images[g] = (Fraction(0), Fraction(1)) if g.row == g.col else (Fraction(0), Fraction(0))
    return MorphismSpec(images)


def central_morphism_check(P: Presentation, morphism: MorphismSpec = None) -> bool:
    """Whether (gamma x id) Delta equals (gamma x id) flip Delta on every
    fundamental position."""
    tag = _require_symplectic(P)
    gamma = morphism or default_central_morphism(P)
    mat = P.fundamentals[tag]
    n = mat.rows
    for j in range(n):
        for k in range(n):
            lhs = [AlgElement.zero(), AlgElement.zero()]
            rhs = [AlgElement.zero(), AlgElement.zero()]
            for l in range(n):
                zl = gamma.apply(mat.entry(j, l))
                lhs[0] = lhs[0] + mat.entry(l, k).scale(zl[0])
                lhs[1] = lhs[1] + mat.entry(l, k).scale(zl[1])
                zr = gamma.apply(mat.entry(l, k))
                rhs[0] = rhs[0] + mat.entry(j, l).scale(zr[0])
                rhs[1] = rhs[1] + mat.entry(j, l).scale(zr[1])
            if lhs != rhs:
                return False
    return True


def hopf_kernel_membership(P: Presentation, b: AlgElement,
                           morphism: MorphismSpec = None) -> bool:
    """Whether (gamma x id) Delta(b) = 1 x b after the t^2 = 1 reduction."""
    _require_symplectic(P)
    gamma = morphism or default_central_morphism(P)
    parts = [AlgElement.zero(), AlgElement.zero()]
    for (w1, w2), c in coproduct(P, b).terms():
        z = gamma.apply(AlgElement.word(w1))
        parts[0] = parts[0] + AlgElement.word(w2, c * z[0])
        parts[1] = parts[1] + AlgElement.word(w2, c * z[1])
    return parts[1].is_zero() and parts[0] == b
