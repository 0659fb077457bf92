"""Exact scalars, free *-algebra words/elements, and matrices over them.

All coefficients are rationals (`fractions.Fraction`), all arithmetic is
exact.  Words are tuples of generator letters; the empty word is the unit.
Row/column indices are 0-based throughout; labels print 1-based.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

Rational = Fraction


class ShapeError(ValueError):
    """Raised on dimension-incompatible matrix operations."""


def rat(x) -> Fraction:
    """Parse an int, Fraction or "p/q" string into an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def add_terms(acc: dict, terms) -> dict:
    """Add (key, coefficient) pairs into `acc` in place and return it.

    A key whose sum reaches zero is deleted.  Surviving keys keep their
    place and new keys go last, so the order of first appearance is kept.
    A new key stores its coefficient as given, with no addition to zero.
    """
    for key, c in terms:
        old = acc.get(key)
        if old is None:
            if c:
                acc[key] = c
        else:
            s = old + c
            if s:
                acc[key] = s
            else:
                del acc[key]
    return acc


class GeneratorId(NamedTuple):
    """A letter of the free *-algebra: one matrix coefficient or its adjoint.

    The field order gives the global letter order: factor tag, family name,
    position, then star (plain < star).
    """

    factor: int
    name: str
    row: int
    col: int
    star: bool = False

    def adjoint(self) -> "GeneratorId":
        return self._replace(star=not self.star)

    def plain(self) -> "GeneratorId":
        return self._replace(star=False) if self.star else self

    def label(self) -> str:
        head = f"{self.factor}." if self.factor else ""
        tail = "*" if self.star else ""
        return f"{head}{self.name}({self.row + 1},{self.col + 1}){tail}"


Word = tuple  # tuple[GeneratorId, ...]; () is the unit


def word_adjoint(w: Word) -> Word:
    """Reverse the word and toggle every star flag; an involution."""
    return tuple(g.adjoint() for g in reversed(w))


def word_key(w: Word):
    """Global word order: by length, then letterwise."""
    return (len(w), w)


def word_label(w: Word) -> str:
    return " ".join(g.label() for g in w) if w else "1"


class AlgElement:
    """A finite rational-linear combination of words (free *-algebra element).

    Immutable; zero coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = add_terms({}, ((w, Fraction(c)) for w, c in terms.items())) if terms else {}

    @classmethod
    def _wrap(cls, terms: dict) -> "AlgElement":
        """Adopt a dict of nonzero Fractions without copying it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def sum(cls, elements) -> "AlgElement":
        """The sum of the elements, accumulated in one dict."""
        acc = {}
        for e in elements:
            add_terms(acc, e._terms.items())
        return cls._wrap(acc)

    @classmethod
    def zero(cls) -> "AlgElement":
        return cls()

    @classmethod
    def scalar(cls, c) -> "AlgElement":
        return cls({(): Fraction(c)})

    @classmethod
    def one(cls) -> "AlgElement":
        return cls.scalar(1)

    @classmethod
    def generator(cls, g: GeneratorId, c=1) -> "AlgElement":
        return cls({(g,): Fraction(c)})

    @classmethod
    def word(cls, w: Word, c=1) -> "AlgElement":
        return cls({tuple(w): Fraction(c)})

    def terms(self):
        return self._terms.items()

    def words(self):
        return self._terms.keys()

    def coefficient(self, w: Word) -> Fraction:
        return self._terms.get(tuple(w), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Maximal word length; zero element has degree 0."""
        return max((len(w) for w in self._terms), default=0)

    def letters(self):
        return {g for w in self._terms for g in w}

    def __add__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return AlgElement._wrap(add_terms(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgElement._wrap({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, AlgElement):
            return NotImplemented
        return AlgElement._wrap(add_terms({}, (
            (w1 + w2, c1 * c2)
            for w1, c1 in self._terms.items()
            for w2, c2 in other._terms.items()
        )))

    def scale(self, c) -> "AlgElement":
        c = Fraction(c)
        if not c:
            return AlgElement.zero()
        return AlgElement._wrap({w: c * v for w, v in self._terms.items()})

    def adjoint(self) -> "AlgElement":
        """The *-operation; coefficients stay (all scalars are real)."""
        return AlgElement._wrap({word_adjoint(w): c for w, c in self._terms.items()})

    def substitute(self, sigma: dict) -> "AlgElement":
        """*-homomorphic extension of a map on plain letters.

        Starred letters substitute via the adjoint of the image; letters
        absent from sigma map to themselves.  Images are AlgElements.
        """
        acc = {}
        for w, c in self._terms.items():
            factor = AlgElement.scalar(c)
            for g in w:
                image = sigma.get(g.plain())
                if image is None:
                    image = AlgElement.generator(g)
                elif g.star:
                    image = image.adjoint()
                factor = factor * image
                if factor.is_zero():
                    break
            add_terms(acc, factor._terms.items())
        return AlgElement._wrap(acc)

    def sort_key(self):
        """Deterministic total order key on elements."""
        return tuple(
            (word_key(w), self._terms[w]) for w in sorted(self._terms, key=word_key)
        )

    def __eq__(self, other):
        return isinstance(other, AlgElement) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for w in sorted(self._terms, key=word_key):
            c = self._terms[w]
            if not w:
                parts.append(rat_str(c))
            elif c == 1:
                parts.append(word_label(w))
            elif c == -1:
                parts.append(f"-{word_label(w)}")
            else:
                parts.append(f"{rat_str(c)} {word_label(w)}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


class AlgMatrix:
    """Rectangular matrix with AlgElement entries."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ShapeError("empty matrix")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ShapeError("ragged rows")
        self.rows = len(entries)
        self.cols = cols
        self._entries = entries

    @classmethod
    def identity(cls, n: int) -> "AlgMatrix":
        one, zero = AlgElement.one(), AlgElement.zero()
        return cls([[one if j == k else zero for k in range(n)] for j in range(n)])

    def entry(self, j: int, k: int) -> AlgElement:
        return self._entries[j][k]

    def entries(self):
        for row in self._entries:
            yield from row

    def __mul__(self, other):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return AlgMatrix(
            [
                [
                    AlgElement.sum(
                        self._entries[j][l] * other._entries[l][k] for l in range(self.cols)
                    )
                    for k in range(other.cols)
                ]
                for j in range(self.rows)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in subtraction")
        return AlgMatrix(
            [
                [self._entries[j][k] - other._entries[j][k] for k in range(self.cols)]
                for j in range(self.rows)
            ]
        )

    def transpose(self) -> "AlgMatrix":
        return AlgMatrix(
            [[self._entries[j][k] for j in range(self.rows)] for k in range(self.cols)]
        )

    def star(self) -> "AlgMatrix":
        """Conjugate transpose: entrywise adjoint plus transposition."""
        return AlgMatrix(
            [
                [self._entries[j][k].adjoint() for j in range(self.rows)]
                for k in range(self.cols)
            ]
        )

    def bar(self) -> "AlgMatrix":
        """Entrywise adjoint without transposition: bar(M) = star(M)^t."""
        return AlgMatrix(
            [[e.adjoint() for e in row] for row in self._entries]
        )

    def substitute(self, sigma: dict) -> "AlgMatrix":
        return AlgMatrix([[e.substitute(sigma) for e in row] for row in self._entries])

    def __eq__(self, other):
        return (
            isinstance(other, AlgMatrix)
            and self._entries == other._entries
        )

    def __repr__(self):
        return "[" + "; ".join(
            ", ".join(repr(e) for e in row) for row in self._entries
        ) + "]"


class ScalarMatrix:
    """Rectangular matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries):
        entries = tuple(tuple(Fraction(e) for e in row) for row in entries)
        if not entries or not entries[0]:
            raise ShapeError("empty matrix")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ShapeError("ragged rows")
        self.rows = len(entries)
        self.cols = cols
        self._entries = entries

    @classmethod
    def identity(cls, n: int) -> "ScalarMatrix":
        return cls([[1 if j == k else 0 for k in range(n)] for j in range(n)])

    @classmethod
    def diagonal(cls, values) -> "ScalarMatrix":
        values = [Fraction(v) for v in values]
        n = len(values)
        return cls([[values[j] if j == k else 0 for k in range(n)] for j in range(n)])

    def entry(self, j: int, k: int) -> Fraction:
        return self._entries[j][k]

    def __mul__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return ScalarMatrix(
            [
                [
                    sum(
                        (self._entries[j][l] * other._entries[l][k] for l in range(self.cols)),
                        Fraction(0),
                    )
                    for k in range(other.cols)
                ]
                for j in range(self.rows)
            ]
        )

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix(
            [[self._entries[j][k] for j in range(self.rows)] for k in range(self.cols)]
        )

    def star(self) -> "ScalarMatrix":
        """Conjugate transpose, which is the transpose over the rationals."""
        return self.transpose()

    def is_diagonal(self) -> bool:
        return all(
            j == k or not self._entries[j][k]
            for j in range(self.rows)
            for k in range(self.cols)
        )

    def is_monomial(self) -> bool:
        """Exactly one nonzero entry per row and per column."""
        if self.rows != self.cols:
            return False
        rc = [sum(1 for e in row if e) for row in self._entries]
        cc = [sum(1 for j in range(self.rows) if self._entries[j][k]) for k in range(self.cols)]
        return all(c == 1 for c in rc) and all(c == 1 for c in cc)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self._entries[j][k] == (1 if j == k else 0)
            for j in range(self.rows)
            for k in range(self.cols)
        )

    def inverse(self) -> "ScalarMatrix":
        """Exact inverse by Gauss-Jordan elimination."""
        if self.rows != self.cols:
            raise ShapeError("only square matrices invert")
        n = self.rows
        work = [list(row) + [Fraction(int(j == k)) for k in range(n)] for j, row in enumerate(self._entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                raise ValueError("matrix is not invertible")
            work[col], work[pivot] = work[pivot], work[col]
            inv = 1 / work[col][col]
            work[col] = [inv * v for v in work[col]]
            for r in range(n):
                if r != col and work[r][col]:
                    f = work[r][col]
                    work[r] = [a - f * b for a, b in zip(work[r], work[col])]
        return ScalarMatrix([row[n:] for row in work])

    def embed(self) -> AlgMatrix:
        """View as an AlgMatrix with scalar entries."""
        return AlgMatrix(
            [[AlgElement.scalar(e) for e in row] for row in self._entries]
        )

    def scale(self, c) -> "ScalarMatrix":
        c = Fraction(c)
        return ScalarMatrix([[c * e for e in row] for row in self._entries])

    def __eq__(self, other):
        return isinstance(other, ScalarMatrix) and self._entries == other._entries

    def __repr__(self):
        return "[" + "; ".join(
            ", ".join(rat_str(e) for e in row) for row in self._entries
        ) + "]"
