"""Exact scalars, free *-algebra words/elements, and exact scalar matrices.

Every coefficient is exact: an `int` or a `fractions.Fraction`, never a
float.  Constructors store an integral value as an `int` (`exact`), and so
do `mul`, the one product of coefficients, `ratio`, the one division, and
the relation normal form; only a sum of Fractions may hold an integral
Fraction until that normal form.  So the common coefficients 1, -1 and
small integers multiply as machine integers.  Int and Fraction compare and
hash alike, so sort keys and relation sets do not see the difference.
Words are tuples of generator letters; the empty word is the unit.
Row/column indices are 0-based throughout; labels print 1-based.

`Combination` is the one container of exact sparse combinations, which
`AlgElement` (over words) and `hopf.TensorElement` (over word pairs)
derive from.  `AlgElement.at(V)` is the one value at a real scalar matrix:
the counit's at the identity, a character's at a signed permutation.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple


class ShapeError(ValueError):
    """Raised on an empty, ragged or wrongly sized matrix."""


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def rat(x) -> Fraction:
    """Parse an int, Fraction or "p/q" string into an exact rational;
    ValueError on a malformed string or a zero denominator.

    A string is refused before it is parsed when its digits plus its
    exponent exceed `sys.get_int_max_str_digits()`: its numerator or
    denominator could not be printed, and 10**exponent alone grows without
    bound."""
    if isinstance(x, Fraction):
        return x
    if is_int(x):
        return Fraction(x)
    if isinstance(x, str):
        limit = sys.get_int_max_str_digits()
        mantissa, _, exponent = x.lower().partition("e")
        try:
            shift = abs(int(exponent)) if exponent else 0
        except ValueError:
            shift = 0  # malformed or too long: Fraction refuses it
        digits = max(sum(map(str.isdigit, part)) for part in mantissa.split("/"))
        if limit and digits + shift > limit:
            raise ValueError(f"needs more than {limit} digits")
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def exact(x):
    """x as a stored coefficient: an int as is, a Fraction with denominator 1
    as its int numerator, any other Fraction as is.  A float is refused."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, float):
        raise TypeError(f"inexact coefficient {x!r}: pass an int or a Fraction")
    return exact(Fraction(x))


def _parts(x):
    """(numerator, denominator) of an int or a Fraction; TypeError on
    anything else, a float among them."""
    if type(x) is int:
        return x, 1
    if type(x) is Fraction:
        return x.numerator, x.denominator
    raise TypeError(f"inexact coefficient {x!r}: pass an int or a Fraction")


def _quotient(n: int, d: int):
    """n/d of two ints in stored form: an int when d divides n."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def mul(a, b):
    """The exact product a*b of two ints or Fractions, in stored form: an
    int when it is integral, else a Fraction.  Two ints multiply as ints,
    a stored Fraction times 1 or -1 is itself or its negative, and any
    other pair multiplies through numerators and denominators, never the
    numbers ABCs.  A float is refused."""
    if type(a) is int:
        if type(b) is int:
            return a * b
        a, b = b, a
    n, d = _parts(a)
    if type(b) is int:
        if (b == 1 or b == -1) and d != 1:
            return a if b == 1 else -a
        return _quotient(n * b, d)
    m, e = _parts(b)
    return _quotient(n * m, d * e)


def ratio(a, b):
    """The exact quotient a/b of two ints or Fractions, in stored form, on
    the typed path of `mul`; ZeroDivisionError when b is 0, TypeError on a
    float."""
    if type(a) is int and type(b) is int:
        return _quotient(a, b)
    (n, d), (m, e) = _parts(a), _parts(b)
    return _quotient(n * e, d * m)


def rat_str(x) -> str:
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
    """A letter of the free *-algebra: one coefficient u(row,col) of a
    fundamental matrix, or its adjoint; a `selfadjoint` letter is its own.

    The field order gives the global letter order: position, then star
    (plain < star).
    """

    row: int
    col: int
    star: bool = False
    selfadjoint: bool = False

    def adjoint(self) -> "GeneratorId":
        row, col, star, selfadjoint = self
        if selfadjoint:
            return self
        return tuple.__new__(GeneratorId, (row, col, not star, False))

    def plain(self) -> "GeneratorId":
        row, col, star, _ = self
        return tuple.__new__(GeneratorId, (row, col, False, False)) if star else self

    def label(self) -> str:
        return f"u({self.row + 1},{self.col + 1}){'*' if self.star else ''}"


Word = tuple  # tuple[GeneratorId, ...]; () is the unit


class _LetterAdjoints(dict):
    """letter -> `GeneratorId.adjoint` of it, filled on first lookup.  The
    adjoint is a pure function of the letter, so the table is never stale;
    it holds one entry per letter seen."""

    __slots__ = ()

    def __missing__(self, g):
        self[g] = h = g.adjoint()
        return h


_ADJOINT = _LetterAdjoints()


def word_adjoint(w: Word) -> Word:
    """Reverse the word and take every letter's adjoint, read from the
    letter table; an involution."""
    return tuple([_ADJOINT[g] for g in w[::-1]])


def word_key(w: Word):
    """Global word order: by length, then letterwise."""
    return (len(w), w)


def word_label(w: Word) -> str:
    return " ".join(g.label() for g in w) if w else "1"


class Combination:
    """Immutable finite exact combination of keys, a dict of nonzero stored
    coefficients (see `exact`) in order of first appearance; `+` and `==`
    take only an operand of the same class, so subclasses never mix."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = add_terms({}, ((w, exact(c)) for w, c in terms.items())) if terms else {}

    @classmethod
    def _wrap(cls, terms: dict):
        """Adopt a dict of nonzero exact coefficients (see `exact`) without
        copying it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def sum(cls, elements):
        """The sum of the elements, accumulated in one dict."""
        acc = {}
        for e in elements:
            add_terms(acc, e._terms.items())
        return cls._wrap(acc)

    def terms(self):
        return self._terms.items()

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._wrap(add_terms(dict(self._terms), other._terms.items()))

    def __eq__(self, other):
        return type(other) is type(self) and self._terms == other._terms


class AlgElement(Combination):
    """A finite rational-linear combination of words (free *-algebra element)."""

    __slots__ = ()

    @classmethod
    def dot(cls, pairs, constant=0) -> "AlgElement":
        """Sum of x * y over the pairs minus the constant, in the term order
        of `sum(products) - scalar(constant)`: a product whose words can
        repeat is summed on its own before it is added to a nonempty sum."""
        acc = {}
        for x, y in pairs:
            terms = ((w1 + w2, mul(c1, c2))
                     for w1, c1 in x._terms.items() for w2, c2 in y._terms.items())
            if acc and len(x._terms) > 1 and len(y._terms) > 1:
                terms = add_terms({}, terms).items()
            add_terms(acc, terms)
        if constant:
            add_terms(acc, (((), -exact(constant)),))
        return cls._wrap(acc)

    @classmethod
    def scalar(cls, c) -> "AlgElement":
        return cls({(): exact(c)})

    @classmethod
    def one(cls) -> "AlgElement":
        return cls.scalar(1)

    @classmethod
    def generator(cls, g: GeneratorId, c=1) -> "AlgElement":
        return cls({(g,): exact(c)})

    @classmethod
    def word(cls, w: Word, c=1) -> "AlgElement":
        return cls({tuple(w): exact(c)})

    def words(self):
        return self._terms.keys()

    def coefficient(self, w: Word):
        return self._terms.get(tuple(w), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Maximal word length; zero element has degree 0."""
        return max((len(w) for w in self._terms), default=0)

    def letters(self):
        return {g for w in self._terms for g in w}

    def at(self, V):
        """The value at u(j,k) -> V[j][k], V real rows of ints or Fractions, so
        u(j,k)* goes to the same entry.  A word's letters multiply, stopping
        at 0, and only a nonzero word touches its coefficient."""
        total = 0
        for w, c in self._terms.items():
            x = 1
            for g in w:
                x *= V[g.row][g.col]
                if not x:
                    break
            else:
                total += x * c
        return total

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgElement._wrap({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, AlgElement):
            return NotImplemented
        return AlgElement.dot(((self, other),))

    def scale(self, c) -> "AlgElement":
        c = exact(c)
        if c == 1:
            return self
        if not c:
            return AlgElement.zero()
        return AlgElement._wrap({w: mul(c, v) for w, v in self._terms.items()})

    def adjoint(self) -> "AlgElement":
        """The *-operation; coefficients stay (all scalars are real)."""
        return AlgElement._wrap({word_adjoint(w): c for w, c in self._terms.items()})

    def sort_key(self):
        """Deterministic total order key on elements."""
        return tuple(
            (word_key(w), self._terms[w]) for w in sorted(self._terms, key=word_key)
        )

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


def renamer(letters: dict):
    """The *-homomorphic extension of a map of plain letters to letters,
    with no multiplication, as a function on elements; its starred image is
    built once.  Each word is renamed letter by letter, a starred letter to
    the adjoint of its plain one's image; words that collide add."""
    image = {g.adjoint(): h.adjoint() for g, h in letters.items()}
    image.update(letters)
    get = image.get
    return lambda a: AlgElement._wrap(add_terms({}, (
        (tuple([get(g, g) for g in w]), c) for w, c in a.terms())))


class ScalarMatrix:
    """Rectangular matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries):
        entries = tuple(tuple(exact(e) for e in row) for row in entries)
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
        values = [exact(v) for v in values]
        n = len(values)
        return cls([[values[j] if j == k else 0 for k in range(n)] for j in range(n)])

    def entry(self, j: int, k: int):
        return self._entries[j][k]

    def is_diagonal(self) -> bool:
        return all(
            j == k or not self._entries[j][k]
            for j in range(self.rows)
            for k in range(self.cols)
        )

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self._entries[j][k] == (1 if j == k else 0)
            for j in range(self.rows)
            for k in range(self.cols)
        )

    def __eq__(self, other):
        return isinstance(other, ScalarMatrix) and self._entries == other._entries

    def __repr__(self):
        return "[" + "; ".join(
            ", ".join(rat_str(e) for e in row) for row in self._entries
        ) + "]"
