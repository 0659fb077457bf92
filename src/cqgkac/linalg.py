"""Exact sparse row echelon over the integers, and integer word columns.

Rows are dicts mapping a column to a nonzero coefficient.  Callers may pass
`int` or `Fraction` coefficients; inside `SparseEchelon` every row is an
integer vector, and every stored pivot row is primitive (content 1) with a
positive lead.  A row is stored once its lead is found: it is reduced up to
its lead, and later columns may still be pivot columns.

Column order.  Columns are integers, and the lead of a row is its least
column.  Callers pick the order through the ids they give: the bounded ideal
uses `WordIndex`, whose numeric order is the `word_key` order of the words,
and the trace layer numbers free symbols before nonnegative ones.

Reduction is fraction-free.  To clear column c of a row r against the pivot
p with lead c, put g = gcd(p_c, r_c) and replace r by (p_c/g)·r − (r_c/g)·p.
Leads come off a heap of the row's columns.  Every step is exact integer
arithmetic.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm


class WordIndex:
    """Integer column ids of the words over a finite alphabet, in
    `word_key` order.

    The words of length L take the ids offset(L) .. offset(L+1) − 1, where
    offset(L) = n^0 + … + n^(L−1) for n letters.  Within a length, a word
    reads as base-n digits over the sorted letters.  So ids cover words of
    every length, and id order is length first, then letterwise.
    """

    def __init__(self, letters):
        self.letters = tuple(sorted(set(letters)))
        self.n = len(self.letters)
        self.digit = {g: i for i, g in enumerate(self.letters)}
        self._offsets = [0]

    def offset(self, length: int) -> int:
        """The id of the least word of the given length."""
        offsets = self._offsets
        while len(offsets) <= length:
            offsets.append(offsets[-1] + self.n ** (len(offsets) - 1))
        return offsets[length]

    def value(self, w) -> int:
        """The word read as base-n digits; its rank among words of its length."""
        v = 0
        try:
            for g in w:
                v = v * self.n + self.digit[g]
        except KeyError as exc:
            raise ValueError(f"letter {exc.args[0]!r} is not in the index alphabet") from None
        return v

    def encode(self, w) -> int:
        return self.offset(len(w)) + self.value(w)

    def row(self, terms) -> dict:
        """A (word, coefficient) sequence as a row over word ids."""
        return {self.encode(w): c for w, c in terms}


class SparseEchelon:
    """Incremental row echelon form, fraction-free over the integers.

    `pivots` maps each lead column to its stored primitive integer row.
    """

    def __init__(self):
        self.pivots = {}

    def _integer_row(self, row: dict) -> dict:
        """An integer row that is a positive multiple of row."""
        den = lcm(*(c.denominator for c in row.values()))
        return {col: c.numerator * (den // c.denominator) for col, c in row.items() if c}

    def _reduce(self, vec: dict):
        """Clear the pivot columns of vec before its lead, in place; returns
        the lead, the least column that is no pivot column (None when vec
        reduces to zero)."""
        pivots = self.pivots
        heap = list(vec)
        heapify(heap)
        last = None
        while heap:
            c = heappop(heap)
            if c == last:
                continue
            last = c
            rc = vec.get(c)
            if rc is None:
                continue
            p = pivots.get(c)
            if p is None:
                # columns pop in increasing order, and later pivots only
                # touch larger columns: the first free column is the lead
                return c
            lead = p[c]
            g = gcd(lead, rc)
            if g != lead:
                a = lead // g
                for k in vec:
                    vec[k] *= a
            b = rc // g
            # the lead entry itself cancels to zero here
            for k, v in p.items():
                s = vec.get(k)
                if s is None:
                    vec[k] = -b * v
                    heappush(heap, k)
                else:
                    s -= b * v
                    if s:
                        vec[k] = s
                    else:
                        del vec[k]
        return None

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it was independent."""
        vec = self._integer_row(row)
        lead = self._reduce(vec)
        if lead is None:
            return False
        g = gcd(*vec.values())
        if vec[lead] < 0:
            g = -g
        if g != 1:
            vec = {k: v // g for k, v in vec.items()}
        self.pivots[lead] = vec
        return True

    def contains(self, row: dict) -> bool:
        """Whether the row lies in the span of the inserted rows."""
        return self._reduce(self._integer_row(row)) is None

    def rank(self) -> int:
        return len(self.pivots)
