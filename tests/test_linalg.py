"""Differential and property tests for the integer echelon kernel and the
word-to-column index."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqgkac as k
from cqgkac.algebra import AlgElement, word_key
from cqgkac.linalg import SparseEchelon, WordIndex
from cqgkac.quotient import _with_adjoints, bounded_ideal_echelon

from conftest import gen, one_block_spec, residue, substitute


class ReferenceEchelon:
    """Reduced row echelon form over Fraction, by plain Gauss-Jordan."""

    def __init__(self):
        self.rows = {}  # pivot column -> row with 1 there and 0 on other pivots

    def residue(self, row):
        out = {c: F(v) for c, v in row.items() if v}
        for p, prow in self.rows.items():
            f = out.get(p)
            if f:
                for c, v in prow.items():
                    out[c] = out.get(c, 0) - f * v
                out = {c: v for c, v in out.items() if v}
        return out

    def add(self, row):
        r = self.residue(row)
        if not r:
            return False
        lead = min(r)
        r = {c: v / r[lead] for c, v in r.items()}
        for p, prow in self.rows.items():
            f = prow.get(lead)
            if f:
                self.rows[p] = {c: v for c in prow.keys() | r.keys()
                                if (v := prow.get(c, 0) - f * r.get(c, 0))}
        self.rows[lead] = r
        return True


coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=5)
rows = st.dictionaries(st.integers(0, 11), coefficients, max_size=6)
row_lists = st.lists(rows, max_size=12)


def _combine(a, x, y):
    out = {c: a * x.get(c, 0) + y.get(c, 0) for c in x.keys() | y.keys()}
    return {c: v for c, v in out.items() if v}


@settings(max_examples=150, deadline=None)
@given(row_lists, rows)
def test_echelon_matches_reference_gauss_jordan(inserted, probe):
    ech, ref = SparseEchelon(), ReferenceEchelon()
    for row in inserted:
        assert ech.add(row) == ref.add(row)
    assert ech.rank() == len(ref.rows)
    assert set(ech.pivots) == set(ref.rows)
    for row in inserted + [probe]:
        assert residue(ech, row) == ref.residue(row)
        assert ech.contains(row) == (not ref.residue(row))


@settings(max_examples=80, deadline=None)
@given(row_lists, rows, rows, coefficients)
def test_residue_is_linear(inserted, x, y, a):
    ech = SparseEchelon()
    for row in inserted:
        ech.add(row)
    rx, ry = residue(ech, x), residue(ech, y)
    assert residue(ech, _combine(a, x, y)) == _combine(a, rx, ry)
    assert all(c not in ech.pivots for c in rx)


def test_stored_pivot_rows_are_primitive_integer_rows():
    ech = SparseEchelon()
    ech.add({0: F(2, 3), 1: F(4, 9), 5: F(-2)})
    ech.add({1: F(-1, 2), 3: 6})
    assert set(ech.pivots) == {0, 1}
    for lead, row in ech.pivots.items():
        assert lead == min(row) and row[lead] > 0
        assert all(isinstance(v, int) for v in row.values())
        assert math.gcd(*row.values()) == 1


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_word_index_round_trips_and_keeps_word_order(n):
    letters = [gen(0, j, star) for j in range(2) for star in (False, True)][:n]
    index = WordIndex(reversed(letters))
    words = [w for length in range(4) for w in itertools.product(letters, repeat=length)]
    words.sort(key=word_key)
    assert [index.encode(w) for w in words] == list(range(len(words)))


def test_word_index_rejects_foreign_letters_and_ids():
    index = WordIndex([gen(0, 0)])
    with pytest.raises(ValueError):
        index.encode((gen(1, 1),))


def _assert_rows_equal_word_products(p):
    # rows built from integer ids span what the AlgElement products span
    letters = _with_adjoints(p.generators)
    index = WordIndex(letters)
    ech = bounded_ideal_echelon(p.relations, letters, 3)
    ref = ReferenceEchelon()
    for r in p.relations:
        for s in (r, r.adjoint()):
            room = 3 - s.degree()
            for a in range(room + 1):
                for left in itertools.product(letters, repeat=a):
                    for b in range(room - a + 1):
                        for right in itertools.product(letters, repeat=b):
                            prod = AlgElement.word(left) * s * AlgElement.word(right)
                            ref.add(index.row(prod.terms()))
                            assert ech.contains(index.row(prod.terms()))
    assert ech.rank() == len(ref.rows)
    assert set(ech.pivots) == set(ref.rows)


def test_bounded_ideal_rows_equal_word_products():
    _assert_rows_equal_word_products(k.build_presentation(one_block_spec(F(1, 2), 1, 1)))


def test_bounded_ideal_rows_equal_word_products_over_a_selfadjoint_letter():
    # u(3,3) is one letter, listed once among the 9 columns' letters
    p = k.build_presentation(k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1))
    assert len(_with_adjoints(p.generators)) == 9
    _assert_rows_equal_word_products(p)


@pytest.mark.parametrize(
    "spec, rank",
    [
        (one_block_spec(F(1, 2), 1, 1), 286),
        (k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1), 3841),
    ],
)
def test_bounded_ideal_ranks_at_bound_four(spec, rank):
    p = k.build_presentation(spec)
    assert bounded_ideal_echelon(p.relations, _with_adjoints(p.generators), 4).rank() == rank


def test_selfadjoint_letter_keeps_the_bounded_quotient():
    # u(3,3) written as a plain letter with the relation u(3,3) - u(3,3)*
    # spans 7571 of the 11111 words of length <= 4 over 10 letters; the
    # self-adjoint letter spans 3841 of 7381 over 9: both quotients have
    # dimension 3540
    p = k.build_presentation(k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1))
    z = p.generators[-1]
    assert z.selfadjoint
    plain = AlgElement.generator(z._replace(selfadjoint=False))
    rels = [substitute(r, {z: plain}) for r in p.relations] + [plain - plain.adjoint()]
    letters = _with_adjoints(sorted({g.plain() for r in rels for g in r.letters()}))
    hermitian = bounded_ideal_echelon(rels, letters, 4).rank()
    selfadjoint = bounded_ideal_echelon(p.relations, _with_adjoints(p.generators), 4).rank()
    words = [sum(n ** i for i in range(5)) for n in (len(letters), 9)]
    assert (hermitian, selfadjoint) == (7571, 3841)
    assert words[0] - hermitian == words[1] - selfadjoint == 3540

