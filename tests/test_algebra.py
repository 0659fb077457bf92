import random
from fractions import Fraction as F

import pytest

import cqgkac as k
from cqgkac import algebra
from cqgkac.algebra import (
    AlgElement, ScalarMatrix, ShapeError, add_terms, word_adjoint,
)

from conftest import (
    bar, dense_inverse, dense_product, gen, letter, random_element, substitute,
)


def test_word_adjoint_unit_and_single_letter():
    assert word_adjoint(()) == ()
    assert word_adjoint((gen(0, 0),)) == (gen(0, 0, star=True),)


def test_word_adjoint_reverses_and_toggles():
    w = (gen(0, 0), gen(0, 1, star=True))
    assert word_adjoint(w) == (gen(0, 1), gen(0, 0, star=True))


def test_selfadjoint_letter_is_its_own_adjoint_and_plain_letter():
    z = gen(2, 1, selfadjoint=True)
    assert z.adjoint() is z and z.plain() is z and not z.star
    assert z.label() == gen(2, 1).label() == "u(3,2)"
    assert z != gen(2, 1) and z.adjoint() != gen(2, 1, star=True)
    # the plain kind of a starred letter drops the star only
    assert gen(2, 1, star=True).plain() == gen(2, 1)
    assert not gen(2, 1, star=True).plain().selfadjoint


def test_word_adjoint_keeps_selfadjoint_letters():
    z = gen(1, 1, selfadjoint=True)
    w = (z, gen(0, 1), z, gen(1, 0, star=True))
    assert word_adjoint(w) == (gen(1, 0), z, gen(0, 1, star=True), z)
    assert word_adjoint((z, z)) == (z, z)
    assert word_adjoint(word_adjoint(w)) == w
    assert AlgElement.word(w).adjoint() == AlgElement.word(word_adjoint(w))


def test_selfadjoint_letters_order_by_position():
    # the letter order is row, col, star: a self-adjoint letter
    # sits at its position, after the plain and starred letters of
    # earlier positions and before those of later ones
    letters = [
        gen(0, 1), gen(0, 1, star=True), gen(1, 0, selfadjoint=True),
        gen(1, 1), gen(2, 0, selfadjoint=True),
    ]
    assert sorted(reversed(letters)) == letters
    assert gen(1, 0) < gen(1, 0, selfadjoint=True) < gen(1, 0, star=True)


def test_word_adjoint_involution_sampled():
    rng = random.Random(1)
    letters = [gen(j, c, s) for j in range(2) for c in range(2) for s in (False, True)]
    for _ in range(200):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        assert word_adjoint(word_adjoint(w)) == w


def test_build_takes_each_letter_adjoint_once(monkeypatch):
    # word_adjoint reads every letter's adjoint from one table, so a
    # case-II N = 8 build computes the adjoint of each of the 64 letters
    # of its u at most once; per word it took 1,216.  A fresh table is
    # counted, the shared one is restored afterwards.
    monkeypatch.setattr(algebra, "_ADJOINT", type(algebra._ADJOINT)())
    calls = []
    adjoint = k.GeneratorId.adjoint
    monkeypatch.setattr(k.GeneratorId, "adjoint", lambda g: calls.append(g) or adjoint(g))
    p = k.build_presentation(k.BlockSpec("case-II", ((F(1, 4), 1), (F(1, 2), 1), (F(1), 2))))
    letters = {g for row in p.u for x in row for g in x.letters()}
    assert len(letters) == 64 and 0 < len(calls) <= len(letters)
    table = dict(algebra._ADJOINT)
    assert all(type(g) is type(h) is k.GeneratorId for g, h in table.items())
    assert all(table.get(h, g) == g for g, h in table.items())
    for r in p.relations:
        assert all(word_adjoint(word_adjoint(w)) == w for w in r.words())


def test_elem_mul_single_words():
    a = letter(0, 0)
    b = letter(0, 0, star=True)
    assert a * b == AlgElement.word((gen(0, 0), gen(0, 0, star=True)))


def test_elem_mul_unit_word_scalars():
    assert AlgElement.scalar(2) * letter(0, 1).scale(F(3, 2)) == letter(0, 1).scale(3)


def test_add_terms_drops_zeros_and_keeps_first_appearance_order():
    acc = {"a": F(1), "b": F(2)}
    out = add_terms(acc, [("c", F(3)), ("a", F(-1)), ("b", F(1)), ("z", F(0)), ("a", F(5))])
    assert out is acc
    # "a" cancelled and came back, so it moves last; "b" keeps its place
    assert list(acc.items()) == [("b", F(3)), ("c", F(3)), ("a", F(5))]


def test_elem_mul_distributes():
    a = letter(0, 0) + letter(0, 1)
    b = letter(1, 0)
    expected = AlgElement.word((gen(0, 0), gen(1, 0))) + AlgElement.word((gen(0, 1), gen(1, 0)))
    assert a * b == expected


def test_elem_adjoint_examples():
    ab = AlgElement.word((gen(0, 0), gen(0, 1)))
    assert ab.adjoint() == AlgElement.word((gen(0, 1, star=True), gen(0, 0, star=True)))
    assert AlgElement.zero().adjoint() == AlgElement.zero()


def test_elem_adjoint_linear():
    rng = random.Random(2)
    letters = [gen(j, c, s) for j in range(2) for c in range(2) for s in (False, True)]
    for _ in range(100):
        a = random_element(rng, letters)
        b = random_element(rng, letters)
        assert (a + b).adjoint() == a.adjoint() + b.adjoint()


def test_elem_substitute_kills_generator():
    sigma = {gen(1, 0): AlgElement.zero()}
    assert substitute(letter(1, 0), sigma).is_zero()
    w = AlgElement.word((gen(1, 0, star=True), gen(1, 0)))
    assert substitute(w, sigma).is_zero()


def test_elem_substitute_partial():
    sigma = {gen(1, 0): AlgElement.zero()}
    a = AlgElement.word((gen(0, 0), gen(1, 0))) + letter(0, 0)
    assert substitute(a, sigma) == letter(0, 0)


def test_elem_substitute_adjoint_follows_image():
    sigma = {gen(0, 1): letter(1, 0, star=True).scale(F(1, 4))}
    starred = letter(0, 1, star=True)
    assert substitute(starred, sigma) == letter(1, 0).scale(F(1, 4))


def test_symplectic_conjugation_matches_hand_expansion():
    # F (bar U) F^-1 for the 2x2 symplectic F, expanded by hand
    f = k.symplectic_matrix(1)
    a, b, c, d = letter(0, 0), letter(0, 1), letter(1, 0), letter(1, 1)
    conj = dense_product(f, bar([[a, b], [c, d]]), dense_inverse(f))
    assert conj[0][0] == d.adjoint()
    assert conj[0][1] == -c.adjoint()
    assert conj[1][0] == -b.adjoint()
    assert conj[1][1] == a.adjoint()


def test_shape_errors():
    # the constructor refuses ragged and empty rows
    x = F(1, 2)
    for rows in ([[x, x], [x]], [[x], [x, x]], [], [[]]):
        with pytest.raises(ShapeError):
            ScalarMatrix(rows)


def test_rational_arithmetic_round_trips():
    rng = random.Random(5)
    for _ in range(500):
        a = F(rng.randint(-50, 50), rng.randint(1, 50))
        b = F(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a + b) - b == a
        assert a.denominator > 0
