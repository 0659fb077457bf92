import random
from fractions import Fraction as F

import pytest

import cqgkac as k
from cqgkac.algebra import (
    AlgElement, AlgMatrix, ScalarMatrix, ShapeError, add_terms, word_adjoint,
)

from conftest import gen, letter, random_element


def test_word_adjoint_unit_and_single_letter():
    assert word_adjoint(()) == ()
    assert word_adjoint((gen(0, 0),)) == (gen(0, 0, star=True),)


def test_word_adjoint_reverses_and_toggles():
    w = (gen(0, 0), gen(0, 1, star=True))
    assert word_adjoint(w) == (gen(0, 1), gen(0, 0, star=True))


def test_word_adjoint_involution_sampled():
    rng = random.Random(1)
    letters = [gen(j, c, s) for j in range(2) for c in range(2) for s in (False, True)]
    for _ in range(200):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        assert word_adjoint(word_adjoint(w)) == w


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
    assert letter(1, 0).substitute(sigma).is_zero()
    w = AlgElement.word((gen(1, 0, star=True), gen(1, 0)))
    assert w.substitute(sigma).is_zero()


def test_elem_substitute_partial():
    sigma = {gen(1, 0): AlgElement.zero()}
    a = AlgElement.word((gen(0, 0), gen(1, 0))) + letter(0, 0)
    assert a.substitute(sigma) == letter(0, 0)


def test_elem_substitute_adjoint_follows_image():
    sigma = {gen(0, 1): letter(1, 0, star=True).scale(F(1, 4))}
    starred = letter(0, 1, star=True)
    assert starred.substitute(sigma) == letter(1, 0).scale(F(1, 4))


def test_scalar_embed_identity_acts_trivially():
    i2 = ScalarMatrix.identity(2).embed()
    m = AlgMatrix([[letter(0, 0), letter(0, 1)], [letter(1, 0), letter(1, 1)]])
    assert i2 * m == m


def test_mat_star_two_by_two():
    m = AlgMatrix([[letter(0, 0), letter(0, 1)], [letter(1, 0), letter(1, 1)]])
    s = m.star()
    assert s.entry(0, 0) == letter(0, 0, star=True)
    assert s.entry(0, 1) == letter(1, 0, star=True)
    assert s.entry(1, 0) == letter(0, 1, star=True)
    assert s.entry(1, 1) == letter(1, 1, star=True)


def test_symplectic_conjugation_matches_hand_expansion():
    # F (bar U) F^-1 for the 2x2 symplectic F, expanded by hand
    f = k.symplectic_matrix(1)
    a, b, c, d = letter(0, 0), letter(0, 1), letter(1, 0), letter(1, 1)
    u = AlgMatrix([[a, b], [c, d]])
    conj = f.embed() * u.bar() * f.inverse().embed()
    assert conj.entry(0, 0) == d.adjoint()
    assert conj.entry(0, 1) == -c.adjoint()
    assert conj.entry(1, 0) == -b.adjoint()
    assert conj.entry(1, 1) == a.adjoint()


def test_mat_star_antimultiplicative():
    rng = random.Random(3)
    letters = [gen(j, c, s) for j in range(2) for c in range(2) for s in (False, True)]
    for _ in range(50):
        m = AlgMatrix([[random_element(rng, letters, 2, 2) for _ in range(2)] for _ in range(2)])
        n = AlgMatrix([[random_element(rng, letters, 2, 2) for _ in range(2)] for _ in range(2)])
        assert (m * n).star() == n.star() * m.star()
        assert m.star().star() == m
        assert m.bar() == m.star().transpose()


def test_shape_errors():
    m = AlgMatrix([[letter(0, 0)]])
    wide = AlgMatrix([[letter(0, 0), letter(0, 1)]])
    with pytest.raises(ShapeError):
        wide * m  # 1x2 times 1x1
    with pytest.raises(ShapeError):
        m - wide


def test_scalar_matrix_inverse_exact():
    s = ScalarMatrix([[F(1, 2), 0], [F(1), F(3)]])
    assert s * s.inverse() == ScalarMatrix.identity(2)
    with pytest.raises(ValueError):
        ScalarMatrix([[1, 1], [1, 1]]).inverse()


def test_scalar_embed_is_ring_homomorphism():
    rng = random.Random(4)
    for _ in range(100):
        s = ScalarMatrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)])
        t = ScalarMatrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)])
        assert (s * t).embed() == s.embed() * t.embed()


def test_rational_arithmetic_round_trips():
    rng = random.Random(5)
    for _ in range(500):
        a = F(rng.randint(-50, 50), rng.randint(1, 50))
        b = F(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a + b) - b == a
        assert a.denominator > 0
