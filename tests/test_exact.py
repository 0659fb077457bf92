"""Exact coefficients: ints where integral, Fractions otherwise, never
floats; and the letterwise renaming against the `substitute` oracle."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqgkac as k
from cqgkac.algebra import AlgElement, ScalarMatrix, exact, mul, ratio, renamer
from cqgkac.quotient import expected_kac_target, match_presentations
from cqgkac.trace import _recombine

from conftest import gen, letter, specs_up_to, substitute


def _stored(c):
    """An exact coefficient in stored form: an integral value is an int."""
    return type(c) is int or (type(c) is F and c.denominator != 1)


def _coefficients(elements):
    return [c for e in elements for _w, c in e.terms()]


def test_every_coefficient_of_build_kac_and_match_is_exact_on_specs_up_to_four():
    specs = specs_up_to(4)
    assert len(specs) == 187
    for spec in specs:
        p = k.build_presentation(spec)
        entries = [x for row in p.u for x in row]
        assert all(map(_stored, _coefficients(p.relations))), spec
        assert all(map(_stored, _coefficients(entries))), spec
        kac, final = k.kac_fixpoint(p)
        cert = kac.certificate
        assert (cert is None) == (not kac.forced), spec
        if cert is not None:
            assert all(_stored(m) for _i, m in cert.multipliers), spec
            assert all(map(_stored, cert.coefficients.values())), spec
            assert _stored(_recombine(kac.equations, cert.multipliers)[0]), spec
        assert all(map(_stored, _coefficients(final.relations))), spec
        if not kac.undetermined:
            target = expected_kac_target(spec)
            verdict = match_presentations(final, target)
            assert verdict.matched, spec
            assert all(map(_stored, _coefficients(target.relations))), spec


@pytest.mark.parametrize("make", [
    lambda: AlgElement({(gen(0, 0),): 0.5}),
    lambda: AlgElement.scalar(0.5),
    lambda: AlgElement.generator(gen(0, 0), 0.5),
    lambda: AlgElement.word((gen(0, 0),), 0.5),
    lambda: letter(0, 0).scale(0.5),
    lambda: ScalarMatrix([[0.5]]),
    lambda: ScalarMatrix.diagonal([1, 0.5]),
    lambda: ratio(0.5, 1),
    lambda: ratio(1, 0.5),
    lambda: mul(0.5, 1),
    lambda: mul(1, 0.5),
    lambda: mul(-1, 0.5),
    lambda: mul(F(1, 2), 0.5),
])
def test_floats_are_refused(make):
    with pytest.raises(TypeError):
        make()


def test_exact_and_ratio_keep_integral_values_as_ints():
    assert type(exact(F(4, 2))) is int and exact(F(4, 2)) == 2
    assert exact(F(1, 2)) == F(1, 2) and exact(3) == 3
    assert type(AlgElement.scalar(F(6, 3)).coefficient(())) is int
    assert type(ScalarMatrix([[F(2, 1)]]).entry(0, 0)) is int
    assert type(ratio(6, -3)) is int and ratio(6, -3) == -2
    assert ratio(1, 3) == F(1, 3) and ratio(-4, 6) == F(-2, 3)
    assert type(ratio(F(1, 2), F(1, 4))) is int and ratio(F(1, 2), F(1, 4)) == 2
    assert ratio(2, F(3, 2)) == F(4, 3)
    with pytest.raises(ZeroDivisionError):
        ratio(1, 0)


HUGE = 10 ** 400
_near_huge = st.integers(HUGE - 3, HUGE + 3)
# ints, small fractions (integral ones among them), +-1, 0, and values near
# 10^400 and 10^-400 of either sign
EXACT_VALUES = st.one_of(
    st.sampled_from((0, 1, -1)),
    st.integers(-6, 6),
    st.fractions(-3, 3, max_denominator=6),
    _near_huge,
    _near_huge.map(lambda n: -n),
    st.builds(F, st.integers(-3, 3), _near_huge),
    st.builds(F, _near_huge, st.integers(-7, 7).filter(bool)),
)


@settings(max_examples=400, deadline=None)
@given(EXACT_VALUES, EXACT_VALUES)
def test_mul_and_ratio_equal_fraction_arithmetic_in_stored_form(a, b):
    product = mul(a, b)
    assert product == F(a) * b and _stored(product)
    if b:
        quotient = ratio(a, b)
        assert quotient == F(a) / b and _stored(quotient)
    else:
        with pytest.raises(ZeroDivisionError):
            ratio(a, b)


def test_scale_by_one_is_the_element_itself():
    a = letter(0, 0) + letter(0, 1).scale(F(1, 2))
    assert a.scale(1) is a and a.scale(F(1)) is a


# letters of the random elements: plain, starred and self-adjoint
WORD_LETTERS = (gen(0, 0), gen(0, 0, star=True), gen(0, 1), gen(0, 1, star=True),
                gen(1, 1, selfadjoint=True))
KEYS = (gen(0, 0), gen(0, 1), gen(1, 1, selfadjoint=True))
IMAGES = (gen(0, 0), gen(0, 1), gen(3, 2), gen(3, 2, star=True),
          gen(4, 4, selfadjoint=True))


@st.composite
def elements(draw):
    words = st.lists(st.sampled_from(WORD_LETTERS), max_size=3).map(tuple)
    coefficients = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))
    return AlgElement(draw(st.dictionaries(words, coefficients, max_size=5)))


@settings(max_examples=200, deadline=None)
@given(elements(), st.dictionaries(st.sampled_from(KEYS), st.sampled_from(IMAGES)))
def test_rename_matches_substitute_by_generators(a, letters):
    # the maps need not be injective: words that collide add
    got = renamer(letters)(a)
    want = substitute(a, {g: AlgElement.generator(h) for g, h in letters.items()})
    assert got == want
    assert list(got.terms()) == list(want.terms())


def test_rename_adds_colliding_terms():
    u11, u12 = gen(0, 0), gen(0, 1)
    a = letter(0, 0) + letter(0, 1).scale(2) + AlgElement.word((u12, u11.adjoint()))
    merged = renamer({u12: u11})(a)
    assert merged == letter(0, 0).scale(3) + AlgElement.word((u11, u11.adjoint()))
    assert renamer({u12: u11})(letter(0, 0) - letter(0, 1)).is_zero()
