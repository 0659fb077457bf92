from fractions import Fraction as F

import pytest

import cqgkac as k
from cqgkac.algebra import AlgElement, ScalarMatrix
from cqgkac.hopf import (
    MorphismSpec,
    TensorElement,
    _coassociator,
    _letter_coproduct,
    _presentation_letters,
    default_central_morphism,
)

from conftest import gen, letter, one_block_spec, specs_up_to


def _u2():
    return k.build_universal_unitary(ScalarMatrix.identity(2))


def test_coproduct_of_generator():
    p = _u2()
    delta = k.coproduct(p, letter(0, 0))
    expected = TensorElement.of(letter(0, 0), letter(0, 0)) + TensorElement.of(
        letter(0, 1), letter(1, 0)
    )
    assert delta == expected


def test_coproduct_of_unit():
    p = _u2()
    assert k.coproduct(p, AlgElement.one()) == TensorElement({((), ()): F(1)})


def test_coproduct_of_quadratic_word_matches_hand_expansion():
    p = _u2()
    b = letter(0, 0, star=True) * letter(0, 1)
    delta = k.coproduct(p, b)
    expected = TensorElement.zero()
    for a in range(2):
        for c in range(2):
            left = letter(0, a, star=True) * letter(0, c)
            right = letter(a, 0, star=True) * letter(c, 1)
            expected = expected + TensorElement.of(left, right)
    assert delta == expected


def test_counit_values():
    p = _u2()
    assert k.counit(p, letter(0, 1)) == 0
    assert k.counit(p, letter(0, 0)) == 1
    assert k.counit(p, letter(0, 0) * letter(1, 1) - AlgElement.one()) == 0


def test_antipode_on_letters():
    p = _u2()
    assert k.antipode(p, letter(0, 1)) == letter(1, 0, star=True)
    assert k.antipode(p, letter(0, 1, star=True)) == letter(1, 0)


def test_antipode_collapses_coproduct_to_unitarity_sum():
    p = _u2()
    for j in range(2):
        for c in range(2):
            delta = k.coproduct(p, letter(j, c))
            total = AlgElement.zero()
            for (w1, w2), coeff in delta.terms():
                total = total + k.antipode(p, AlgElement.word(w1, coeff)) * AlgElement.word(w2)
            expected = AlgElement.zero()
            for l in range(2):
                expected = expected + letter(l, j, star=True) * letter(l, c)
            assert total == expected
            diff = total - AlgElement.scalar(int(j == c))
            assert k.ideal_membership_bounded(diff, p.relations, max(2, diff.degree()))


def test_letters_outside_layout_rejected():
    p = _u2()
    with pytest.raises(ValueError):
        k.coproduct(p, letter(5, 0))
    with pytest.raises(ValueError):
        k.counit(p, letter(0, 0, factor=3))


def test_hopf_axioms_rank_one():
    p = k.build_universal_unitary(ScalarMatrix.identity(1))
    report = k.hopf_axiom_check(p)
    assert report.all_pass


def test_hopf_axioms_symplectic_with_relation_invariance():
    p = k.build_universal_orthogonal(k.symplectic_matrix(1))
    report = k.hopf_axiom_check(p)
    assert report.all_pass
    assert set(report.relations.values()) == {"pass"}


def test_hopf_axioms_twisted_unitary():
    p = k.build_universal_unitary(ScalarMatrix.diagonal([F(1, 4), F(4)]))
    report = k.hopf_axiom_check(p)
    assert report.all_pass


def test_coassociativity_exact_on_universal_unitary():
    for n in (1, 2, 3):
        p = k.build_universal_unitary(ScalarMatrix.identity(n))
        report = k.hopf_axiom_check(p)
        assert report.coassociativity and report.counit


def test_every_coassociator_is_zero_in_the_free_algebra():
    # the trailing block of case I holds self-adjoint letters, so every
    # eliminated position is a letter's exact adjoint image and
    # (D x id)D = (id x D)D needs no relation on any spec
    specs = specs_up_to(4)
    assert sum(spec.kind == "case-I" and spec.trailing > 0 for spec in specs) >= 10
    for spec in specs:
        p = k.build_presentation(spec)
        deltas = {g: _letter_coproduct(p, g) for g in _presentation_letters(p)}
        for g in p.generators:
            assert _coassociator(deltas, deltas[g]) == {}, (spec, g.label())
    for spec in (
        k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1),
        k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=2),
    ):
        report = k.hopf_axiom_check(k.build_presentation(spec))
        assert report.coassociativity and report.all_pass


@pytest.mark.parametrize("spec", [
    one_block_spec(F(1, 2), 1, 1),
    one_block_spec(F(1, 2), 2, -1),
    k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 2))),
    k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1),
    k.BlockSpec("case-II", ((F(1, 3), 1), (F(1, 2), 1))),
])
def test_hopf_degree_is_derived_from_the_items(spec):
    # every item of a builder presentation is quadratic, so the ideal is
    # truncated at degree 2 whatever the size
    report = k.hopf_axiom_check(k.build_presentation(spec))
    assert report.bound == 2
    assert report.all_pass


def test_flip_involutive():
    p = _u2()
    t = k.coproduct(p, letter(0, 0) * letter(1, 1))
    assert t.flip().flip() == t


def test_central_morphism_symplectic():
    assert k.central_morphism_check(k.build_universal_orthogonal(k.symplectic_matrix(1)))
    assert k.central_morphism_check(k.build_universal_orthogonal(k.symplectic_matrix(2)))


def test_central_morphism_perturbed_fails():
    # send one kept diagonal letter to t and the other to 1
    p = k.build_universal_orthogonal(k.symplectic_matrix(2))
    images = dict(default_central_morphism(p).images)
    images[gen(1, 1)] = (F(1), F(0))
    assert not k.central_morphism_check(p, MorphismSpec(images))


def test_central_morphism_requires_symplectic_shape():
    with pytest.raises(ValueError):
        k.central_morphism_check(k.build_presentation(one_block_spec(F(1, 2), 1, 1)))
