import random
from fractions import Fraction as F

import pytest

import cqgkac as k
from cqgkac import quotient
from cqgkac.algebra import AlgElement, ScalarMatrix
from cqgkac.presentations import canonicalize_relations

from conftest import (
    block_positions, gen, ideal_membership_bounded, letter, one_block_spec, random_element,
    reference_kac_target, specs_up_to, substitute,
)


def test_quotient_one_block_leaves_unitary_relations():
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    q = k.quotient_by_zero(p, [gen(1, 0)])
    assert q.generators == (gen(0, 0),)
    verdict = k.match_presentations(q, k.expected_kac_target(one_block_spec(F(1, 2), 1, 1)))
    assert verdict.matched and verdict.mode == "exact-set"


def test_quotient_empty_set_is_identity():
    p = k.build_presentation(one_block_spec(F(1, 3), 2, -1))
    q = k.quotient_by_zero(p, [])
    assert q.relations == p.relations and q.generators == p.generators


def test_quotient_unknown_generator_rejected():
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    with pytest.raises(ValueError):
        k.quotient_by_zero(p, [gen(5, 5)])


def test_unknown_id_of_the_other_kind_is_named():
    # u(3,3) of case-I (1/2)+1 is a self-adjoint letter; a plain id at that
    # position prints the same label, so the error says which kind is there
    p = k.build_presentation(k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1))
    with pytest.raises(ValueError,
                       match=r"\['u\(3,3\)'\]; u\(3,3\) is self-adjoint here$"):
        k.quotient_by_zero(p, [gen(2, 2)])
    q = k.quotient_by_zero(p, [gen(2, 2, selfadjoint=True)])
    assert q.generators == tuple(g for g in p.generators if g != gen(2, 2, selfadjoint=True))
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    with pytest.raises(ValueError, match=r"u\(2,1\) is plain here$"):
        k.quotient_by_zero(p, [gen(1, 0, selfadjoint=True)])
    with pytest.raises(ValueError, match=r"^unknown generators: \['u\(6,6\)'\]$"):
        k.quotient_by_zero(p, [gen(5, 5)])


def test_kac_target_is_the_reference_at_its_blocks():
    # the target shifted by `BlockSpec.offsets` equals the one substituted
    # into the named blocks of `layout_ranges`, on every small spec
    for spec in specs_up_to(4):
        assert k.expected_kac_target(spec) == reference_kac_target(spec), spec


def test_kac_target_generators_are_the_kac_survivors():
    for spec in specs_up_to(4):
        report, final = k.kac_fixpoint(k.build_presentation(spec))
        assert not report.undetermined, spec
        assert k.expected_kac_target(spec).generators == final.generators, spec


def test_quotient_case_one_leaves_hermitian_tail():
    spec = k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1)
    p = k.build_presentation(spec)
    kill = [gen(*pos) for name in ("C[1,1]", "X[1]", "R[1]")
            for pos in block_positions(spec, name)]
    q = k.quotient_by_zero(p, kill)
    verdict = k.match_presentations(q, k.expected_kac_target(spec))
    assert verdict.matched and verdict.mode == "exact-set"
    # the tail is one self-adjoint letter z with z z = 1, no z - z* relation
    z = letter(2, 2, selfadjoint=True)
    assert q.generators == (gen(0, 0), gen(2, 2, selfadjoint=True))
    assert canonicalize_relations((z * z - AlgElement.one(),))[0] in q.relations
    assert all(r.degree() == 2 for r in q.relations)


def test_quotient_composition_examples():
    p = k.build_presentation(one_block_spec(F(1, 2), 2, 1))
    s1 = [gen(2, 0)]
    s2 = [gen(3, 1)]
    seq = k.quotient_by_zero(k.quotient_by_zero(p, s1), s2)
    joint = k.quotient_by_zero(p, s1 + s2)
    assert seq.relations == joint.relations
    assert seq.generators == joint.generators


def _quotient_by_substitution(p, gens):
    """Reference: send the generators to zero with the `substitute` oracle."""
    sigma = {g: AlgElement.zero() for g in gens}
    return k.Presentation(
        [g for g in p.generators if g not in sigma],
        [substitute(r, sigma) for r in p.relations],
        substitute(p.u, sigma), p.q, p.f, label=p.label,
    )


@pytest.mark.parametrize("spec", [
    k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 2))),
    one_block_spec(F(1, 2), 2, -1),
    k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1),
    k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1))),
])
def test_quotient_by_zero_equals_substitution_by_zero(spec):
    p = k.build_presentation(spec)
    rng = random.Random(5)
    for _ in range(20):
        gens = rng.sample(p.generators, rng.randint(1, len(p.generators)))
        q, ref = k.quotient_by_zero(p, gens), _quotient_by_substitution(p, gens)
        assert q.generators == ref.generators
        assert q.relations == ref.relations
        assert q.u == ref.u


def test_canonicalize_scales_and_dedupes():
    r = letter(0, 0) * letter(0, 0) - AlgElement.one()
    doubled = r.scale(2)
    p = k.Presentation(
        [gen(0, 0)], [r, doubled, r.adjoint()],
        [[letter(0, 0)]], ScalarMatrix.identity(1),
    )
    assert len(p.relations) == 1


def test_canonicalize_idempotent_and_order_independent():
    rng = random.Random(17)
    letters = [gen(j, c, s) for j in range(2) for c in range(2) for s in (False, True)]
    for _ in range(100):
        rels = [random_element(rng, letters) for _ in range(4)]
        once = canonicalize_relations(rels)
        assert canonicalize_relations(once) == once
        shuffled = list(rels)
        rng.shuffle(shuffled)
        assert canonicalize_relations(shuffled) == once


def test_expected_targets():
    target = k.expected_kac_target(one_block_spec(F(1, 2), 2, 1))
    assert target.label == "Pol(U_2^+)"
    target = k.expected_kac_target(
        k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=1)
    )
    assert target.label == "Pol(U_1^+) * Pol(U_2^+) * Pol(O_1^+)"
    assert len(target.generators) == 1 + 4 + 1
    target = k.expected_kac_target(
        k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1)))
    )
    assert target.label == "Pol(U_1^+) * Pol(O_J1^+)"


def test_match_self_with_identity_renaming():
    # the target sits on the source letters: a presentation matches itself
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    verdict = k.match_presentations(p, p)
    assert verdict.matched and verdict.mode == "exact-set"


def test_match_symmetric_under_inverse_renaming():
    # swapping the sides swaps the relations left over on each
    spec = one_block_spec(F(1, 2), 2, -1)
    p = k.build_presentation(spec)
    _, final = k.kac_fixpoint(p)
    target = k.expected_kac_target(spec)
    forward = k.match_presentations(final, target)
    backward = k.match_presentations(target, final)
    assert forward.matched == backward.matched == True  # noqa: E712
    forward = k.match_presentations(p, target)
    backward = k.match_presentations(target, p)
    assert not forward.matched and not backward.matched
    assert forward.unmatched_derived == backward.unmatched_target != ()
    assert forward.unmatched_target == backward.unmatched_derived


@pytest.mark.parametrize("swap", [False, True], ids=["extra-in-target", "extra-in-derived"])
def test_match_refuses_an_extra_generator_on_either_side(swap):
    # u(1,2) added to one side's generators, in no relation: the relation
    # sets still agree, and only the generator comparison sees it
    spec = k.BlockSpec("unitary", ((F(1, 2), 1), (F(1), 1)))
    _, final = k.kac_fixpoint(k.build_presentation(spec))
    target = k.expected_kac_target(spec)
    assert k.match_presentations(final, target).matched
    wider = target._replace(generators=tuple(sorted((*target.generators, gen(0, 1)))))
    verdict = k.match_presentations(*((wider, final) if swap else (final, wider)))
    assert not verdict.matched and verdict.mode == "structural"
    assert verdict.unmatched_derived == ((gen(0, 1),) if swap else ())
    assert verdict.unmatched_target == (() if swap else (gen(0, 1),))


def test_match_takes_each_letter_adjoint_a_bounded_number_of_times(monkeypatch):
    # the target's starred image of each factor's shift is built once, 2
    # adjoints a letter; rebuilding it per relation costs 40 times this
    # at N = 8.  The factors are built before counting.
    spec = k.BlockSpec("unitary", ((F(1, 2), 4), (F(1), 4)))
    for name in ("build_universal_unitary", "build_universal_orthogonal"):
        built, real = {}, getattr(quotient, name)
        monkeypatch.setattr(quotient, name, lambda m, built=built, real=real:
                            built.get(m.rows) or built.setdefault(m.rows, real(m)))
    target = k.expected_kac_target(spec)
    calls = []
    adjoint = k.GeneratorId.adjoint
    monkeypatch.setattr(k.GeneratorId, "adjoint", lambda g: calls.append(g) or adjoint(g))
    assert k.expected_kac_target(spec) == target
    assert len(target.relations) > 2 and 0 < len(calls) <= 2 * len(target.generators)


def test_ideal_membership_direct_and_cofactored():
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    rels = p.relations
    r = rels[0]
    assert ideal_membership_bounded(r, rels, max(4, r.degree()))
    x = letter(0, 0) * r * letter(0, 1)
    assert ideal_membership_bounded(x, rels, x.degree())


def test_ideal_membership_generator_not_found():
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    assert not ideal_membership_bounded(letter(0, 0), p.relations, 4)


def test_ideal_membership_bound_too_small():
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    x = letter(0, 0) * p.relations[0] * letter(0, 1)
    with pytest.raises(ValueError):
        ideal_membership_bounded(x, p.relations, x.degree() - 1)


def test_ideal_membership_monotone_in_bound():
    p = k.build_universal_orthogonal(k.symplectic_matrix(1))
    rels = p.relations
    instances = list(rels)
    instances.append(letter(0, 0) * rels[0])
    instances.append(rels[1] * letter(1, 0, star=True))
    instances.append(letter(0, 0))
    instances.append(letter(1, 0) * letter(0, 0))
    results = {}
    for d in (2, 3, 4):
        for x in instances:
            if x.degree() > d:
                continue
            results.setdefault(x.sort_key(), []).append(
                ideal_membership_bounded(x, rels, d)
            )
    for history in results.values():
        # once found, membership persists at larger bounds
        assert history == sorted(history)
