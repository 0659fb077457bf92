import math
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings

import cqgkac as k
import cqgkac.cli as cli
from cqgkac import numeric
from cqgkac.algebra import AlgElement, ScalarMatrix
from cqgkac.numeric import NumAssignment, _candidates

from conftest import (
    LADDER, gen, letter, one_block_spec, small_specs, specs_up_to, transposition_candidates,
    undetermined_presentation, verify_character_by_terms,
)


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    return q


def test_identity_point_every_standard_spec():
    specs = [
        one_block_spec(F(1, 2), 1, 1),
        k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1),
        k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1))),
        k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 2))),
    ]
    for spec in specs:
        p = k.build_presentation(spec)
        n = len(p.u)
        point = k.classical_point(p, np.eye(n))
        assert k.eval_residual(p, point).max_residual == 0.0


def test_symplectic_rotation_point():
    p = k.build_universal_orthogonal(k.symplectic_matrix(1))
    v = np.array([[0, 1], [-1, 0]], dtype=complex)
    point = k.classical_point(p, v)
    assert k.eval_residual(p, point).max_residual <= 1e-12


def test_block_diagonal_point_for_twisted_unitary():
    q = ScalarMatrix.diagonal([F(1, 4), 1, 1])
    p = k.build_universal_unitary(q)
    rng = np.random.default_rng(23)
    v = np.zeros((3, 3), dtype=complex)
    v[0, 0] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    v[1:, 1:] = _random_unitary(rng, 2)
    point = k.classical_point(p, v)
    assert k.eval_residual(p, point).max_residual <= 1e-10


def test_non_commuting_unitary_rejected_and_has_residual():
    q = ScalarMatrix.diagonal([F(1, 4), F(4)])
    p = k.build_universal_unitary(q)
    v = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    with pytest.raises(ValueError, match="not unitary"):
        k.classical_point(p, v)
    # bypass the prechecks: the twisted relations really are violated
    assignment = NumAssignment({g: v[g.row, g.col] for g in p.generators})
    assert k.eval_residual(p, assignment).max_residual > 0.1


def test_non_unitary_rejected_with_defect():
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    with pytest.raises(ValueError, match="unitary"):
        k.classical_point(p, 2 * np.eye(2))


def test_reality_violation_rejected():
    p = k.build_universal_orthogonal(k.symplectic_matrix(1))
    v = np.diag([1j, 1j])
    with pytest.raises(ValueError, match="reality"):
        k.classical_point(p, v)


def test_real_rotation_with_untwistable_q_rejected():
    # V is unitary, but Q conj(V) Q^-1 = [[c, -s/4], [4s, c]] is not
    p = k.build_presentation(k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 1))))
    c, s = math.cos(0.3), math.sin(0.3)
    with pytest.raises(ValueError, match=r"Q conj\(V\) Q\^-1 is not unitary: defect 1\.991e\+00"):
        k.classical_point(p, [[c, -s], [s, c]])


def test_unitary_diagonal_point_failing_reality_rejected():
    # F conj(V) F^-1 = diag(-i, 1) for the symplectic F, so V - it = diag(1 + i, i - 1)
    p = k.build_universal_orthogonal(k.symplectic_matrix(1))
    with pytest.raises(ValueError, match=r"V fails the reality condition .*: defect 2\.000e\+00"):
        k.classical_point(p, [[1, 0], [0, 1j]])


@pytest.mark.parametrize("spec, message", [
    (k.BlockSpec("unitary", ((F(1, 10**400), 1), (F(1), 1))), r"Q conj\(V\) Q\^-1 is not unitary"),
    (k.BlockSpec("one-block", ((F(1, 10**400), 1),)), r"V fails the reality condition"),
], ids=["unitary-Q", "one-block-F"])
def test_point_twisted_past_the_float_range_rejected(spec, message):
    # V is nonzero where the twist multiplies by 10^400, past the float
    # range: the twist condition rejects V, no OverflowError escapes
    p = k.build_presentation(spec)
    with pytest.raises(ValueError, match=message):
        k.classical_point(p, [[0, 1], [1, 0]])


def test_nested_lists_are_accepted_as_points():
    p = k.build_universal_orthogonal(k.symplectic_matrix(1))
    point = k.classical_point(p, [[0, 1], [-1, 0]])
    assert point.values == {g: complex([[0, 1], [-1, 0]][g.row][g.col]) for g in p.generators}
    assert k.eval_residual(p, point).max_residual <= 1e-12
    q = k.build_universal_unitary(ScalarMatrix.diagonal([F(1, 4), 1, 1]))
    assert k.eval_residual(q, k.classical_point(q, ((1, 0, 0), (0, 0, 1j), (0, 1j, 0)))).max_residual == 0.0


@pytest.mark.parametrize(
    "V", ([[1, 0], [0]], [[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0]], [[1]], []),
    ids=("ragged", "3x2", "2x3", "1x1", "empty"),
)
def test_wrong_shaped_points_rejected(V):
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    with pytest.raises(ValueError, match="V has shape"):
        k.classical_point(p, V)


@pytest.mark.parametrize("V", ([1, 0], [[1, None], [0, 1]]), ids=("flat", "none-entry"))
def test_points_that_are_not_matrices_of_numbers_rejected(V):
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    with pytest.raises(ValueError, match="not a 2x2 matrix of numbers"):
        k.classical_point(p, V)


@pytest.mark.parametrize("x", (float("nan"), float("inf"), complex("nan+1j")))
def test_non_finite_points_rejected(x):
    u1 = k.build_universal_unitary(ScalarMatrix.identity(1))
    with pytest.raises(ValueError, match="not unitary"):
        k.classical_point(u1, [[x]])
    oj = k.build_universal_orthogonal(k.symplectic_matrix(1))
    with pytest.raises(ValueError, match="not unitary"):
        k.classical_point(oj, [[x, 0], [0, x]])


def test_eval_residual_rejects_values_that_are_not_numbers():
    p = k.build_universal_unitary(ScalarMatrix.identity(1))
    with pytest.raises(ValueError, match="not a number"):
        k.eval_residual(p, NumAssignment({gen(0, 0): "1"}))


def test_residual_invariant_under_unitary_conjugation():
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    rng = np.random.default_rng(29)
    found = k.rep_search(p)
    assert found is not None
    w = _random_unitary(rng, 1)[0, 0]
    conjugated = NumAssignment(
        {g: w * x * w.conjugate() for g, x in found.values.items()}
    )
    r1 = k.eval_residual(p, found)
    r2 = k.eval_residual(p, conjugated)
    assert abs(r1.max_residual - r2.max_residual) <= 1e-12


def test_eval_residual_missing_generator():
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    with pytest.raises(ValueError, match="misses"):
        k.eval_residual(p, NumAssignment({gen(0, 0): 1.0}))


def test_rep_search_small_targets():
    u1 = k.build_universal_unitary(ScalarMatrix.identity(1))
    found = k.rep_search(u1)
    assert found is not None
    report = k.eval_residual(u1, found)
    assert report.max_residual < 1e-8
    assert abs(abs(found.values[gen(0, 0)]) - 1) < 1e-6

    o1 = k.build_universal_orthogonal(ScalarMatrix.identity(1))
    found = k.rep_search(o1)
    assert found is not None
    assert k.eval_residual(o1, found).max_residual < 1e-8
    value = found.values[gen(0, 0, selfadjoint=True)]
    assert min(abs(value - 1), abs(value + 1)) < 1e-6

    oj = k.build_universal_orthogonal(k.symplectic_matrix(1))
    found = k.rep_search(oj)
    assert found is not None
    assert k.eval_residual(oj, found).max_residual < 1e-8


def test_eval_residual_needs_real_values_on_selfadjoint_letters():
    # a complex orthogonal V, V^t V = I but V not real, satisfies every
    # listed relation of O_2^+; only the reality of its self-adjoint
    # letters, |x - conj(x)| = 2 |Im x|, tells that it is no *-character
    o2 = k.build_universal_orthogonal(ScalarMatrix.identity(2))
    c, s = math.cosh(0.5), 1j * math.sinh(0.5)
    V = [[c, s], [-s, c]]
    report = k.eval_residual(o2, NumAssignment({g: V[g.row][g.col] for g in o2.generators}))
    assert len(report.residuals) == len(o2.relations) + 4
    assert max(report.residuals[:len(o2.relations)]) < 1e-12
    assert report.max_residual == pytest.approx(2 * math.sinh(0.5))


def test_rep_search_deterministic():
    p = k.build_universal_orthogonal(k.symplectic_matrix(1))
    a = k.rep_search(p)
    b = k.rep_search(p)
    assert a is not None and b is not None
    for g in p.generators:
        assert a.values[g] == b.values[g]


def _scalar_point(p, V):
    """u(j,k) -> V[j][k] with none of classical_point's prechecks."""
    return NumAssignment({g: complex(V[g.row][g.col]) for g in p.generators})


def _verify_fails(p, V, match):
    with pytest.raises(k.CharacterError, match=match):
        k.verify_character(p, V)


def test_verify_character_rejects_matrices_that_are_not_signed_permutations():
    p = k.build_presentation(k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 2))))
    assert k.verify_character(p, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for V in (
        [[1, 0, 0], [0, 1, 0], [0, 1, 0]],
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
    ):
        _verify_fails(p, V, "not a signed permutation")
    _verify_fails(p, [[1.0, 0, 0], [0, 1, 0], [0, 0, 1]], "non-integer")
    _verify_fails(p, [[True, 0, 0], [0, 1, 0], [0, 0, 1]], "non-integer")


def test_verify_character_rejects_the_wrong_shape():
    p = k.build_presentation(k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 2))))
    for V in ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
        _verify_fails(p, V, "not 3x3")


def test_verify_character_names_the_relation_a_cross_class_swap_breaks():
    # u(1,1) and u(2,2) lie in the eigenvalue classes 1/4 and 1 of Q; a
    # transposition across them breaks the twisted unitarity of Q Ubar Q^-1:
    # the closed form names the identity entry, the term-by-term oracle the
    # relation
    p = k.build_presentation(k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 2))))
    V = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    _verify_fails(p, V, r"^V breaks QUbarQ\^-1Ut-I\[1,1\]: Q_1 != Q_2$")
    with pytest.raises(k.CharacterError, match=r"rel\[\d+\] evaluates to") as err:
        verify_character_by_terms(p, V)
    i = int(str(err.value).split("[")[1].split("]")[0])
    # the float residuals agree: rel[i] is the first relation V breaks
    residuals = k.eval_residual(p, k.classical_point(p, np.eye(3))).residuals
    assert not any(residuals)
    residuals = k.eval_residual(p, _scalar_point(p, V)).residuals
    assert not any(residuals[:i]) and residuals[i] > 0.1


def test_verify_character_checks_the_eliminated_entries():
    # one-block with q = 1/2 keeps u(1,1), u(2,1); reality gives u(2,2) =
    # u(1,1)*, so diag(1, -1) satisfies every stored relation yet is not the
    # image of the fundamental matrix
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    V = [[1, 0], [0, -1]]
    assert k.eval_residual(p, _scalar_point(p, V)).max_residual == 0.0
    _verify_fails(p, V, r"fundamental entry \(2,2\)")


def test_rep_search_at_dimension_one_is_the_counit():
    spec = k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1)))
    p = k.build_presentation(spec)
    first = next(k.characters(p))
    assert first == tuple(tuple(int(j == c) for c in range(4)) for j in range(4))
    found = k.rep_search(p)
    assert found.values == {
        g: first[g.row][g.col] for g in p.generators
    }
    assert k.eval_residual(p, found).max_residual == 0.0


# the six match-workload specs of 16-34 generators
LARGE = {
    "unitary-1/4x2-1/2x1-1x2": k.BlockSpec("unitary", ((F(1, 4), 2), (F(1, 2), 1), (F(1), 2))),
    "one-block-1/2x4": one_block_spec(F(1, 2), 4, 1),
    "one-block-1/3x3-eps-1": one_block_spec(F(1, 3), 3, -1),
    "case-I-1/3x1-1/2x2+2": k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=2),
    "case-II-1/4-1/2-1x2": k.BlockSpec("case-II", ((F(1, 4), 1), (F(1, 2), 1), (F(1), 2))),
    "unitary-1/8-1/4-1/2-1": k.BlockSpec(
        "unitary", ((F(1, 8), 1), (F(1, 4), 1), (F(1, 2), 1), (F(1), 1))
    ),
}


def _largest_class(p):
    """max |C| over the eigenvalue classes C of p's Q."""
    return max(Counter(p.q.entry(j, j) for j in range(p.q.rows)).values())


def _verified(p, candidates):
    """The candidates that pass verify_character."""
    for V in candidates:
        try:
            k.verify_character(p, V)
        except k.CharacterError:
            continue
        yield V


@pytest.mark.parametrize("spec", LARGE.values(), ids=LARGE.keys())
def test_characters_cover_the_target_generators_of_large_specs(spec):
    # The target's generators are the Kac survivors whenever match
    # succeeds, as it does on all six.  The enumeration has max |C|
    # candidates, one class shift per offset, and asking for every
    # generator drains it.
    p = k.build_presentation(spec)
    survivors = set(k.expected_kac_target(spec).generators)
    bound = _largest_class(p)
    cover = k.witness_characters(p, survivors)
    assert not cover.uncovered and set(cover.witness) == survivors
    assert cover.tried <= bound
    for V in cover.characters:
        assert k.verify_character(p, V)
    every = k.witness_characters(p, p.generators)
    assert set(every.witness) == survivors
    assert set(every.uncovered) == set(p.generators) - survivors
    assert every.tried <= bound


@settings(max_examples=15, deadline=None)
@given(small_specs())
def test_every_generator_is_dead_or_witnessed_on_small_specs(spec):
    assert spec.size <= 6
    p = k.build_presentation(spec)
    report, final = k.kac_fixpoint(p)
    dead = set(report.forced)
    assert (report.certificate is None) == (not dead)
    if dead:
        proven = k.verify_certificate(report.certificate, report.equations)
        assert proven == {k.generator_symbol(g) for g in dead}
    for V in (*_verified(p, transposition_candidates(p)), *_candidates(p)):
        assert not any(V[g.row][g.col] for g in dead)
    cover = k.witness_characters(p, p.generators)
    for V in cover.characters:
        assert k.verify_character(p, V)
    alive = set(cover.witness)
    assert alive.isdisjoint(dead) and alive | dead == set(p.generators)
    assert alive == set(final.generators) == set(k.expected_kac_target(spec).generators)


def _value_reference(element, V):
    """The element at u(j,k) -> V[j][k], one Fraction product per letter."""
    total = F(0)
    for w, c in element.terms():
        for g in w:
            c *= V[g.row][g.col]
        total += c
    return total


@pytest.mark.parametrize("spec", LADDER.values(), ids=LADDER.keys())
def test_integer_first_value_matches_fraction_reference_on_ladder(spec):
    p = k.build_presentation(spec)
    n = spec.size
    entries = [p.u[j][c] for j in range(n) for c in range(n)]
    nonzero = 0
    for V in (*transposition_candidates(p), *_candidates(p)):
        for element in (*p.relations, *entries):
            value = element.at(V)
            assert value == _value_reference(element, V)
            nonzero += bool(value)
    assert nonzero  # some oracle candidate breaks some relation


def test_cover_has_one_character_per_offset_up_to_n4():
    # each offset s < max |C| is the only one nonzero on some position of a
    # largest class, so the cover needs every shift and draws no other
    specs = specs_up_to(4)
    assert len(specs) == 187
    for spec in specs:
        p = k.build_presentation(spec)
        cover = k.kac_fixpoint(p)[0].cover
        assert len(cover.characters) == cover.tried == _largest_class(p), spec
        assert not cover.uncovered, spec


@pytest.mark.parametrize("spec, count", [
    (k.BlockSpec("unitary", ((F(1, 2), 6), (F(1), 6))), 6),
    (k.BlockSpec("case-II", ((F(1, 2), 3), (F(1), 3))), 6),
    (k.BlockSpec("case-I", ((F(1, 3), 2), (F(1, 2), 2)), trailing=4), 4),
], ids=["unitary-1/2x6-1x6", "case-II-1/2x3-1x3", "case-I-1/3x2-1/2x2+4"])
def test_cover_size_at_n12(spec, count):
    assert spec.size == 12
    p = k.build_presentation(spec)
    cover = k.kac_fixpoint(p)[0].cover
    assert len(cover.characters) == cover.tried == count
    assert not cover.uncovered
    for V in cover.characters:
        assert k.verify_character(p, V)


def test_a_shift_that_breaks_a_relation_is_skipped(monkeypatch):
    # Q-classes {1,2} and {3}; the extra relation u(1,1) - 1 holds at the
    # identity and fails at the offset-1 shift, which moves u(1,1) to 0.
    # Such a presentation is not in builder form, which verify_character
    # refuses, so the enumeration runs on the term-by-term oracle
    monkeypatch.setattr(numeric, "verify_character", verify_character_by_terms)
    p = k.build_presentation(k.BlockSpec("unitary", ((F(1, 2), 2), (F(1), 1))))
    p = k.Presentation(p.generators, [*p.relations, letter(0, 0) - AlgElement.one()], p.u, p.q)
    identity, shift = _candidates(p)
    assert shift[0][1] == 1
    assert list(k.characters(p)) == [identity]
    # u(1,1) is witnessed by the identity, and the enumeration stops there
    assert k.witness_characters(p, [gen(0, 0)]) == ((identity,), {gen(0, 0): 0}, (), 1)
    # the identity is zero on u(1,2) and not verified; the shift is
    # verified and fails, so u(1,2) is left uncovered
    assert k.witness_characters(p, [gen(0, 1)]) == ((), {}, (gen(0, 1),), 2)


def test_generators_outside_the_layout_are_never_witnessed():
    # u(1,3) has no entry in the 2 x 2 fundamental matrix
    p = undetermined_presentation(one_block_spec(F(1, 2), 1, 1))
    outside = gen(0, 2)
    assert outside in p.generators
    _verify_fails(p, [[1, 0], [0, 1]], r"u\(1,3\) lies outside the 2x2")
    cover = k.witness_characters(p, p.generators)
    assert cover.uncovered == tuple(p.generators) and not cover.characters


def _accepts(verify, p, V):
    try:
        return verify(p, V)
    except k.CharacterError:
        return False


def test_closed_form_characters_agree_with_the_term_by_term_oracle_up_to_four():
    # on the sources and their Kac quotients (in builder form too), over
    # every candidate of both enumerators and seeded random signed
    # permutations, the closed form accepts exactly what the oracle accepts
    rng = random.Random(38)
    specs = specs_up_to(4)
    assert len(specs) == 187
    checks = accepted = 0
    for spec in specs:
        n = spec.size
        p = k.build_presentation(spec)
        final = k.kac_fixpoint(p)[1]
        assert final.defining, spec
        randoms = []
        for _ in range(4):
            perm = rng.sample(range(n), n)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            randoms.append([[signs[j] * (c == perm[j]) for c in range(n)] for j in range(n)])
        for P in (p, final):
            for V in (*_candidates(P), *transposition_candidates(P), *randoms):
                verdict = _accepts(k.verify_character, P, V)
                assert verdict == _accepts(verify_character_by_terms, P, V), (spec, V)
                checks += 1
                accepted += verdict
    assert accepted and checks - accepted


@pytest.mark.parametrize("doc", [
    {"kind": "unitary", "blocks": [{"q": "1e-400"}, {"q": "1"}]},
    {"kind": "one-block", "blocks": [{"q": "1e-300"}], "epsilon": -1},
    {"kind": "case-I", "blocks": [{"q": "1e-300"}], "trailing": 1},
    {"kind": "case-II", "blocks": [{"q": "1e-200"}, {"q": "1"}]},
])
def test_numeric_stage_takes_ratios_too_large_for_a_float(doc):
    # Q holds ratios beyond the float range; the identity point and the
    # character are zero wherever such a ratio would multiply them
    code, report = cli.run(cli.parse_config(doc), "report")
    assert code == 0
    assert report["numeric"] == {
        "classical_identity": {"max_residual": 0.0},
        "rep_search": {"found": True, "max_residual": 0.0},
    }
