import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings

import cqgkac as k
from cqgkac.algebra import ScalarMatrix
from cqgkac.numeric import NumAssignment, _candidates, _value

from conftest import LADDER, gen, one_block_spec, small_specs, undetermined_presentation


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
        n = p.u.rows
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


def test_free_products_are_refused_with_one_message():
    spec = k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1)))
    target, renaming = k.expected_kac_target(spec)
    assert target.u is None
    calls = (
        lambda: k.rep_search(target),
        lambda: k.classical_point(target, [[1]]),
        lambda: k.verify_character(target, [[1]]),
        lambda: k.witness_characters(target, renaming.values()),
        lambda: next(k.characters(target)),
    )
    for call in calls:
        with pytest.raises(ValueError, match="a fundamental matrix is needed"):
            call()


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
    value = found.values[gen(0, 0)]
    assert min(abs(value - 1), abs(value + 1)) < 1e-6

    oj = k.build_universal_orthogonal(k.symplectic_matrix(1))
    found = k.rep_search(oj)
    assert found is not None
    assert k.eval_residual(oj, found).max_residual < 1e-8


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
    # transposition across them breaks the twisted unitarity of Q Ubar Q^-1
    p = k.build_presentation(k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 2))))
    V = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    with pytest.raises(k.CharacterError, match=r"rel\[\d+\] evaluates to") as err:
        k.verify_character(p, V)
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


@pytest.mark.parametrize("spec", LARGE.values(), ids=LARGE.keys())
def test_characters_cover_the_target_generators_of_large_specs(spec):
    # The target's renamed generators are the Kac survivors whenever match
    # succeeds, as it does on all six.  The enumeration has at most N^2 + 1
    # candidates, and asking for every generator drains it.
    p = k.build_presentation(spec)
    _, renaming = k.expected_kac_target(spec)
    bound = spec.size ** 2 + 1
    cover = k.witness_characters(p, renaming)
    assert not cover.uncovered and set(cover.witness) == set(renaming)
    assert cover.tried <= bound
    for V in cover.characters:
        assert k.verify_character(p, V)
    every = k.witness_characters(p, p.generators)
    assert set(every.witness) == set(renaming)
    assert set(every.uncovered) == set(p.generators) - set(renaming)
    assert every.tried <= bound


@settings(max_examples=15, deadline=None)
@given(small_specs())
def test_every_generator_is_dead_or_witnessed_on_small_specs(spec):
    assert spec.size <= 6
    p = k.build_presentation(spec)
    report, final = k.kac_fixpoint(p)
    dead = set()
    for g, cert, rnd in report.certificates:
        assert k.verify_certificate(cert, report.rounds[rnd].equations)
        dead.add(g)
    for V in k.characters(p):
        assert not any(V[g.row][g.col] for g in dead)
    cover = k.witness_characters(p, p.generators)
    for V in cover.characters:
        assert k.verify_character(p, V)
    alive = set(cover.witness)
    assert alive.isdisjoint(dead) and alive | dead == set(p.generators)
    _, renaming = k.expected_kac_target(spec)
    assert alive == final.generator_set() == set(renaming)


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
    entries = [p.u.entry(j, c) for j in range(n) for c in range(n)]
    nonzero = 0
    for V in _candidates(p):
        for element in (*p.relations, *entries):
            value = _value(element, V)
            assert value == _value_reference(element, V)
            nonzero += bool(value)
    assert nonzero  # some candidate breaks some relation


def test_generators_outside_the_layout_are_never_witnessed():
    # u(1,3) has no entry in the 2 x 2 fundamental matrix
    p = undetermined_presentation(one_block_spec(F(1, 2), 1, 1))
    outside = gen(0, 2)
    assert outside in p.generators
    _verify_fails(p, [[1, 0], [0, 1]], r"u\(1,3\) lies outside the 2x2")
    cover = k.witness_characters(p, p.generators)
    assert cover.uncovered == tuple(p.generators) and not cover.characters
