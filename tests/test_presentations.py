from fractions import Fraction as F

import pytest

import cqgkac as k
from cqgkac.algebra import AlgElement, ScalarMatrix
from cqgkac.presentations import Block, normalize_relation

from conftest import gen, letter, one_block_spec


def test_standard_form_case_one():
    spec = k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1)
    f = k.standard_form_matrix(spec)
    assert f == ScalarMatrix([[0, F(1, 2), 0], [2, 0, 0], [0, 0, 1]])


def test_standard_form_one_block_negative_sign():
    f = k.standard_form_matrix(one_block_spec(F(1, 2), 1, -1))
    assert f == ScalarMatrix([[0, F(1, 2)], [-2, 0]])


def test_standard_form_case_two_unit_block_is_symplectic():
    f = k.standard_form_matrix(k.BlockSpec("case-II", ((F(1), 1),)))
    assert f == ScalarMatrix([[0, 1], [-1, 0]])
    assert f == k.symplectic_matrix(1)


def test_block_spec_validation():
    with pytest.raises(ValueError):
        k.BlockSpec("case-I", ((F(3, 2), 1),), trailing=1)  # q >= 1
    with pytest.raises(ValueError):
        k.BlockSpec("case-I", ((F(1, 2), 1), (F(1, 2), 1)), trailing=0)  # not increasing
    with pytest.raises(ValueError):
        k.BlockSpec("case-II", ((F(1), 1), (F(1, 2), 1)))  # 1 before smaller q
    with pytest.raises(ValueError):
        k.BlockSpec("one-block", ((F(1, 2), 1),), epsilon=2)
    with pytest.raises(ValueError):
        k.BlockSpec("sporadic", ((F(1, 2), 1),))


def test_eigenvalue_profile_case_one():
    spec = k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1)
    prof = k.eigenvalue_profile(k.standard_form_matrix(spec))
    assert prof == [(F(1, 4), 1), (F(1), 1), (F(4), 1)]


def test_eigenvalue_profile_symplectic():
    assert k.eigenvalue_profile(k.symplectic_matrix(1)) == [(F(1), 2)]


def test_eigenvalue_profile_against_direct_product():
    f = k.standard_form_matrix(one_block_spec(F(1, 2), 2, 1))
    # oracle: form F^T F with plain loops and read the diagonal
    n = f.rows
    diag = {}
    for i in range(n):
        v = sum(f.entry(l, i) * f.entry(l, i) for l in range(n))
        diag[v] = diag.get(v, 0) + 1
    assert k.eigenvalue_profile(f) == sorted(diag.items())
    assert k.eigenvalue_profile(f) == [(F(1, 4), 2), (F(4), 2)]


def test_eigenvalue_profile_rejects_non_monomial():
    with pytest.raises(ValueError):
        k.eigenvalue_profile(ScalarMatrix([[1, 1], [0, 1]]))


def test_universal_unitary_rank_one_is_circle_algebra():
    p = k.build_universal_unitary(ScalarMatrix.identity(1))
    u = gen(0, 0)
    uu = AlgElement.word((u, u.adjoint()))
    uu2 = AlgElement.word((u.adjoint(), u))
    expected = {
        normalize_relation(uu - AlgElement.one()).sort_key(),
        normalize_relation(uu2 - AlgElement.one()).sort_key(),
    }
    assert {r.sort_key() for r in p.relations} == expected


def test_universal_unitary_two_by_two_counts():
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    assert len(p.generators) == 4
    # at Q = I the twist degenerates to unitarity of bar(U)
    assert len(p.relations) == 12


def test_universal_unitary_twisted_coefficient_ratio():
    # hand expansion of the twisted identity at (1,1) for Q = diag(1/4, 4):
    # u11 u11* + 16 u21 u21* = 1
    p = k.build_universal_unitary(ScalarMatrix.diagonal([F(1, 4), F(4)]))
    expected = (
        AlgElement.one()
        - AlgElement.word((gen(0, 0), gen(0, 0, star=True)))
        - AlgElement.word((gen(1, 0), gen(1, 0, star=True)), 16)
    )
    keys = {r.sort_key() for r in p.relations}
    assert normalize_relation(expected).sort_key() in keys


def test_universal_unitary_rejects_bad_q():
    with pytest.raises(ValueError):
        k.build_universal_unitary(ScalarMatrix([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        k.build_universal_unitary(ScalarMatrix.diagonal([1, -1]))


def test_universal_orthogonal_rank_one_is_order_two_group():
    p = k.build_universal_orthogonal(ScalarMatrix.identity(1))
    u = gen(0, 0)
    hermitian = normalize_relation(letter(0, 0) - letter(0, 0, star=True))
    assert hermitian.sort_key() in {r.sort_key() for r in p.relations}
    assert p.generators == (u,)


def test_universal_orthogonal_symplectic_fundamental_shape():
    p = k.build_universal_orthogonal(k.symplectic_matrix(1))
    mat = p.fundamental()
    a, c = letter(0, 0), letter(1, 0)
    assert mat.entry(0, 0) == a
    assert mat.entry(0, 1) == -c.adjoint()
    assert mat.entry(1, 0) == c
    assert mat.entry(1, 1) == a.adjoint()


def test_universal_orthogonal_one_block_forcing():
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    mat = p.fundamental()
    assert mat.entry(0, 1) == letter(1, 0, star=True).scale(F(1, 4))
    assert mat.entry(1, 1) == letter(0, 0, star=True)


def test_universal_orthogonal_rejects_bad_reality():
    with pytest.raises(ValueError):
        k.build_universal_orthogonal(ScalarMatrix.diagonal([1, 2]))


def test_standard_forms_have_exact_reality_product():
    cases = [
        (one_block_spec(F(1, 2), 2, 1), 1),
        (one_block_spec(F(1, 3), 1, -1), -1),
        (k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=1), 1),
        (k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1))), -1),
    ]
    for spec, sign in cases:
        f = k.standard_form_matrix(spec)
        assert f * f == ScalarMatrix.identity(f.rows).scale(sign)


def test_reality_substitution_one_block():
    spec = one_block_spec(F(1, 2), 1, 1)
    f = k.standard_form_matrix(spec)
    raw = k.build_universal_unitary(f.star() * f)
    sigma, kept = k.reality_substitution(raw, f)
    assert kept == [gen(0, 0), gen(1, 0)]
    assert sigma == {
        gen(0, 1): letter(1, 0, star=True).scale(F(1, 4)),
        gen(1, 1): letter(0, 0, star=True),
    }


def test_reality_substitution_symplectic_matches_hand_expansion():
    f = k.symplectic_matrix(1)
    raw = k.build_universal_unitary(f.star() * f)
    sigma, kept = k.reality_substitution(raw, f)
    # oracle: expand F bar(U) F^-1 on the raw generator matrix directly
    u = k.AlgMatrix([[letter(0, 0), letter(0, 1)], [letter(1, 0), letter(1, 1)]])
    image = f.embed() * u.bar() * f.inverse().embed()
    for g, value in sigma.items():
        assert value == image.entry(g.row, g.col)
    assert sigma == {
        gen(0, 1): -letter(1, 0, star=True),
        gen(1, 1): letter(0, 0, star=True),
    }


def test_reality_substitution_keeps_trailing_hermitian_relation():
    spec = k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1)
    p = k.build_presentation(spec)
    assert gen(2, 2) in p.generators
    hermitian = normalize_relation(letter(2, 2) - letter(2, 2, star=True))
    assert hermitian.sort_key() in {r.sort_key() for r in p.relations}


def test_reality_substitution_annihilates_reality_entries():
    for spec in (
        one_block_spec(F(1, 2), 2, -1),
        k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 1)), trailing=1),
        k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1))),
    ):
        f = k.standard_form_matrix(spec)
        raw = k.build_universal_unitary(f.star() * f)
        sigma, kept = k.reality_substitution(raw, f)
        n = f.rows
        u = k.AlgMatrix(
            [[letter(j, c) for c in range(n)] for j in range(n)]
        )
        h = u - f.embed() * u.bar() * f.inverse().embed()
        kept_set = set(kept)
        pi = [next(col for col in range(n) if f.entry(row, col)) for row in range(n)]
        for j in range(n):
            for c in range(n):
                entry = h.entry(j, c).substitute(sigma)
                if (pi[j], pi[c]) != (j, c):
                    assert entry.is_zero()
                else:
                    # self-paired hermitian entries survive over kept letters
                    assert {g.plain() for g in entry.letters()} <= kept_set


def test_relations_use_only_kept_generators():
    for spec in (
        one_block_spec(F(1, 2), 2, 1),
        k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=1),
        k.BlockSpec("case-II", ((F(1, 3), 1), (F(1, 2), 1))),
    ):
        p = k.build_presentation(spec)
        kept = set(p.generators)
        for r in p.relations:
            assert {g.plain() for g in r.letters()} <= kept


def test_free_product_single_part_retags():
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    fp = k.free_product([p])
    assert fp.sizes == p.sizes
    assert {g.factor for g in fp.generators} == {0}


def test_free_product_counts_additive():
    p1 = k.build_universal_unitary(ScalarMatrix.identity(1))
    p2 = k.build_universal_unitary(ScalarMatrix.identity(2))
    fp = k.free_product([p1, p2])
    assert len(fp.generators) == 1 + 4
    assert len(fp.relations) == len(p1.relations) + len(p2.relations)
    assert {g.factor for g in fp.generators} == {0, 1}


def test_free_product_theorem_target_size():
    parts = [
        k.build_universal_unitary(ScalarMatrix.identity(1)),
        k.build_universal_unitary(ScalarMatrix.identity(2)),
        k.build_universal_orthogonal(ScalarMatrix.identity(1)),
    ]
    fp = k.free_product(parts)
    assert len(fp.generators) == 1 + 4 + 1


def test_block_decompose_one_block():
    p = k.build_presentation(one_block_spec(F(1, 2), 2, 1))
    d = k.block_decompose(p)
    assert d.positions("A") == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert d.positions("C") == [(2, 0), (2, 1), (3, 0), (3, 1)]
    assert d.matrix("C").entry(0, 0) == letter(2, 0)


def test_block_decompose_case_one_tail():
    spec = k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=1)
    p = k.build_presentation(spec)
    d = k.block_decompose(p)
    assert d.matrix("Z").rows == 1 and d.matrix("Z").cols == 1
    assert d.positions("Z") == [(6, 6)]
    assert d.positions("X[1]") == [(6, 0)]
    assert d.positions("R[2]") == [(2, 6), (3, 6)]


def test_block_decompose_case_two_unit_blocks():
    spec = k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1)))
    p = k.build_presentation(spec)
    d = k.block_decompose(p)
    names = d.names()
    for i in (1, 2):
        for j in (1, 2):
            assert f"A[{i},{j}]" in names and f"C[{i},{j}]" in names
            assert d.matrix(f"A[{i},{j}]").rows == 1
    assert d.positions("C[2,2]") == [(3, 2)]


def test_eigenvalue_profiles_match_displayed_lists():
    spec = k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=1)
    prof = k.eigenvalue_profile(k.standard_form_matrix(spec))
    assert prof == [(F(1, 9), 1), (F(1, 4), 2), (F(1), 1), (F(4), 2), (F(9), 1)]
    spec2 = k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1)))
    prof2 = k.eigenvalue_profile(k.standard_form_matrix(spec2))
    assert prof2 == [(F(1, 4), 1), (F(1), 2), (F(4), 1)]
