from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cqgkac as k
from cqgkac.algebra import AlgElement, ScalarMatrix, ShapeError
import cqgkac.presentations as presentations
from cqgkac.presentations import (
    SpecError,
    canonicalize_relations,
    defining_relations,
    generator_matrix,
)

from conftest import (
    bar,
    block_positions,
    dense,
    dense_inverse,
    dense_product,
    four_identity_relations,
    gen,
    hand_made_f,
    layout_ranges,
    letter,
    one_block_spec,
    reference_canonicalize,
    reference_normalize,
    small_specs,
    specs_up_to,
    substitute,
    transpose,
    truncated_presentation,
)


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
    # ill-typed fields are refused, not coerced: m=1.5 once became m=1 and
    # trailing=1.5 gave size 3.5
    for kwargs, field in [
        (dict(kind="case-II", blocks=((F(1, 2), 1.5),)), "blocks[0].m"),
        (dict(kind="case-II", blocks=((F(1, 2), True),)), "blocks[0].m"),
        (dict(kind="case-I", blocks=((F(1, 2), 1),), trailing=1.5), "trailing"),
        (dict(kind="case-I", blocks=((F(1, 2), 1),), trailing=True), "trailing"),
        (dict(kind="one-block", blocks=((F(1, 2), 1),), epsilon=True), "epsilon"),
    ]:
        with pytest.raises(SpecError) as err:
            k.BlockSpec(**kwargs)
        assert err.value.field == field


@pytest.mark.parametrize("blocks, message", [
    (((F(1, 2),),), r"^blocks\[0\] is not a \(q, m\) pair: \(Fraction\(1, 2\),\)$"),
    ((F(1, 2),), r"^blocks\[0\] is not a \(q, m\) pair: Fraction\(1, 2\)$"),
    (None, r"^blocks is not a sequence: None$"),
])
def test_block_spec_names_a_malformed_block(blocks, message):
    # a block given directly, not through a JSON config, is checked for
    # shape too: no IndexError or TypeError escapes
    with pytest.raises(SpecError, match=message) as err:
        k.BlockSpec("unitary", blocks)
    assert err.value.field == "blocks"


@pytest.mark.parametrize("q, message", [
    ("x", r"^Invalid literal for Fraction: 'x'$"),
    ("1/0", r"^'1/0' has a zero denominator$"),
], ids=["x", "1/0"])
def test_block_spec_names_a_refused_q(q, message):
    # a q that `rat` refuses is named by its own field, with `rat`'s message
    with pytest.raises(SpecError, match=message) as err:
        k.BlockSpec("unitary", ((F(1, 4), 1), (q, 1)))
    assert err.value.field == "blocks[1].q"


@pytest.mark.parametrize("kind, blocks, trailing", [
    ("case-I", ((F(1, 2), 1),), 0),
    ("case-I", ((F(1, 2), 1),), 1),
    ("unitary", ((F(1), 2),), 0),
    ("case-II", ((F(1, 2), 1),), 0),
])
def test_block_spec_refuses_a_sign_outside_one_block(kind, blocks, trailing):
    # standard_form_matrix would take a case-I sign as the sign of F,
    # giving F Fbar = -I, while the other kinds would drop it silently
    with pytest.raises(ValueError) as err:
        k.BlockSpec(kind, blocks, trailing=trailing, epsilon=-1)
    assert err.value.field == "epsilon"


@pytest.mark.parametrize("kind, blocks, message", [
    ("unitary", ((F(1, 2), 0),), "block multiplicities must be >= 1"),
    ("unitary", ((F(0), 1),), "block parameters must be positive"),
    ("case-I", ((F(-1, 2), 1),), "block parameters must be positive"),
    ("case-II", ((F(1, 2), 1), (F(3, 2), 1)), "case-II parameters must satisfy q <= 1"),
])
def test_block_spec_refuses_a_block_out_of_range(kind, blocks, message):
    with pytest.raises(SpecError, match=f"^{message}$") as err:
        k.BlockSpec(kind, blocks)
    assert err.value.field == "blocks"


def test_block_spec_is_a_validated_named_tuple():
    blocks = ((F(1, 2), 1),)
    positional = k.BlockSpec("case-I", blocks, 1, 1)
    keyword = k.BlockSpec(kind="case-I", blocks=blocks, trailing=1, epsilon=1)
    defaulted = k.BlockSpec("case-I", blocks, trailing=1)
    assert positional == keyword == defaulted
    assert hash(positional) == hash(keyword) == hash(defaulted)
    assert defaulted.blocks == (presentations.Block(F(1, 2), 1),)
    assert repr(defaulted) == (
        "BlockSpec(kind='case-I', blocks=(Block(q=Fraction(1, 2), m=1),), trailing=1, epsilon=1)"
    )
    with pytest.raises(AttributeError):
        defaulted.kind = "unitary"
    # _make and _replace go through the checks, which NamedTuple's own would skip
    assert defaulted._replace(trailing=2) == k.BlockSpec("case-I", blocks, trailing=2)
    assert k.BlockSpec._make(("case-I", blocks, 1)) == defaulted
    for bogus in (lambda: defaulted._replace(kind="bogus"),
                  lambda: k.BlockSpec._make(("bogus", blocks))):
        with pytest.raises(SpecError) as err:
            bogus()
        assert err.value.field == "kind"


def test_block_spec_refuses_a_size_past_the_limit():
    # parsed only: building m = 10**6 would start on 10**12 letters
    with pytest.raises(SpecError, match=r"^spec size N = 1000000 exceeds the limit 64$") as err:
        k.BlockSpec("unitary", ((F(1, 2), 10**6),))
    assert err.value.field == "blocks"
    assert k.BlockSpec("unitary", ((F(1, 2), 32), (F(1), 32))).size == 64
    with pytest.raises(SpecError, match="N = 65 "):
        k.BlockSpec("unitary", ((F(1, 2), 32), (F(1), 33)))
    # case I counts 2m rows per block plus the trailing identity
    assert k.BlockSpec("case-I", ((F(1, 2), 31),), trailing=2).size == 64
    with pytest.raises(SpecError, match="N = 65 "):
        k.BlockSpec("case-I", ((F(1, 2), 31),), trailing=3)
    with pytest.raises(SpecError, match="N = 65 "):
        k.BlockSpec("unitary", ((F(1, 2), 64),))._replace(blocks=((F(1, 2), 65),))


def _q_profile(p):
    """The eigenvalues of p's diagonal Q, ascending, with multiplicity."""
    assert p.q.is_diagonal()
    return sorted(p.q.entry(j, j) for j in range(p.q.rows))


def test_eigenvalue_profile_case_one():
    spec = k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1)
    assert _q_profile(k.build_presentation(spec)) == [F(1, 4), F(1), F(4)]


def test_eigenvalue_profile_symplectic():
    assert _q_profile(k.build_universal_orthogonal(k.symplectic_matrix(1))) == [F(1), F(1)]


def test_eigenvalue_profile_against_direct_product():
    spec = one_block_spec(F(1, 2), 2, 1)
    f = k.standard_form_matrix(spec)
    p = k.build_presentation(spec)
    # oracle: form F^T F with plain loops and read the diagonal
    n = f.rows
    ftf = [[sum(f.entry(l, j) * f.entry(l, c) for l in range(n)) for c in range(n)]
           for j in range(n)]
    assert p.q == ScalarMatrix(ftf)
    assert _q_profile(p) == sorted(ftf[i][i] for i in range(n))
    assert _q_profile(p) == [F(1, 4), F(1, 4), F(4), F(4)]


def test_universal_unitary_rank_one_is_circle_algebra():
    p = k.build_universal_unitary(ScalarMatrix.identity(1))
    u = gen(0, 0)
    uu = AlgElement.word((u, u.adjoint()))
    uu2 = AlgElement.word((u.adjoint(), u))
    expected = {
        canonicalize_relations((uu - AlgElement.one(),))[0].sort_key(),
        canonicalize_relations((uu2 - AlgElement.one(),))[0].sort_key(),
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
    assert canonicalize_relations((expected,))[0].sort_key() in keys


def test_universal_unitary_rejects_bad_q():
    with pytest.raises(ValueError):
        k.build_universal_unitary(ScalarMatrix([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        k.build_universal_unitary(ScalarMatrix.diagonal([1, -1]))


@pytest.mark.parametrize("q, message", [
    ([[0, 0], [0, 1]], r"Q must be positive: Q\[1,1\] = 0"),
    ([[-1, 0], [0, 1]], r"Q must be positive: Q\[1,1\] = -1"),
    ([[1, 1], [0, 1]], "Q must be diagonal"),
])
def test_presentation_refuses_a_q_that_is_not_positive_diagonal(q, message):
    # every reader of Q (the trace certificate, the Hopf twist, `defining`)
    # assumes a positive diagonal Q, so a hand-made presentation is refused
    u = generator_matrix(2)
    gens = [g for row in u for x in row for g in x.letters()]
    with pytest.raises(ValueError, match=message):
        k.Presentation(gens, [], u, ScalarMatrix(q))


@pytest.mark.parametrize("generators, message", [
    ([gen(0, 0, star=True)], r"^generator u\(1,1\)\* is starred$"),
    ([gen(0, 0), gen(0, 0)], r"^two generators at the position of u\(1,1\)$"),
    ([gen(0, 0, selfadjoint=True), gen(0, 0)], r"^two generators at the position of u\(1,1\)$"),
], ids=["starred", "repeated", "self-adjoint-twin"])
def test_presentation_refuses_a_starred_or_repeated_generator(generators, message):
    # a generator is the one plain or self-adjoint letter at its position;
    # two there would be counted, kept and quotiented twice
    with pytest.raises(ValueError, match=message):
        k.Presentation(generators, [], [[letter(0, 0)]], ScalarMatrix.identity(1))


def test_presentation_refuses_a_relation_letter_outside_the_layout():
    # u(6,6) has no entry in the 1 x 1 fundamental matrix, so the relation
    # has no value at any V and names no identity entry: the constructor
    # names it and its letter
    with pytest.raises(ValueError, match=r"^rel\[0\] reads u\(6,6\), outside the 1x1 layout$"):
        k.Presentation([gen(0, 0)], [letter(5, 5) - AlgElement.one()], [[letter(0, 0)]],
                       ScalarMatrix.identity(1))
    # the first relation holding the least outside letter is named
    rels = [letter(0, 0) - AlgElement.one(), letter(0, 1) * letter(1, 0)]
    with pytest.raises(ValueError, match=r"^rel\[1\] reads u\(1,2\), outside the 1x1 layout$"):
        k.Presentation([gen(0, 0)], rels, [[letter(0, 0)]], ScalarMatrix.identity(1))


@pytest.mark.parametrize("build, message", [
    (k.build_universal_unitary, "Q must be square"),
    (k.build_universal_orthogonal, "F must be square"),
])
def test_builders_refuse_a_non_square_matrix(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(ScalarMatrix([[1, 0]]))


def test_universal_orthogonal_rank_one_is_order_two_group():
    # one self-adjoint letter u with u u = 1: the four identities all read
    # u u - 1, and the reality entry u - u* is zero in the free algebra
    p = k.build_universal_orthogonal(ScalarMatrix.identity(1))
    u = letter(0, 0, selfadjoint=True)
    assert p.generators == (gen(0, 0, selfadjoint=True),)
    assert u.adjoint() == u
    assert p.relations == canonicalize_relations((u * u - AlgElement.one(),))
    assert p.u[0][0] == u


def test_universal_orthogonal_symplectic_fundamental_shape():
    p = k.build_universal_orthogonal(k.symplectic_matrix(1))
    mat = p.u
    a, c = letter(0, 0), letter(1, 0)
    assert mat[0][0] == a
    assert mat[0][1] == -c.adjoint()
    assert mat[1][0] == c
    assert mat[1][1] == a.adjoint()


def test_universal_orthogonal_one_block_forcing():
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    mat = p.u
    assert mat[0][1] == letter(1, 0, star=True).scale(F(1, 4))
    assert mat[1][1] == letter(0, 0, star=True)


def test_universal_orthogonal_rejects_bad_reality():
    with pytest.raises(ValueError):
        k.build_universal_orthogonal(ScalarMatrix.diagonal([1, 2]))


@pytest.mark.parametrize("rows, entry", [
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], "(F Fbar)[1,3] = 1"),
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
     "(F Fbar)[3,3] = -1 and (F Fbar)[1,1] = 1"),
    ([[0, 2], [F(1, 4), 0]], "(F Fbar)[1,1] = 1/2"),
])
def test_universal_orthogonal_names_the_first_row_off_plus_minus_identity(rows, entry):
    # a 3-cycle, mixed signs, and one sign of the wrong size
    with pytest.raises(ValueError, match=r"F Fbar must be \+I or -I") as err:
        k.build_universal_orthogonal(ScalarMatrix(rows))
    assert entry in str(err.value)


def test_standard_forms_have_exact_reality_product():
    cases = [
        (one_block_spec(F(1, 2), 2, 1), 1),
        (one_block_spec(F(1, 3), 1, -1), -1),
        (k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=1), 1),
        (k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1))), -1),
    ]
    for spec, sign in cases:
        f = k.standard_form_matrix(spec)
        eye = dense(ScalarMatrix.identity(f.rows))
        assert dense_product(f, f) == [[e.scale(sign) for e in row] for row in eye]


def test_reality_substitution_one_block():
    spec = one_block_spec(F(1, 2), 1, 1)
    f = k.standard_form_matrix(spec)
    sigma, kept = k.reality_substitution(f)
    assert kept == [gen(0, 0), gen(1, 0)]
    assert sigma == {
        gen(0, 1): letter(1, 0, star=True).scale(F(1, 4)),
        gen(1, 1): letter(0, 0, star=True),
    }


def test_reality_substitution_symplectic_matches_hand_expansion():
    f = k.symplectic_matrix(1)
    sigma, kept = k.reality_substitution(f)
    # oracle: expand F bar(U) F^-1 on the raw generator matrix directly
    u = [[letter(0, 0), letter(0, 1)], [letter(1, 0), letter(1, 1)]]
    image = dense_product(f, bar(u), dense_inverse(f))
    for g, value in sigma.items():
        assert value == image[g.row][g.col]
    assert sigma == {
        gen(0, 1): -letter(1, 0, star=True),
        gen(1, 1): letter(0, 0, star=True),
    }


def test_reality_substitution_makes_trailing_letters_selfadjoint():
    spec = k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1)
    sigma, kept = k.reality_substitution(k.standard_form_matrix(spec))
    z = gen(2, 2, selfadjoint=True)
    assert z in kept and gen(2, 2) not in kept
    assert sigma[gen(2, 2)] == letter(2, 2, selfadjoint=True)
    p = k.build_presentation(spec)
    assert p.generators[-1] == z and p.u[2][2] == letter(2, 2, selfadjoint=True)
    # no relation is hermitian-type: u(3,3) - u(3,3)* is zero, not listed
    assert all(r.degree() == 2 for r in p.relations)
    assert {g for r in p.relations for g in r.letters() if g.selfadjoint} == {z}


@pytest.mark.parametrize("f", [ScalarMatrix.diagonal([1, -1]), hand_made_f()],
                         ids=["diag(1,-1)", "hand-made"])
@pytest.mark.parametrize("make", [k.reality_substitution, k.build_universal_orthogonal],
                         ids=["substitution", "builder"])
def test_self_paired_positions_with_opposite_signs_are_refused(make, f):
    # (1,2) is self-paired with d_1 = -d_2: u(1,2) = -u(1,2)* would need an
    # imaginary scalar, so the first such position is named
    with pytest.raises(ValueError, match=r"^F with d_1 = -d_2 at the self-paired position "
                                         r"\(1,2\) is unsupported: "):
        make(f)


@pytest.mark.parametrize("f", [
    ScalarMatrix([[F(3, 5), F(4, 5)], [F(4, 5), F(-3, 5)]]),  # F Fbar = I, not monomial
    ScalarMatrix([[1, 0], [0, 0]]),  # a zero row
    ScalarMatrix([[0, 1], [0, 1]]),  # two rows in one column
], ids=["reflection", "zero-row", "shared-column"])
@pytest.mark.parametrize("make", [k.reality_substitution, k.build_universal_orthogonal],
                         ids=["substitution", "builder"])
def test_non_monomial_f_is_refused_with_one_message(make, f):
    # both read F through _monomial_decode, which alone checks F's form
    with pytest.raises(ValueError, match=r"^non-monomial F is unsupported; "
                                         r"reduce F to a standard form first$"):
        make(f)


def test_reality_substitution_annihilates_reality_entries():
    for spec in (
        one_block_spec(F(1, 2), 2, -1),
        k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 1)), trailing=1),
        k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1))),
    ):
        f = k.standard_form_matrix(spec)
        sigma, kept = k.reality_substitution(f)
        n = f.rows
        u = [[letter(j, c) for c in range(n)] for j in range(n)]
        conj = dense_product(f, bar(u), dense_inverse(f))
        kept_set = set(kept)
        for image in sigma.values():
            assert {g.plain() for g in image.letters()} <= kept_set
        for j in range(n):
            for c in range(n):
                # self-paired positions hold self-adjoint letters, so
                # their entries vanish too
                entry = substitute(u[j][c] - conj[j][c], sigma)
                assert entry.is_zero()


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


def test_block_decompose_one_block():
    spec = one_block_spec(F(1, 2), 2, 1)
    p = k.build_presentation(spec)
    assert block_positions(spec, "A") == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert block_positions(spec, "C") == [(2, 0), (2, 1), (3, 0), (3, 1)]
    j, c = block_positions(spec, "C")[0]
    assert p.u[j][c] == letter(2, 0)


def test_block_decompose_case_one_tail():
    spec = k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=1)
    rows, cols = layout_ranges(spec)["Z"]
    assert len(rows) == 1 and len(cols) == 1
    assert block_positions(spec, "Z") == [(6, 6)]
    assert block_positions(spec, "X[1]") == [(6, 0)]
    assert block_positions(spec, "R[2]") == [(2, 6), (3, 6)]


def test_block_decompose_case_two_unit_blocks():
    spec = k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1)))
    ranges = layout_ranges(spec)
    for i in (1, 2):
        for j in (1, 2):
            assert f"A[{i},{j}]" in ranges and f"C[{i},{j}]" in ranges
            assert len(ranges[f"A[{i},{j}]"][0]) == 1
    assert block_positions(spec, "C[2,2]") == [(3, 2)]


def test_eigenvalue_profiles_match_displayed_lists():
    spec = k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=1)
    assert _q_profile(k.build_presentation(spec)) == [
        F(1, 9), F(1, 4), F(1, 4), F(1), F(4), F(4), F(9)]
    spec2 = k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1)))
    assert _q_profile(k.build_presentation(spec2)) == [F(1, 4), F(1), F(1), F(4)]


def _expand_then_substitute(spec):
    """The builder's earlier algorithm: every identity expanded as a dense
    product over the raw generator matrix, then the reality substitution
    applied to each relation and to the matrix.  A unitary spec expands
    only the four unitarity identities over its Q; any other takes Q =
    F^T F summed with plain loops, and Q is returned last."""
    m = k.standard_form_matrix(spec)
    n = m.rows
    u = [[letter(j, c) for c in range(n)] for j in range(n)]
    ub, ut = bar(u), transpose(u)
    q = m if spec.kind == "unitary" else ScalarMatrix(
        [[sum(m.entry(l, j) * m.entry(l, c) for l in range(n)) for c in range(n)]
         for j in range(n)])
    mats = [
        dense_product(u, transpose(ub)),
        dense_product(transpose(ub), u),
        dense_product(ut, q, ub, dense_inverse(q)),
        dense_product(q, ub, dense_inverse(q), ut),
    ]
    rels = [e - AlgElement.scalar(int(j == c))
            for mat in mats for j, row in enumerate(mat) for c, e in enumerate(row)]
    if spec.kind == "unitary":
        sigma, kept = {}, [gen(j, c) for j in range(n) for c in range(n)]
    else:
        conj = dense_product(m, ub, dense_inverse(m))
        rels += [u[j][c] - conj[j][c] for j in range(n) for c in range(n)]
        sigma, kept = k.reality_substitution(m)
    rels = [substitute(r, sigma) for r in rels]
    return kept, canonicalize_relations(rels), substitute(u, sigma), q


@settings(max_examples=40, deadline=None)
@given(small_specs())
def test_builder_matches_expand_then_substitute_on_small_specs(spec):
    p = k.build_presentation(spec)
    kept, rels, u, q = _expand_then_substitute(spec)
    assert p.generators == tuple(kept)
    assert [r.sort_key() for r in p.relations] == [r.sort_key() for r in rels]
    assert p.u == u
    assert p.q == q


def test_a_wrong_reality_scalar_is_caught(monkeypatch):
    spec = k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1)))
    f = k.standard_form_matrix(spec)
    sigma, kept = k.reality_substitution(f)
    g = next(iter(sigma))
    wrong = dict(sigma)
    wrong[g] = sigma[g].scale(2)
    monkeypatch.setattr(presentations, "reality_substitution", lambda F: (wrong, kept))
    with pytest.raises(RuntimeError, match="unresolvable reality entry"):
        k.build_universal_orthogonal(f)


WORD_LETTERS = (gen(0, 0), gen(0, 0, star=True), gen(0, 1))
COEFFICIENTS = st.one_of(st.sampled_from((F(1), F(-1))),
                         st.fractions(-4, 4, max_denominator=4).filter(bool))


@st.composite
def relations(draw):
    """Elements with words of length <= 3 over three letters and Fraction
    coefficients (leads of 1, -1 and any other sign); some are folded with
    their adjoint, so they are self-adjoint up to a sign and their two
    orientations tie."""
    words = st.lists(st.sampled_from(WORD_LETTERS), max_size=3).map(tuple)
    e = AlgElement(draw(st.dictionaries(words, COEFFICIENTS, min_size=1, max_size=4)))
    fold = draw(st.sampled_from((0, 1, -1)))
    return e + e.adjoint().scale(fold) if fold else e


def _form(r):
    """Value, sort_key and stored term order of a relation, or None."""
    return None if r is None else (r, r.sort_key(), list(r.terms()))


@settings(max_examples=200, deadline=None)
@given(relations())
def test_normalize_relation_matches_the_two_scale_reference(r):
    # the normal form of one relation is its canonical set, empty for zero
    want = reference_normalize(r)
    got = canonicalize_relations((r,))
    assert [_form(n) for n in got] == ([] if want is None else [_form(want)])


@settings(max_examples=100, deadline=None)
@given(st.lists(relations(), max_size=5), st.lists(COEFFICIENTS, max_size=5))
def test_canonicalize_relations_matches_the_two_scale_reference(rels, scales):
    rels = rels + [r.adjoint().scale(c) for r, c in zip(rels, scales)]
    got, want = canonicalize_relations(rels), reference_canonicalize(rels)
    assert [_form(r) for r in got] == [_form(r) for r in want]


def _identity_entries(p):
    """Every entry of the four unitarity identities minus I, by dense
    products over p's fundamental matrix: four N x N lists of entries."""
    u = p.u
    ub, ut = bar(u), transpose(u)
    qinv = dense_inverse(p.q)
    mats = (dense_product(u, transpose(ub)), dense_product(transpose(ub), u),
            dense_product(ut, p.q, ub, qinv), dense_product(p.q, ub, qinv, ut))
    return [[[e - AlgElement.scalar(int(j == c)) for c, e in enumerate(row)]
             for j, row in enumerate(m)] for m in mats]


@settings(max_examples=25, deadline=None)
@given(small_specs())
def test_each_identity_entry_below_the_diagonal_has_its_mirror_normal_form(spec):
    for mat in _identity_entries(k.build_presentation(spec)):
        for j in range(len(mat)):
            for c in range(j + 1, len(mat)):
                assert [_form(r) for r in canonicalize_relations((mat[c][j],))] == \
                    [_form(r) for r in canonicalize_relations((mat[j][c],))]


def test_builder_keeps_the_canonical_full_emission_on_every_spec_up_to_three():
    specs = specs_up_to(3)
    assert len(specs) == 79
    for spec in specs:
        _, full, _, _ = _expand_then_substitute(spec)
        assert [_form(r) for r in k.build_presentation(spec).relations] == \
            [_form(r) for r in full], spec


def test_defining_relations_keep_the_four_identity_canonical_set_and_term_order():
    specs = specs_up_to(4)
    assert len(specs) == 187
    for spec in specs:
        p = k.build_presentation(spec)
        got = canonicalize_relations(defining_relations(p.u, p.q, p.f))
        want = canonicalize_relations(four_identity_relations(p.u, p.q, p.f))
        assert got == want, spec
        assert [list(r.terms()) for r in got] == [list(r.terms()) for r in want], spec


def _entry_count(n, identities):
    return identities * n * (n + 1) // 2 + n * n


def test_defining_relations_drop_the_plain_pair_only_where_reality_holds():
    # a builder's orthogonal u satisfies U = F Ubar F^-1 and Q = F*F
    p = k.build_presentation(one_block_spec(F(1, 2), 2, 1))
    assert len(defining_relations(p.u, p.q, p.f)) == _entry_count(4, 2)
    # every reality entry u(j,k) - (d_j/d_k) u(j,k)* of a generic u is nonzero
    f = ScalarMatrix.diagonal([1, -1])
    rels = defining_relations(generator_matrix(2), ScalarMatrix.identity(2), f)
    assert len(rels) == _entry_count(2, 4)
    assert not any(r.is_zero() for r in rels[-4:])
    # every reality entry is zero, but Q is not F*F
    p = k.build_presentation(k.BlockSpec("case-II", ((F(1, 3), 1), (F(1, 2), 1))))
    q = ScalarMatrix.identity(4)
    assert p.q != q
    rels = defining_relations(p.u, q, p.f)
    assert len(rels) == _entry_count(4, 4)
    assert all(r.is_zero() for r in rels[-16:])


def _product(x, y):
    """x * y as the sum of its word-by-word products, in their order."""
    return AlgElement.sum(AlgElement.word(w1 + w2, c1 * c2)
                          for w1, c1 in x.terms() for w2, c2 in y.terms())


A, B = (AlgElement.generator(gen(0, c)) for c in (0, 1))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(relations(), relations()), max_size=4), st.integers(0, 4),
       st.one_of(st.just(F(0)), COEFFICIENTS))
# the second product makes u11 u12 twice, as 1 * u11 u12 and u11 * u12: its
# first term cancels the u11 u12 of the first product, its last brings it back
@example([(AlgElement.one(), A * B + A * A), (AlgElement.one() + A, -(A * B) + B.scale(2))],
         0, F(0))
def test_dot_is_the_sum_of_the_products_minus_the_constant(pairs, cancelled, c):
    # the first `cancelled` products come again negated, so that they cancel
    pairs = pairs + [(x.scale(-1), y) for x, y in pairs[:cancelled]]
    want = AlgElement.sum(_product(x, y) for x, y in pairs) - AlgElement.scalar(c)
    assert _form(AlgElement.dot(pairs, c)) == _form(want)
    for x, y in pairs:
        assert _form(x * y) == _form(_product(x, y))


def _recomputed_defining(p):
    return p.relations == canonicalize_relations(defining_relations(p.u, p.q, p.f))


def test_defining_is_recorded_by_the_builders_and_computed_elsewhere():
    # True on every build and every Kac quotient of N <= 4; False once the
    # relations are not the defining entries of u
    for spec in specs_up_to(4):
        p = k.build_presentation(spec)
        assert p.defining and _recomputed_defining(p), spec
        _, final = k.kac_fixpoint(p)
        assert final.defining and _recomputed_defining(final), spec
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    truncated = truncated_presentation(p)
    extended = k.Presentation(p.generators, [*p.relations, letter(0, 0) - letter(1, 1)],
                              p.u, p.q, p.f, p.label)
    for q in (truncated, extended):
        assert not q.defining and not _recomputed_defining(q)


@pytest.mark.parametrize("field", ["relations", "u", "q", "f", "defining"])
def test_presentation_fields_are_read_only(field):
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    before = getattr(p, field)
    with pytest.raises(AttributeError):
        setattr(p, field, None)
    assert getattr(p, field) == before


_A = letter(0, 0)
_I1, _I2, _I3 = (ScalarMatrix.identity(n) for n in (1, 2, 3))


@pytest.mark.parametrize("u, q, f", [
    ([[_A, _A], [_A]], _I2, None),
    ([[_A], [_A, _A]], _I2, None),
    ([], _I1, None),
    ([[]], _I1, None),
    ([[_A, _A]], _I1, None),
    (generator_matrix(2), None, None),
    (generator_matrix(2), _I1, None),
    (generator_matrix(2), _I3, None),
    (generator_matrix(2), _I2, _I1),
    (generator_matrix(2), _I2, _I3),
], ids=["ragged", "ragged-long-last", "empty", "empty-row", "non-square-u",
        "missing-q", "smaller-q", "larger-q", "smaller-f", "larger-f"])
def test_presentation_refuses_a_layout_that_is_not_n_by_n(u, q, f):
    # every reader indexes u, Q and F by one N: a smaller Q or F would
    # raise IndexError there, a larger one answer for another layout
    with pytest.raises(ShapeError):
        k.Presentation([], [], u, q, f)


def test_u_is_a_tuple_of_n_row_tuples():
    # on builder, quotient and hand-made presentations, however u was given
    for spec in (one_block_spec(F(1, 2), 1, 1), k.BlockSpec("unitary", ((F(1, 2), 3),))):
        p = k.build_presentation(spec)
        hand = k.Presentation(p.generators, p.relations, [list(row) for row in p.u], p.q, p.f)
        _, final = k.kac_fixpoint(p)
        for x in (p, final, hand):
            assert type(x.u) is tuple and len(x.u) == spec.size, spec
            assert all(type(row) is tuple and len(row) == spec.size for row in x.u), spec
        assert hand.u == p.u
