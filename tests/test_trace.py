import dataclasses
import random
from fractions import Fraction as F

import pytest

import cqgkac as k
from cqgkac.algebra import AlgElement, ScalarMatrix, word_adjoint
from cqgkac.linalg import SparseEchelon
from cqgkac.trace import TraceSymbol

from conftest import gen, letter, one_block_spec, random_element


def _rotation_oracle(w):
    """Independent canonicalization: enumerate every rotation of the word
    and of its adjoint and take the smallest."""
    rots = [w[i:] + w[:i] for i in range(len(w))] or [w]
    wa = word_adjoint(w)
    rots_adj = [wa[i:] + wa[:i] for i in range(len(wa))] or [wa]
    m1, m2 = min(rots), min(rots_adj)
    if m1 <= m2:
        return m1, (1 if m1 < m2 else 0)
    return m2, -1


def real_equation_row(eq):
    row = {("re", s): c for s, c in eq.coeffs.items()}
    if eq.constant:
        row[("const",)] = eq.constant
    return row


def _coord_key(c):
    return (0,) if c == ("const",) else (1, c[1].sort_key())


def span_echelon(eqs):
    ech = SparseEchelon(key=_coord_key)
    for eq in eqs.equations:
        if eq.part == "re":
            ech.add(real_equation_row(eq))
    return ech


def test_cyclic_canonical_length_two_rotation():
    w1 = (gen(0, 0, star=True), gen(0, 0))
    w2 = (gen(0, 0), gen(0, 0, star=True))
    assert k.cyclic_canonical(w1)[0] == k.cyclic_canonical(w2)[0]


def test_cyclic_canonical_empty_word_is_unit_symbol():
    sym, sign = k.cyclic_canonical(())
    assert sym.word == () and sym.selfadjoint and sign == 1


def test_cyclic_canonical_adjoint_class():
    w = (gen(0, 1), gen(1, 0))
    sym, sign = k.cyclic_canonical(w)
    oracle_word, oracle_sign = _rotation_oracle(w)
    assert sym.word == oracle_word
    if oracle_sign == -1:
        assert sign == -1
    # the adjoint word maps to the same symbol with opposite orientation
    sym2, sign2 = k.cyclic_canonical(word_adjoint(w))
    assert sym2 == sym and sign2 == -sign


def test_cyclic_canonical_matches_rotation_oracle_sampled():
    rng = random.Random(7)
    letters = [gen(j, c, s) for j in range(2) for c in range(2) for s in (False, True)]
    for _ in range(300):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        sym, sign = k.cyclic_canonical(w)
        oracle_word, _ = _rotation_oracle(w)
        assert sym.word == oracle_word
        assert sign in (1, -1)


def test_trace_of_commutator_vanishes():
    u = letter(0, 0)
    a = u * u.adjoint() - u.adjoint() * u
    assert k.trace_of(a).is_zero()


def test_trace_of_unit():
    t = k.trace_of(AlgElement.one())
    assert t.constant == 1 and not t.re and not t.im


def test_trace_of_unitarity_entry():
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    # entry (1,1) of U*U - I traces to sym(u11 u11*) + sym(u21 u21*) - 1
    entry = (
        letter(0, 0, star=True) * letter(0, 0)
        + letter(1, 0, star=True) * letter(1, 0)
        - AlgElement.one()
    )
    t = k.trace_of(entry)
    assert t.constant == -1
    assert t.re == {
        k.generator_symbol(gen(0, 0)): F(1),
        k.generator_symbol(gen(1, 0)): F(1),
    }
    assert not t.im


def test_trace_adjoint_negates_imaginary_part():
    rng = random.Random(8)
    letters = [gen(j, c, s) for j in range(2) for c in range(2) for s in (False, True)]
    for _ in range(200):
        a = random_element(rng, letters)
        t, ts = k.trace_of(a), k.trace_of(a.adjoint())
        assert ts.constant == t.constant
        assert ts.re == t.re
        assert ts.im == {s: -c for s, c in t.im.items()}


def test_one_block_equations_contain_paper_combination():
    # (1 - q^4) tr[c* c] lies in the span of the traced relations
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    eqs = k.derive_trace_equations(p)
    ech = span_echelon(eqs)
    target = k.generator_symbol(gen(1, 0))
    assert ech.contains({("re", target): F(15, 16)})


def test_identity_q_has_no_certificate():
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    eqs = k.derive_trace_equations(p)
    cert = k.forced_zero(eqs, k.generator_symbol(gen(0, 0)))
    assert cert is None
    # oracle: the uniform assignment tr[g g*] = 1/2 (free symbols 0)
    # satisfies every real equation, so the LP optimum is at least 1/2
    half = {k.generator_symbol(g): F(1, 2) for g in p.generators}
    for eq in eqs.equations:
        if eq.part != "re":
            continue
        value = eq.constant + sum(
            c * half.get(s, F(0)) for s, c in eq.coeffs.items()
        )
        assert value == 0


def test_case_one_difference_combination_in_span():
    spec = k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1)
    p = k.build_presentation(spec)
    eqs = k.derive_trace_equations(p)
    d = k.block_decompose(p)
    (xq,) = [gen(*pos) for pos in d.positions("X[1]")]
    (rq,) = [gen(*pos) for pos in d.positions("R[1]")]
    q = F(1, 2)
    row = {
        ("re", k.generator_symbol(xq)): 1 + q**2,
        ("re", k.generator_symbol(rq)): -(1 + q**-2),
    }
    assert span_echelon(eqs).contains(row)


def test_forced_zero_one_block_certificate():
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    eqs = k.derive_trace_equations(p)
    target = k.generator_symbol(gen(1, 0))
    cert = k.forced_zero(eqs, target)
    assert cert is not None
    assert k.verify_certificate(cert, eqs)
    assert cert.coefficients[target] > 0
    assert cert.constant == 0


def _restamp(cert, eqs, multipliers):
    """The certificate with new multipliers and the stored combination
    recomputed to match them, so only the later checks can object."""
    constant, coefficients = F(0), {}
    for idx, mult in multipliers:
        eq = eqs.equations[idx]
        constant += mult * eq.constant
        for s, c in eq.coeffs.items():
            coefficients[s] = coefficients.get(s, 0) + mult * c
    coefficients = {s: c for s, c in coefficients.items() if c}
    return dataclasses.replace(
        cert, multipliers=tuple(multipliers), constant=constant, coefficients=coefficients
    )


def _one_block_certificate():
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    eqs = k.derive_trace_equations(p)
    return k.forced_zero(eqs, k.generator_symbol(gen(1, 0))), eqs


def _index(eqs, part, predicate):
    return next(
        i for i, e in enumerate(eqs.equations) if e.part == part and predicate(e)
    )


def test_verify_rejects_imaginary_part_equation():
    cert, eqs = _one_block_certificate()
    im = _index(eqs, "im", lambda e: True)
    bad = dataclasses.replace(cert, multipliers=cert.multipliers + ((im, F(1)),))
    with pytest.raises(k.CertificateError, match="not a real-part equation"):
        k.verify_certificate(bad, eqs)


@pytest.mark.parametrize("field", ["constant", "coefficients"])
def test_verify_rejects_stored_combination_mismatch(field):
    cert, eqs = _one_block_certificate()
    value = F(1) if field == "constant" else {cert.target: 2 * cert.coefficients[cert.target]}
    bad = dataclasses.replace(cert, **{field: value})
    with pytest.raises(k.CertificateError, match="does not match the recombination"):
        k.verify_certificate(bad, eqs)


def test_verify_rejects_nonzero_constant():
    cert, eqs = _one_block_certificate()
    idx = _index(eqs, "re", lambda e: e.constant)
    bad = _restamp(cert, eqs, cert.multipliers + ((idx, F(1)),))
    assert bad.constant
    with pytest.raises(k.CertificateError, match="nonzero constant"):
        k.verify_certificate(bad, eqs)


def test_verify_rejects_surviving_free_symbol():
    cert, eqs = _one_block_certificate()
    idx = _index(
        eqs, "re", lambda e: not e.constant and any(s not in eqs.nonneg for s in e.coeffs)
    )
    bad = _restamp(cert, eqs, cert.multipliers + ((idx, F(1)),))
    with pytest.raises(k.CertificateError, match="free symbol .* survives"):
        k.verify_certificate(bad, eqs)


def test_verify_rejects_negative_coefficient():
    cert, eqs = _one_block_certificate()
    bad = _restamp(cert, eqs, [(idx, -mult) for idx, mult in cert.multipliers])
    with pytest.raises(k.CertificateError, match="negative coefficient"):
        k.verify_certificate(bad, eqs)


def test_verify_rejects_target_not_positive():
    cert, eqs = _one_block_certificate()
    other = k.generator_symbol(gen(0, 0))
    assert other in eqs.nonneg and other not in cert.coefficients
    bad = dataclasses.replace(cert, target=other)
    with pytest.raises(k.CertificateError, match="does not appear positively"):
        k.verify_certificate(bad, eqs)


def test_forced_zero_case_two_off_diagonal():
    spec = k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1)))
    p = k.build_presentation(spec)
    eqs = k.derive_trace_equations(p)
    # A[1,2] sits at position (0, 2)
    cert = k.forced_zero(eqs, k.generator_symbol(gen(0, 2)))
    assert cert is not None and k.verify_certificate(cert, eqs)


def test_forced_zero_rejects_free_symbol_targets():
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    eqs = k.derive_trace_equations(p)
    bogus = TraceSymbol((gen(0, 0),), False)
    with pytest.raises(ValueError):
        k.forced_zero(eqs, bogus)


def test_kac_fixpoint_one_block_kills_c_in_first_round():
    p = k.build_presentation(one_block_spec(F(1, 2), 2, 1))
    report, final = k.kac_fixpoint(p)
    first = {g for g, _ in report.rounds[0].forced}
    c_block = {gen(j, c) for j in (2, 3) for c in (0, 1)}
    assert first == c_block
    assert set(report.forced) == c_block
    assert not report.undetermined
    assert set(final.generators) == {gen(j, c) for j in (0, 1) for c in (0, 1)}


def test_kac_fixpoint_case_one_kills_c_x_r_and_off_diagonal():
    spec = k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=1)
    p = k.build_presentation(spec)
    report, final = k.kac_fixpoint(p)
    d = k.block_decompose(p)
    expected = set()
    for name in d.names():
        kind = name[0]
        if kind in ("C", "X", "R"):
            expected |= {gen(*pos) for pos in d.positions(name)}
        elif kind == "A" and name[2] != name[4]:
            expected |= {gen(*pos) for pos in d.positions(name)}
    assert set(report.forced) == expected
    assert report.iterations <= 3
    assert not report.undetermined


def test_kac_fixpoint_unitary_cross_blocks():
    q = ScalarMatrix.diagonal([F(1, 4), 1, 1])
    p = k.build_universal_unitary(q)
    report, final = k.kac_fixpoint(p)
    cross = {gen(0, 1), gen(0, 2), gen(1, 0), gen(2, 0)}
    assert set(report.forced) == cross
    target, renaming = k.expected_kac_target(
        k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 2)))
    )
    verdict = k.match_presentations(final, target, renaming)
    assert verdict.matched


def test_kac_fixpoint_refuses_unresolved_reality():
    f = ScalarMatrix([[F(3, 5), F(4, 5)], [F(4, 5), F(-3, 5)]])
    p = k.build_universal_orthogonal(f)
    assert not p.eliminated
    with pytest.raises(ValueError):
        k.kac_fixpoint(p)


def test_lp_never_unbounded_on_engine_presentations():
    specs = [
        one_block_spec(F(1, 2), 1, -1),
        k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1),
        k.BlockSpec("case-II", ((F(1), 1),)),
        k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 1))),
    ]
    for spec in specs:
        p = k.build_presentation(spec)
        eqs = k.derive_trace_equations(p)
        for g in p.generators:
            k.forced_zero(eqs, k.generator_symbol(g))  # must not raise


def test_forced_generators_vanish_at_block_diagonal_classical_points():
    import numpy as np

    spec = one_block_spec(F(1, 2), 2, 1)
    p = k.build_presentation(spec)
    report, _ = k.kac_fixpoint(p)
    rng = np.random.default_rng(11)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a0, _ = np.linalg.qr(z)
    v = np.zeros((4, 4), dtype=complex)
    v[:2, :2] = a0
    v[2:, 2:] = a0.conj()
    point = k.classical_point(p, v)
    assert k.eval_residual(p, point).max_residual <= 1e-10
    for g in report.forced:
        assert abs(point.matrices[g][0, 0]) == 0.0
