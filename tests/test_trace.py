import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import cqgkac as k
from cqgkac.algebra import AlgElement, ScalarMatrix, word_adjoint
from cqgkac.linalg import SparseEchelon
from cqgkac.simplex import Unbounded, solve_lp_max
from cqgkac.trace import (
    TraceSymbol, _closed_form_certificates, _closed_form_multipliers, _recombine,
    _shared_certificates,
)

from conftest import (
    LADDER,
    QS,
    block_positions,
    dense,
    dense_product,
    gen,
    layout_ranges,
    letter,
    one_block_spec,
    random_element,
    small_specs,
    specs_up_to,
    trace_every_relation,
    undetermined_presentation,
)


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


CONST = "const"


def span_echelon(eqs):
    """Echelon of the equations, and the integer id of each coordinate: the
    constant first, then the symbols in sort_key order."""
    symbols = {s for eq in eqs.equations for s in eq.coeffs} | eqs.nonneg
    ids = {CONST: 0}
    for s in sorted(symbols, key=TraceSymbol.sort_key):
        ids[s] = len(ids)
    ech = SparseEchelon()
    for eq in eqs.equations:
        ech.add({ids[s]: c for s, c in {**eq.coeffs, CONST: eq.constant}.items()})
    return ech, ids


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
    assert k.trace_of(a) == (0, {})


def test_trace_of_unit():
    constant, coeffs = k.trace_of(AlgElement.one())
    assert constant == 1 and not coeffs


def test_trace_of_unitarity_entry():
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    # entry (1,1) of U*U - I traces to sym(u11 u11*) + sym(u21 u21*) - 1
    entry = (
        letter(0, 0, star=True) * letter(0, 0)
        + letter(1, 0, star=True) * letter(1, 0)
        - AlgElement.one()
    )
    constant, coeffs = k.trace_of(entry)
    assert constant == -1
    assert coeffs == {
        k.generator_symbol(gen(0, 0)): F(1),
        k.generator_symbol(gen(1, 0)): F(1),
    }


def _imaginary_part(a):
    """Im tr(a) over the symbols, from cyclic_canonical: tr(w*) is the
    conjugate of tr(w), so sign -1 flips the imaginary part, and a class
    closed under * has a real trace.  The unit word is such a class, so a
    constant would show up here under the unit symbol."""
    im = {}
    for w, c in a.terms():
        sym, sign = k.cyclic_canonical(w)
        if not sym.selfadjoint:
            im[sym] = im.get(sym, 0) + sign * c
    return {s: c for s, c in im.items() if c}


def test_trace_adjoint_negates_imaginary_part():
    rng = random.Random(8)
    letters = [gen(j, c, s) for j in range(2) for c in range(2) for s in (False, True)]
    for _ in range(200):
        a = random_element(rng, letters)
        assert k.trace_of(a.adjoint()) == k.trace_of(a)
        assert _imaginary_part(a.adjoint()) == {s: -c for s, c in _imaginary_part(a).items()}


@pytest.mark.parametrize("spec", [
    k.BlockSpec("unitary", ((F(1, 4), 1), (F(1, 2), 1), (F(1), 1))),
    one_block_spec(F(1, 2), 2, -1),
    k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1),
    k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1))),
])
def test_imaginary_trace_parts_are_homogeneous(spec):
    # Im tr(r) = 0 over the relations is a linear system in the unknowns
    # Im tr[s], apart from the real unknowns the equations and the LP use.
    # With no constant it is homogeneous, so Im = 0 solves it whatever the
    # real parts are; self-adjoint classes (the unit and every nonnegative
    # tr[g g*] among them) have real traces and must not appear in it
    p = k.build_presentation(spec)
    nonneg = k.derive_trace_equations(p).nonneg
    unit, _ = k.cyclic_canonical(())
    mentioned = 0
    for r in p.relations:
        im = _imaginary_part(r)
        assert unit not in im
        for s in im:
            w = s.word
            assert word_adjoint(w) not in {w[i:] + w[:i] for i in range(len(w))}
            assert s not in nonneg
        mentioned += len(im)
    assert mentioned  # the check is not vacuous on this spec


def test_one_block_equations_contain_paper_combination():
    # (1 - q^4) tr[c* c] lies in the span of the traced relations
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    eqs = k.derive_trace_equations(p)
    ech, ids = span_echelon(eqs)
    target = k.generator_symbol(gen(1, 0))
    assert ech.contains({ids[target]: F(15, 16)})


def test_identity_q_has_no_certificate():
    p = k.build_universal_unitary(ScalarMatrix.identity(2))
    eqs = trace_every_relation(p)
    cert = k.forced_zero(eqs, k.generator_symbol(gen(0, 0)))
    assert cert is None
    # oracle: the uniform assignment tr[g g*] = 1/2 (free symbols 0)
    # satisfies every real equation, so the LP optimum is at least 1/2
    half = {k.generator_symbol(g): F(1, 2) for g in p.generators}
    for eq in eqs.equations:
        value = eq.constant + sum(
            c * half.get(s, F(0)) for s, c in eq.coeffs.items()
        )
        assert value == 0


def test_case_one_difference_combination_in_span():
    spec = k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1)
    p = k.build_presentation(spec)
    eqs = k.derive_trace_equations(p)
    (xq,) = [gen(*pos) for pos in block_positions(spec, "X[1]")]
    (rq,) = [gen(*pos) for pos in block_positions(spec, "R[1]")]
    q = F(1, 2)
    ech, ids = span_echelon(eqs)
    row = {
        ids[k.generator_symbol(xq)]: 1 + q**2,
        ids[k.generator_symbol(rq)]: -(1 + q**-2),
    }
    assert ech.contains(row)


def test_forced_zero_one_block_certificate():
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    eqs = k.derive_trace_equations(p)
    target = k.generator_symbol(gen(1, 0))
    cert = k.forced_zero(eqs, target)
    assert cert is not None
    assert k.verify_certificate(cert, eqs)
    assert cert.coefficients[target] > 0
    assert cert.constant == 0


def _combine(eqs, multipliers):
    """(constant, coefficients) of the sum of mult * equation."""
    constant, coefficients = F(0), {}
    for idx, mult in multipliers:
        eq = eqs.equations[idx]
        constant += mult * eq.constant
        for s, c in eq.coeffs.items():
            coefficients[s] = coefficients.get(s, 0) + mult * c
    return constant, {s: c for s, c in coefficients.items() if c}


def _restamp(cert, eqs, multipliers):
    """The certificate with new multipliers and the stored combination
    recomputed to match them, so only the later checks can object."""
    constant, coefficients = _combine(eqs, multipliers)
    return cert._replace(
        multipliers=tuple(multipliers), constant=constant, coefficients=coefficients
    )


def _one_block_certificate(derive=k.derive_trace_equations):
    p = k.build_presentation(one_block_spec(F(1, 2), 1, 1))
    eqs = derive(p)
    return k.forced_zero(eqs, k.generator_symbol(gen(1, 0))), eqs


def _index(eqs, predicate):
    return next(i for i, e in enumerate(eqs.equations) if predicate(e))


def test_verify_rejects_equation_index_out_of_range():
    cert, eqs = _one_block_certificate()
    n = len(eqs.equations)
    past_end = cert._replace(multipliers=cert.multipliers + ((n, F(1)),))
    # negative indices would wrap onto the same equations and recombine
    negative = _restamp(cert, eqs, [(idx - n, mult) for idx, mult in cert.multipliers])
    for bad in (past_end, negative):
        with pytest.raises(k.CertificateError, match="out of range"):
            k.verify_certificate(bad, eqs)


@pytest.mark.parametrize("field", ["constant", "coefficients"])
def test_verify_rejects_stored_combination_mismatch(field):
    cert, eqs = _one_block_certificate()
    value = F(1) if field == "constant" else {cert.target: 2 * cert.coefficients[cert.target]}
    bad = cert._replace(**{field: value})
    with pytest.raises(k.CertificateError, match="does not match the recombination"):
        k.verify_certificate(bad, eqs)


def test_verify_rejects_nonzero_constant():
    cert, eqs = _one_block_certificate()
    idx = _index(eqs, lambda e: e.constant)
    bad = _restamp(cert, eqs, cert.multipliers + ((idx, F(1)),))
    assert bad.constant
    with pytest.raises(k.CertificateError, match="nonzero constant"):
        k.verify_certificate(bad, eqs)


def test_verify_rejects_surviving_free_symbol():
    cert, eqs = _one_block_certificate(trace_every_relation)
    idx = _index(eqs, lambda e: not e.constant and any(s not in eqs.nonneg for s in e.coeffs))
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
    bad = cert._replace(target=other)
    with pytest.raises(k.CertificateError, match="does not appear positively"):
        k.verify_certificate(bad, eqs)


@pytest.mark.parametrize("spec", [
    one_block_spec(F(1, 2), 2, -1),
    k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=1),
    k.BlockSpec("case-II", ((F(1, 3), 1), (F(1, 2), 1))),
    k.BlockSpec("unitary", ((F(1, 4), 1), (F(1, 2), 1), (F(1), 1))),
], ids=["one-block", "case-I", "case-II", "unitary"])
def test_reduced_rows_are_independent_recombinations(spec):
    eqs = trace_every_relation(k.build_presentation(spec))
    rows = eqs.reduced()
    assert rows
    ech, ids = span_echelon(eqs)
    independent = SparseEchelon()
    for row in rows:
        assert set(row.coeffs) <= eqs.nonneg
        assert _combine(eqs, row.combo.items()) == (row.const, row.coeffs)
        # each row is independent of the ones before it
        assert independent.add({ids[s]: c for s, c in {**row.coeffs, CONST: row.const}.items()})
    # and span the part of the equations' span with no free symbol
    free = SparseEchelon()
    for eq in eqs.equations:
        free.add({ids[s]: c for s, c in eq.coeffs.items() if s not in eqs.nonneg})
    assert len(rows) == ech.rank() - free.rank()


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
    first = {g for g, _ in report.certificates}
    c_block = {gen(j, c) for j in (2, 3) for c in (0, 1)}
    assert first == c_block
    assert set(report.forced) == c_block
    assert not report.undetermined
    assert set(final.generators) == {gen(j, c) for j in (0, 1) for c in (0, 1)}


def test_kac_fixpoint_case_one_kills_c_x_r_and_off_diagonal():
    spec = k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=1)
    p = k.build_presentation(spec)
    report, final = k.kac_fixpoint(p)
    expected = set()
    for name in layout_ranges(spec):
        kind = name[0]
        if kind in ("C", "X", "R"):
            expected |= {gen(*pos) for pos in block_positions(spec, name)}
        elif kind == "A" and name[2] != name[4]:
            expected |= {gen(*pos) for pos in block_positions(spec, name)}
    assert set(report.forced) == expected
    assert report.iterations == 2
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


def test_orthogonal_build_refuses_non_monomial_f():
    f = ScalarMatrix([[F(3, 5), F(4, 5)], [F(4, 5), F(-3, 5)]])
    assert dense_product(f, f) == dense(ScalarMatrix.identity(2))
    with pytest.raises(ValueError, match="non-monomial F is unsupported"):
        k.build_universal_orthogonal(f)


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


def test_undetermined_on_unbounded_and_absent_symbols():
    p = undetermined_presentation(one_block_spec(F(1, 2), 1, 1))
    eqs = trace_every_relation(p)
    in_rows = {s for row in eqs.reduced() for s in row.coeffs}
    symbols = [k.generator_symbol(g) for g in p.generators]
    # the first two reach the LP, which is unbounded; the third is absent
    assert [s in in_rows for s in symbols] == [True, True, False]
    for s in symbols:
        with pytest.raises(k.Undetermined):
            k.forced_zero(eqs, s)
    report, final = k.kac_fixpoint(p)
    assert report.undetermined == tuple(symbols)
    assert not report.forced and report.iterations == 1 and final is p


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
        assert abs(point.values[g]) == 0.0


def _reference_decision(eqs, symbol):
    """The per-generator decision: maximise this one symbol over the
    reduced rows by its own LP.  'forced' at optimum 0, 'alive' above it,
    'undetermined' when the LP is unbounded or the rows do not mention it."""
    rows = eqs.reduced()
    variables = sorted({s for row in rows for s in row.coeffs}, key=TraceSymbol.sort_key)
    if symbol not in variables:
        return "undetermined"
    a = [[row.coeffs.get(v, F(0)) for v in variables] for row in rows]
    b = [-row.const for row in rows]
    c = [F(int(v == symbol)) for v in variables]
    try:
        res = solve_lp_max(a, b, c)
    except Unbounded:
        return "undetermined"
    return "forced" if res.value == 0 else "alive"


def _assert_reference_decisions(eqs, generators, certificates, undetermined):
    """The per-generator LPs over eqs force exactly the certified
    generators and leave exactly the undetermined symbols, in order."""
    decision = {g: _reference_decision(eqs, k.generator_symbol(g)) for g in generators}
    assert {g for g, _ in certificates} == {g for g in generators if decision[g] == "forced"}
    assert list(undetermined) == [
        k.generator_symbol(g) for g in generators if decision[g] == "undetermined"
    ]


def _assert_shared_rounds_match_reference(p):
    report, final = k.kac_fixpoint(p)
    # the closed-form round cites the equations of p itself
    assert report.equations.equations == k.derive_trace_equations(p).equations
    if report.certificates:
        _assert_reference_decisions(trace_every_relation(p), p.generators,
                                    report.certificates, ())
    # one certificate, cited by every generator it forces
    assert len({cert.multipliers for _, cert in report.certificates}) <= 1
    for g, cert in report.certificates:
        assert cert.target == k.generator_symbol(g)
        assert k.verify_certificate(cert, report.equations)
    # the character cover cites no equations; the oracle traces every
    # relation of the final presentation itself, and they force nothing more
    forced = set(report.forced)
    survivors = [g for g in p.generators if g not in forced]
    _assert_reference_decisions(trace_every_relation(final), survivors, (),
                                report.undetermined)
    assert report.iterations == 1 + bool(report.certificates)
    return report


@pytest.mark.parametrize("spec", LADDER.values(), ids=LADDER.keys())
def test_shared_certificate_matches_per_generator_lps_on_ladder(spec):
    report = _assert_shared_rounds_match_reference(k.build_presentation(spec))
    assert report.forced and not report.undetermined


def _lp_rounds(p):
    """The exact-LP fixpoint: per round the equations, the shared
    certificates and the undetermined symbols, quotienting by the forced
    generators until none dies."""
    rounds = []
    while True:
        eqs = trace_every_relation(p)
        symbols = [k.generator_symbol(g) for g in p.generators]
        certs, undetermined = _shared_certificates(eqs, symbols)
        rounds.append((eqs, certs, undetermined))
        if not certs:
            return rounds
        p = k.quotient_by_zero(p, [g for g, s in zip(p.generators, symbols) if s in certs])


def test_shared_round_separates_unbounded_forced_alive_and_absent():
    # tr[u11 u11*] = tr[u12 u12*] is unbounded, tr[u13 u13*] = 0 is forced,
    # tr[u14 u14*] = 1 stays positive and u15 is in no relation: the summed
    # LP is unbounded first, then positive, then zero, and only the ray's
    # support and the absent symbol are undetermined
    spec = one_block_spec(F(1, 2), 1, 1)
    base = k.build_presentation(spec)
    u = [gen(0, c) for c in range(5)]
    norm = [AlgElement.word((g, g.adjoint())) for g in u]
    rels = [norm[0] - norm[1], norm[2], norm[3] - AlgElement.one()]
    p = k.Presentation(u, rels, base.u, base.q, base.f, label=base.label)
    symbols = [k.generator_symbol(g) for g in u]
    rounds = _lp_rounds(p)
    generators = list(u)
    for eqs, certs, undetermined in rounds:
        decision = {g: _reference_decision(eqs, k.generator_symbol(g)) for g in generators}
        assert set(certs) == {k.generator_symbol(g) for g in generators if decision[g] == "forced"}
        assert undetermined == {
            k.generator_symbol(g) for g in generators if decision[g] == "undetermined"
        }
        for cert in certs.values():
            assert k.verify_certificate(cert, eqs)
        generators = [g for g in generators if k.generator_symbol(g) not in certs]
    assert list(rounds[0][1]) == [symbols[2]]
    assert rounds[-1][2] == {symbols[i] for i in (0, 1, 4)}
    assert len(rounds) == 2
    # the closed form needs the diagonal entries of the four identities,
    # which these relations are not, and no character of the N = 2 layout
    # satisfies them or reaches u13..u15: nothing is forced, all undetermined
    report, final = k.kac_fixpoint(p)
    assert not report.forced
    assert report.undetermined == tuple(symbols)
    assert report.iterations == 1 and final is p


@settings(max_examples=15, deadline=None)
@given(small_specs())
def test_shared_certificate_matches_per_generator_lps_on_small_specs(spec):
    assert spec.size <= 6
    _assert_shared_rounds_match_reference(k.build_presentation(spec))


def _closed_form(p):
    eqs = k.derive_trace_equations(p)
    multipliers = _closed_form_multipliers(p, eqs)
    assert multipliers is not None
    return eqs, _recombine(eqs, multipliers)


def _unitary_specs(n_max):
    """Every unitary spec over QS with N <= n_max."""
    for n in range(1, n_max + 1):
        for count in range(1, n + 1):
            for qs in itertools.combinations(QS, count):
                for cuts in itertools.combinations(range(1, n), count - 1):
                    ms = [b - a for a, b in zip((0, *cuts), (*cuts, n))]
                    yield k.BlockSpec("unitary", tuple(zip(qs, ms)))


def test_closed_form_is_the_paper_combination_on_unitary_specs():
    # weights +-Q_j on the row pairs and -+Q_k on the column pairs leave
    # exactly (Q_j - Q_k)^2 / Q_k on tr[u_jk u_jk*] and nothing else
    specs = list(_unitary_specs(4))
    assert len(specs) == 125
    for spec in specs:
        p = k.build_presentation(spec)
        _, (const, coeffs) = _closed_form(p)
        q = [p.q.entry(j, j) for j in range(spec.size)]
        expected = {
            k.generator_symbol(g): (q[g.row] - q[g.col]) ** 2 / q[g.col]
            for g in p.generators if q[g.row] != q[g.col]
        }
        assert const == 0 and coeffs == expected


@settings(max_examples=25, deadline=None)
@given(small_specs())
def test_closed_form_support_joins_two_eigenvalues_on_small_specs(spec):
    p = k.build_presentation(spec)
    eqs, (const, coeffs) = _closed_form(p)
    assert const == 0
    assert set(coeffs) <= eqs.nonneg and all(c > 0 for c in coeffs.values())
    q = p.q.entry
    assert set(coeffs) == {
        k.generator_symbol(g) for g in p.generators if q(g.row, g.row) != q(g.col, g.col)
    }


def test_only_the_constant_term_relations_are_traced_and_they_suffice():
    # the equations are the traces of exactly the relations with a constant
    # term, which come first, so equation i is rel[i]; over them, as over
    # every traced relation, the closed form forces what the per-generator
    # LPs force, and no LP is left unbounded
    specs = specs_up_to(3)
    assert len(specs) == 79
    for spec in specs:
        p = k.build_presentation(spec)
        eqs = k.derive_trace_equations(p)
        with_constant = [r for r in p.relations if r.coefficient(())]
        assert [(e.constant, e.coeffs) for e in eqs.equations] == [
            k.trace_of(r) for r in with_constant]
        assert [e.provenance for e in eqs.equations] == [
            f"rel[{i}]" for i in range(len(with_constant))]
        for equations in (eqs, trace_every_relation(p)):
            closed = {g for g, _ in _closed_form_certificates(p, equations)}
            assert closed == {g for g in p.generators
                              if k.forced_zero(equations, k.generator_symbol(g))}
