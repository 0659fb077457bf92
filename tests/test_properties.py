"""Randomized invariant suites; each runs at least 1000 cases."""

import random
from fractions import Fraction as F

import cqgkac as k
from cqgkac.presentations import canonicalize_relations

from conftest import gen, ideal_membership_bounded, one_block_spec, random_element

LETTERS = [gen(j, c, s) for j in range(2) for c in range(2) for s in (False, True)]


def test_adjoint_involution_and_antimultiplicativity():
    rng = random.Random(101)
    for _ in range(1000):
        a = random_element(rng, LETTERS)
        b = random_element(rng, LETTERS)
        assert a.adjoint().adjoint() == a
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_cyclic_trace_invariance():
    rng = random.Random(102)
    for _ in range(1000):
        a = random_element(rng, LETTERS, max_words=2, max_len=3)
        b = random_element(rng, LETTERS, max_words=2, max_len=3)
        assert k.trace_of(a * b) == k.trace_of(b * a)


def test_certificates_self_verify_across_configs():
    specs = [
        one_block_spec(F(1, 2), 1, 1),
        one_block_spec(F(1, 3), 2, -1),
        k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1),
        k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1))),
        k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 2))),
    ]
    total = 0
    for spec in specs:
        report, _ = k.kac_fixpoint(k.build_presentation(spec))
        proven = k.verify_certificate(report.certificate, report.equations)
        assert proven == {k.generator_symbol(g) for g in report.forced}
        total += len(proven)
    assert total >= 10


def test_quotient_composition_law():
    rng = random.Random(103)
    p = k.build_presentation(one_block_spec(F(1, 2), 2, 1))
    gens = list(p.generators)
    for _ in range(1000):
        s1 = [g for g in gens if rng.random() < 0.3]
        s2 = [g for g in gens if rng.random() < 0.3]
        seq = k.quotient_by_zero(k.quotient_by_zero(p, s1), [g for g in s2 if g not in s1])
        joint = k.quotient_by_zero(p, set(s1) | set(s2))
        assert seq.relations == joint.relations
        assert seq.generators == joint.generators


def test_canonicalize_idempotent_on_random_inputs():
    rng = random.Random(104)
    for _ in range(1000):
        rels = [random_element(rng, LETTERS, max_words=3, max_len=2) for _ in range(3)]
        once = canonicalize_relations(rels)
        assert canonicalize_relations(once) == once


def test_ideal_membership_monotone_on_fixed_instances():
    p = k.build_universal_orthogonal(k.symplectic_matrix(1))
    rels = p.relations
    letters = [g for r in rels for g in r.letters()]
    rng = random.Random(105)
    instances = list(rels)
    for _ in range(12):
        left = random.Random(rng.random()).choice(letters)
        r = rng.choice(rels)
        instances.append(k.AlgElement.generator(left) * r)
        instances.append(r * k.AlgElement.generator(left))
    instances.append(k.AlgElement.generator(gen(0, 0)))
    instances.append(k.AlgElement.generator(gen(1, 0)) * k.AlgElement.generator(gen(0, 0)))
    history = {}
    for d in (2, 3, 4):
        for i, x in enumerate(instances):
            if x.degree() > d:
                continue
            history.setdefault(i, []).append(ideal_membership_bounded(x, rels, d))
    for outcomes in history.values():
        assert outcomes == sorted(outcomes)  # once true, stays true
