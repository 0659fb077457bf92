from fractions import Fraction as F

import cqgkac as k


def gen(row, col, star=False, factor=0):
    return k.GeneratorId(factor, "u", row, col, star)


def letter(row, col, star=False, factor=0):
    return k.AlgElement.generator(gen(row, col, star, factor))


def one_block_spec(q, m, eps):
    return k.BlockSpec("one-block", ((F(q), m),), epsilon=eps)


def random_element(rng, letters, max_words=3, max_len=3):
    terms = {}
    for _ in range(rng.randint(1, max_words)):
        length = rng.randint(0, max_len)
        word = tuple(rng.choice(letters) for _ in range(length))
        terms[word] = F(rng.randint(-4, 4), rng.randint(1, 4))
    return k.AlgElement(terms)


def undetermined_presentation(spec):
    """Spec's presentation cut down to u(1,1), u(1,2), u(1,3) and the one
    relation u11 u11* - u12 u12*, keeping spec's fundamentals: tr[u11 u11*]
    = tr[u12 u12*] leaves both unbounded, and tr[u13 u13*] is in no
    equation."""
    p = k.build_presentation(spec)
    u = [gen(0, c) for c in range(3)]
    rel = k.AlgElement.word((u[0], u[0].adjoint())) - k.AlgElement.word((u[1], u[1].adjoint()))
    return k.Presentation(u, [rel], p.fundamentals, p.qmatrices, p.fmatrices,
                          spec=p.spec, label=p.label)
