from fractions import Fraction as F

from hypothesis import strategies as st

import cqgkac as k
from cqgkac.presentations import layout_ranges


def gen(row, col, star=False, factor=0):
    return k.GeneratorId(factor, row, col, star)


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
    relation u11 u11* - u12 u12*, keeping spec's u, Q and F: tr[u11 u11*]
    = tr[u12 u12*] leaves both unbounded, and tr[u13 u13*] is in no
    equation."""
    p = k.build_presentation(spec)
    u = [gen(0, c) for c in range(3)]
    rel = k.AlgElement.word((u[0], u[0].adjoint())) - k.AlgElement.word((u[1], u[1].adjoint()))
    return k.Presentation(u, [rel], p.u, p.q, p.f, label=p.label)


QS = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))

# the seven specs of the benchmark's report ladder
LADDER = {
    "one-block-1/2x1": one_block_spec(F(1, 2), 1, 1),
    "one-block-1/2x2-eps-1": one_block_spec(F(1, 2), 2, -1),
    "unitary-1/4x1-1x2": k.BlockSpec("unitary", ((F(1, 4), 1), (F(1), 2))),
    "unitary-1/4-1/2-1": k.BlockSpec("unitary", ((F(1, 4), 1), (F(1, 2), 1), (F(1), 1))),
    "case-I-1/2+1": k.BlockSpec("case-I", ((F(1, 2), 1),), trailing=1),
    "case-II-1/3-1/2": k.BlockSpec("case-II", ((F(1, 3), 1), (F(1, 2), 1))),
    "case-II-1/2-1": k.BlockSpec("case-II", ((F(1, 2), 1), (F(1), 1))),
}


@st.composite
def small_specs(draw):
    """Valid BlockSpecs of all four kinds with N <= 6, the total block
    multiplicity drawn first so that small and large specs both occur."""
    kind = draw(st.sampled_from(("unitary", "one-block", "case-I", "case-II")))
    trailing = draw(st.integers(0, 6)) if kind == "case-I" else 0
    cap = 6 if kind == "unitary" else (6 - trailing) // 2
    total = draw(st.integers(0 if trailing else 1, cap))
    count = 1 if kind == "one-block" else draw(st.integers(min(total, 1), min(total, 3)))
    pool = QS if kind in ("unitary", "case-II") else QS[:-1]
    qs = sorted(draw(st.sets(st.sampled_from(pool), min_size=count, max_size=count)))
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), min_size=count - 1,
                               max_size=count - 1))) if count > 1 else []
    ms = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    epsilon = draw(st.sampled_from((1, -1))) if kind == "one-block" else 1
    return k.BlockSpec(kind, tuple(zip(qs, ms)), trailing=trailing, epsilon=epsilon)


def dense(m):
    """A matrix as a list of AlgElement rows: a ScalarMatrix with its
    entries as constants, or a list of rows as it is."""
    if isinstance(m, k.ScalarMatrix):
        return [[k.AlgElement.scalar(m.entry(j, c)) for c in range(m.cols)] for j in range(m.rows)]
    return m


def dense_product(*factors):
    """The product of the factors, left to right, by the dense formula
    (AB)[j,c] = sum_l A[j,l] B[l,c]; each factor is read by `dense`."""
    out = dense(factors[0])
    for f in map(dense, factors[1:]):
        out = [[k.AlgElement.sum(row[l] * f[l][c] for l in range(len(f)))
                for c in range(len(f[0]))] for row in out]
    return out


def dense_inverse(m):
    """The exact inverse of a ScalarMatrix by Gauss-Jordan elimination over
    Fraction rows."""
    n = m.rows
    work = [[m.entry(j, c) for c in range(n)] + [F(int(j == c)) for c in range(n)]
            for j in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [v / lead for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return k.ScalarMatrix([row[n:] for row in work])


def block_positions(spec, name):
    """Row-major (row, col) positions of a named block of spec's layout."""
    rows, cols = layout_ranges(spec)[name]
    return [(j, c) for j in rows for c in cols]


def bar(m):
    """Entrywise adjoint of a list of rows."""
    return [[e.adjoint() for e in row] for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]
