import itertools
from fractions import Fraction as F
from heapq import heapify, heappop, heappush

from hypothesis import strategies as st

import cqgkac as k
from cqgkac.algebra import AlgElement, add_terms, mul, rat_str, ratio, word_key
from cqgkac.hopf import _coproduct, _letter_coproduct
from cqgkac.linalg import WordIndex
from cqgkac.numeric import CharacterError
from cqgkac.presentations import (
    IDENTITIES, SpecError, _monomial_decode, canonicalize_relations, defining_relations,
)
from cqgkac.quotient import _with_adjoints, bounded_ideal_echelon
from cqgkac.trace import (
    Certificate, TraceEquation, TraceEquationSet, generator_symbol, trace_of,
)


def gen(row, col, star=False, selfadjoint=False):
    return k.GeneratorId(row, col, star, selfadjoint)


def letter(row, col, star=False, selfadjoint=False):
    return k.AlgElement.generator(gen(row, col, star, selfadjoint))


def one_block_spec(q, m, eps):
    return k.BlockSpec("one-block", ((F(q), m),), epsilon=eps)


def substitute(x, sigma):
    """The *-homomorphic extension of a map on plain letters, applied to an
    AlgElement or entrywise to a matrix given as rows, returned as a tuple
    of row tuples.

    Starred letters substitute via the adjoint of the image; letters
    absent from sigma map to themselves.  Images are AlgElements.
    """
    if isinstance(x, (list, tuple)):
        return tuple(tuple(substitute(e, sigma) for e in row) for row in x)
    out = AlgElement.zero()
    for w, c in x.terms():
        factor = AlgElement.scalar(c)
        for g in w:
            image = sigma.get(g.plain())
            if image is None:
                image = AlgElement.generator(g)
            elif g.star:
                image = image.adjoint()
            factor = factor * image
        out = out + factor
    return out


def ideal_membership_bounded(x, rels, d):
    """Whether x lies in the span of w * r * w' with total degree <= d.

    One-sided: False only means "not found at this bound".  Exact integer
    linear algebra over the word basis; monotone in d.
    """
    if x.is_zero():
        return True
    if d < x.degree():
        raise ValueError(f"degree bound {d} is below the element degree {x.degree()}")
    letters = _with_adjoints(sorted({g.plain() for e in [*rels, x] for g in e.letters()}))
    ech = bounded_ideal_echelon(rels, letters, d)
    return ech.contains(WordIndex(letters).row(x.terms()))


def random_element(rng, letters, max_words=3, max_len=3):
    terms = {}
    for _ in range(rng.randint(1, max_words)):
        length = rng.randint(0, max_len)
        word = tuple(rng.choice(letters) for _ in range(length))
        terms[word] = F(rng.randint(-4, 4), rng.randint(1, 4))
    return k.AlgElement(terms)


def reference_normalize(r):
    """The two-scale normal form: r and r* each scaled so its least word
    has coefficient 1, the one with the smaller sort_key kept (r on a
    tie); None for zero."""
    if r.is_zero():
        return None
    least = min(r.words(), key=word_key)
    a = r.scale(F(1, r.coefficient(least)))
    rs = r.adjoint()
    least = min(rs.words(), key=word_key)
    b = rs.scale(F(1, rs.coefficient(least)))
    return a if a.sort_key() <= b.sort_key() else b


def reference_canonicalize(rels):
    """`reference_normalize` of every nonzero relation, one per sort_key
    (the last given), sorted."""
    seen = {}
    for r in rels:
        n = reference_normalize(r)
        if n is not None:
            seen[n.sort_key()] = n
    return tuple(seen[key] for key in sorted(seen))


def undetermined_presentation(spec):
    """Spec's presentation cut down to u(1,1), u(1,2), u(1,3) and the one
    relation u11 u11* - u12 u12*, keeping spec's u, Q and F: tr[u11 u11*]
    = tr[u12 u12*] leaves both unbounded, and tr[u13 u13*] is in no
    equation."""
    p = k.build_presentation(spec)
    u = [gen(0, c) for c in range(3)]
    rel = k.AlgElement.word((u[0], u[0].adjoint())) - k.AlgElement.word((u[1], u[1].adjoint()))
    return k.Presentation(u, [rel], p.u, p.q, p.f, label=p.label)


def trace_every_relation(p):
    """The equations of tracing every relation of p, not only those with a
    constant term: the real part of each trace that is not zero, with
    provenance rel[i], and tr[g g*] nonnegative for every generator g."""
    equations = []
    for i, r in enumerate(p.relations):
        constant, coeffs = trace_of(r)
        if constant or coeffs:
            equations.append(TraceEquation(constant, coeffs, f"rel[{i}]"))
    nonneg = {generator_symbol(g) for g in p.generators}
    return TraceEquationSet(equations, nonneg)


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

# the six specs of the benchmark's kac-large workload
KAC_LARGE = {
    "unitary-1/4x2-1/2x1-1x2": k.BlockSpec("unitary", ((F(1, 4), 2), (F(1, 2), 1), (F(1), 2))),
    "one-block-1/2x4": one_block_spec(F(1, 2), 4, 1),
    "one-block-1/3x3-eps-1": one_block_spec(F(1, 3), 3, -1),
    "case-I-1/3x1-1/2x2+2": k.BlockSpec("case-I", ((F(1, 3), 1), (F(1, 2), 2)), trailing=2),
    "case-II-1/4-1/2-1x2": k.BlockSpec("case-II", ((F(1, 4), 1), (F(1, 2), 1), (F(1), 2))),
    "unitary-1/8-1/4-1/2-1": k.BlockSpec(
        "unitary", ((F(1, 8), 1), (F(1, 4), 1), (F(1, 2), 1), (F(1), 1))),
}


def specs_up_to(n_max):
    """Every valid BlockSpec with N <= n_max and block parameters in QS,
    of every kind, trailing size and sign, in a fixed order."""
    out = []
    for kind in ("unitary", "one-block", "case-I", "case-II"):
        for count in range(n_max + 1):
            for qs in itertools.combinations(QS, count):
                for ms in itertools.product(range(1, n_max + 1), repeat=count):
                    if sum(ms) > n_max:  # N >= sum(ms) in every kind
                        continue
                    for trailing, epsilon in itertools.product(range(n_max + 1), (1, -1)):
                        try:
                            spec = k.BlockSpec(kind, tuple(zip(qs, ms)), trailing=trailing,
                                               epsilon=epsilon)
                        except SpecError:
                            continue
                        if spec.size <= n_max:
                            out.append(spec)
    return out


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
        work[col] = [F(v, lead) for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return k.ScalarMatrix([row[n:] for row in work])


def layout_ranges(spec):
    """Row/column index ranges of the named blocks of a standard layout,
    worked out block by block without `BlockSpec.offsets`."""
    ranges = {}
    if spec.kind == "unitary":
        offs, pos = [], 0
        for b in spec.blocks:
            offs.append(range(pos, pos + b.m))
            pos += b.m
        for i, ri in enumerate(offs):
            for j, cj in enumerate(offs):
                ranges[f"A[{i + 1},{j + 1}]"] = (ri, cj)
    elif spec.kind == "one-block":
        m = spec.blocks[0].m
        top, bot = range(0, m), range(m, 2 * m)
        ranges["A"] = (top, top)
        ranges["B"] = (top, bot)
        ranges["C"] = (bot, top)
        ranges["D"] = (bot, bot)
    else:
        odd, even, pos = [], [], 0
        for b in spec.blocks:
            odd.append(range(pos, pos + b.m))
            even.append(range(pos + b.m, pos + 2 * b.m))
            pos += 2 * b.m
        for i, ri in enumerate(odd):
            for j, cj in enumerate(odd):
                ranges[f"A[{i + 1},{j + 1}]"] = (ri, cj)
        for i, ri in enumerate(even):
            for j, cj in enumerate(odd):
                ranges[f"C[{i + 1},{j + 1}]"] = (ri, cj)
        if spec.kind == "case-I" and spec.trailing:
            tail = range(pos, pos + spec.trailing)
            for j, cj in enumerate(odd):
                ranges[f"X[{j + 1}]"] = (tail, cj)
            for i, ri in enumerate(odd):
                ranges[f"R[{i + 1}]"] = (ri, tail)
            ranges["Z"] = (tail, tail)
    return ranges


def reference_kac_target(spec):
    """The free-product Kac target of a block spec, built from the named
    blocks of `layout_ranges`: each surviving block (name, target factor,
    row offset) holds its factor's rows from that offset on, so each
    factor's letters and relations are substituted into the source letters
    of their blocks, then canonicalized together."""
    parts, survivors = [], []
    if spec.kind == "unitary":
        for i, b in enumerate(spec.blocks):
            parts.append(k.build_universal_unitary(k.ScalarMatrix.identity(b.m)))
            survivors.append((f"A[{i + 1},{i + 1}]", i, 0))
    elif spec.kind == "one-block":
        parts.append(k.build_universal_unitary(k.ScalarMatrix.identity(spec.blocks[0].m)))
        survivors.append(("A", 0, 0))
    elif spec.kind == "case-I":
        for i, b in enumerate(spec.blocks):
            parts.append(k.build_universal_unitary(k.ScalarMatrix.identity(b.m)))
            survivors.append((f"A[{i + 1},{i + 1}]", i, 0))
        if spec.trailing:
            parts.append(k.build_universal_orthogonal(k.ScalarMatrix.identity(spec.trailing)))
            survivors.append(("Z", len(spec.blocks), 0))
    else:
        unit = spec.unit_block
        unitary_blocks = spec.blocks[:-1] if unit else spec.blocks
        for i, b in enumerate(unitary_blocks):
            parts.append(k.build_universal_unitary(k.ScalarMatrix.identity(b.m)))
            survivors.append((f"A[{i + 1},{i + 1}]", i, 0))
        if unit:
            parts.append(k.build_universal_orthogonal(k.symplectic_matrix(unit.m)))
            r = len(spec.blocks)
            survivors.append((f"A[{r},{r}]", len(unitary_blocks), 0))
            survivors.append((f"C[{r},{r}]", len(unitary_blocks), unit.m))
    ranges = layout_ranges(spec)
    gens, rels = [], []
    for tag, part in enumerate(parts):
        image = {}
        for name, factor, row_offset in survivors:
            rows, cols = ranges[name]
            if factor == tag:
                image.update((g, gen(rows[g.row - row_offset], cols[g.col],
                                     selfadjoint=g.selfadjoint))
                             for g in part.generators if 0 <= g.row - row_offset < len(rows))
        assert set(image) == set(part.generators)
        gens.extend(image.values())
        sigma = {g: AlgElement.generator(h) for g, h in image.items()}
        rels.extend(substitute(r, sigma) for r in part.relations)
    return k.KacTarget(" * ".join(p.label for p in parts), tuple(sorted(gens)),
                       canonicalize_relations(rels))


def block_positions(spec, name):
    """Row-major (row, col) positions of a named block of spec's layout."""
    rows, cols = layout_ranges(spec)[name]
    return [(j, c) for j in rows for c in cols]


def bar(m):
    """Entrywise adjoint of a list of rows."""
    return [[e.adjoint() for e in row] for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def residue(ech, row):
    """Normal form of a row modulo the span of a SparseEchelon's rows.

    Clears the pivot columns of `ech.pivots`, least first, in Fraction
    arithmetic.  A pivot row vanishes before its lead, so a cleared column
    never comes back, and the result vanishes on every pivot column.  x plus
    the span holds one such vector, because a nonzero vector of the span
    has its lead on a pivot column: the result is linear in the row and
    zero exactly on the span.
    """
    out = {c: F(v) for c, v in row.items() if v}
    heap = list(out)
    heapify(heap)
    while heap:
        c = heappop(heap)
        p = ech.pivots.get(c)
        f = out.get(c)
        if p is None or f is None:
            continue
        f /= p[c]
        for col, v in p.items():
            s = out.get(col, 0) - f * v
            if col not in out:
                heappush(heap, col)
            if s:
                out[col] = s
            else:
                out.pop(col, None)
    return out


def in_ideal_tensor(ideal, index, tensor):
    """Whether a tensor of words lies in the sum, over its slots, of
    A ⊗ … ⊗ I ⊗ … ⊗ A, with I the bounded ideal.

    Applies the ideal's normal-form map to one slot after another; the
    result is zero exactly on that sum, because the normal-form map is a
    linear projection with kernel I.  For Δ(r) this decides
    Δ(r) ∈ I ⊗ A + A ⊗ I.
    """
    t = {tuple(index.encode(w) for w in key): c for key, c in tensor.items()}
    slots = len(next(iter(t))) if t else 0
    for slot in range(slots):
        rows = {}
        for key, c in t.items():
            rows.setdefault(key[:slot] + key[slot + 1:], {})[key[slot]] = c
        t = {
            rest[:slot] + (col,) + rest[slot:]: c
            for rest, row in rows.items()
            for col, c in residue(ideal, row).items()
        }
    return not t


def coassociator(deltas, delta):
    """(Δ ⊗ id)(delta) − (id ⊗ Δ)(delta) over word triples, zeros dropped;
    `deltas` maps each letter to its coproduct."""
    out = {}
    for (w1, w2), c in delta.terms():
        left = _coproduct(deltas, k.AlgElement.word(w1, c)).terms()
        right = _coproduct(deltas, k.AlgElement.word(w2, -c)).terms()
        add_terms(out, (((a, b, w2), v) for (a, b), v in left))
        add_terms(out, (((w1, a, b), v) for (a, b), v in right))
    return out


def counit_laws_hold(p):
    """Whether (ε ⊗ id)Δ(g) = g = (id ⊗ ε)Δ(g) for every generator g of p,
    each side contracted term by term in the free algebra."""
    for g in p.generators:
        terms = _letter_coproduct(p, g).terms()
        left = k.AlgElement.sum(
            k.AlgElement.word(w2, c * k.counit(p, k.AlgElement.word(w1))) for (w1, w2), c in terms
        )
        right = k.AlgElement.sum(
            k.AlgElement.word(w1, c * k.counit(p, k.AlgElement.word(w2))) for (w1, w2), c in terms
        )
        if left != k.AlgElement.generator(g) or right != k.AlgElement.generator(g):
            return False
    return True


def gamma_oracle(a):
    """The central morphism onto the group algebra of the order-two group
    {1, t}: a diagonal letter maps to t, any other letter to 0; t is
    hermitian with t^2 = 1.  Returns (coefficient of 1, coefficient of t)."""
    total = [0, 0]
    for w, c in a.terms():
        if all(g.row == g.col for g in w):
            total[len(w) % 2] += c
    return total


def central_morphism_oracle(p):
    """Whether (gamma x id) Delta equals (gamma x id) flip Delta on every
    fundamental position, compared coefficient by coefficient of 1 and t."""
    u = p.u
    span = range(len(u))
    z = [[gamma_oracle(x) for x in row] for row in u]
    for j in span:
        for c in span:
            for part in (0, 1):
                lhs = k.AlgElement.sum(u[l][c].scale(z[j][l][part]) for l in span)
                rhs = k.AlgElement.sum(u[j][l].scale(z[l][c][part]) for l in span)
                if lhs != rhs:
                    return False
    return True


def oracle_relation_verdicts(p):
    """Per relation index, whether Δ(r) lies in I_D ⊗ A + A ⊗ I_D, with
    I_D the relation ideal truncated at the longest word D of any Δ(r):
    "pass" or "inconclusive"."""
    letters = _with_adjoints(p.generators)
    deltas = {g: _letter_coproduct(p, g) for g in letters}
    items = [dict(_coproduct(deltas, r).terms()) for r in p.relations]
    degree = max((len(w) for t in items for key in t for w in key), default=0)
    ideal = bounded_ideal_echelon(p.relations, letters, degree)
    index = WordIndex(letters)
    return {i: "pass" if in_ideal_tensor(ideal, index, t) else "inconclusive"
            for i, t in enumerate(items)}


def oracle_antipode_items(p):
    """Per generator label, m(S ⊗ id)Δ(g) − ε(g) and m(id ⊗ S)Δ(g) − ε(g),
    built term by term over the word pairs of Δ(g), with S applied to each
    word through the public `antipode`."""
    items = {}
    for g in p.generators:
        terms = _letter_coproduct(p, g).terms()
        eps = k.AlgElement.scalar(k.counit(p, k.AlgElement.generator(g)))
        lhs = k.AlgElement.sum([-eps, *(
            k.antipode(p, k.AlgElement.word(w1, c)) * k.AlgElement.word(w2)
            for (w1, w2), c in terms
        )])
        rhs = k.AlgElement.sum([-eps, *(
            k.AlgElement.word(w1, c) * k.antipode(p, k.AlgElement.word(w2))
            for (w1, w2), c in terms
        )])
        items[g.label()] = (lhs, rhs)
    return items


def truncated_presentation(p):
    """p without its last relation, keeping its generators, u, Q and F."""
    return k.Presentation(p.generators, p.relations[:-1], p.u, p.q, p.f, label=p.label)


def hand_made_f():
    """F = diag(1, -1) ⊕ [[0, 1/2], [2, 0]]: F Fbar = I, with a self-paired
    position (1,2) where d_1 = -d_2, which no BlockSpec builds and the
    builder refuses."""
    return k.ScalarMatrix([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, F(1, 2)], [0, 0, 2, 0]])


def plain_pair_presentation(f):
    """A hand-made presentation over a monomial F that the builder refuses
    for d_j = -d_k at a self-paired position (pi(j) = j, pi(k) = k).

    Laid out as `reality_substitution` lays out the rest: a self-paired
    position with d_j = d_k holds a self-adjoint letter, a pair of
    positions keeps its smaller (column, row) one and the partner holds
    its scaled adjoint.  A position with d_j = -d_k keeps a plain letter,
    and u(j,k) = -u(j,k)* stays a nonzero reality entry, u(j,k) + u(j,k)*,
    among the defining relations.
    """
    pi, d = _monomial_decode(f)
    n = f.rows
    kept, rows = [], [[None] * n for _ in range(n)]
    for j, pj in enumerate(pi):
        for c, pc in enumerate(pi):
            selfadjoint = (pj, pc) == (j, c) and d[j] == d[c]
            if selfadjoint or (c, j) <= (pc, pj):
                kept.append(gen(j, c, selfadjoint=selfadjoint))
                rows[j][c] = letter(j, c, selfadjoint=selfadjoint)
            else:
                rows[j][c] = letter(pj, pc, star=True).scale(ratio(d[j], d[c]))
    q = k.ScalarMatrix.diagonal([d[pj] * d[pj] for pj in pi])
    return k.Presentation(kept, defining_relations(rows, q, f), rows, q, f)


def four_identity_relations(u, q, f=None):
    """Every entry of the four unitarity identities over u, each row-major
    with only the entries j <= k, then, when a monomial F is given, all N^2
    reality entries: the defining relations written out in full, whether
    or not the reality relation makes the plain pair repeat the twisted
    one."""
    n = len(u)
    s = [[x.adjoint() for x in row] for row in u]
    d = [q.entry(j, j) for j in range(n)]
    t = [[x.scale(ratio(d[j], d[c])) for c, x in enumerate(row)] for j, row in enumerate(s)]
    entries = (
        lambda j, c: (u[j][a] * s[c][a] for a in range(n)),
        lambda j, c: (s[a][j] * u[a][c] for a in range(n)),
        lambda j, c: (u[a][j] * t[a][c] for a in range(n)),
        lambda j, c: (t[j][a] * u[c][a] for a in range(n)),
    )
    rels = [
        AlgElement.sum(entry(j, c)) - AlgElement.scalar(int(j == c))
        for entry in entries
        for j in range(n)
        for c in range(j, n)
    ]
    if f is not None:
        pi, df = _monomial_decode(f)
        rels.extend(u[j][c] - s[pj][pc].scale(ratio(df[j], df[c]))
                    for j, pj in enumerate(pi) for c, pc in enumerate(pi))
    return rels


def identity_entries(u, q, f=None):
    """`four_identity_relations` by label: (identity, j, k) -> its entry,
    the unitarity identities at j <= k, the reality entries at every
    position when F is given."""
    n = len(u)
    labels = [(name, j, c) for name in IDENTITIES[:4] for j in range(n) for c in range(j, n)]
    if f is not None:
        labels += [(IDENTITIES[4], j, c) for j in range(n) for c in range(n)]
    return dict(zip(labels, four_identity_relations(u, q, f)))


def coefficient_set_certificate(p, eqs):
    """The closed-form certificate found by search, an oracle for the one
    read by position: the same claimed coefficients, from the table a_jk =
    tr(u_jk u_jk*); each weighted diagonal entry of the four identities is
    found among the equations of constant 1 by its negated coefficients,
    with multiplier minus its weight.  None when the claim is empty or an
    entry is not found."""
    n = len(p.u)
    q = [p.q.entry(j, j) for j in range(n)]
    a = [[trace_of(x * x.adjoint())[1] for x in row] for row in p.u]

    def combination(weights):
        return add_terms({}, ((s, mul(w, c)) for (j, l), w in weights for s, c in a[j][l].items()))

    coefficients = combination(((j, l), ratio(mul(q[j] - q[l], q[j] - q[l]), q[l]))
                               for j in range(n) for l in range(n) if q[j] != q[l])
    if not coefficients:
        return None
    index = {frozenset((s, -c) for s, c in e.coeffs.items()): i
             for i, e in enumerate(eqs.equations) if e.constant == 1}
    multipliers = {}
    for j in range(n):
        for weights, weight in (
            ([((j, l), ratio(q[j], q[l])) for l in range(n)], q[j]),  # QUbarQ^-1Ut-I[j,j]
            ([((j, l), 1) for l in range(n)], -q[j]),  # UU*-I[j,j]
            ([((l, j), 1) for l in range(n)], q[j]),  # U*U-I[j,j]
            ([((l, j), ratio(q[l], q[j])) for l in range(n)], -q[j]),  # UtQUbarQ^-1-I[j,j]
        ):
            i = index.get(frozenset(combination(weights).items()))
            if i is None:
                return None
            add_terms(multipliers, ((i, -weight),))
    return Certificate(tuple(sorted(multipliers.items())), coefficients)


def verify_character_by_terms(p, V):
    """Term-by-term check that u(j,k) -> V[j][k] is a character of p, an
    oracle for `verify_character`: V an N x N signed permutation matrix of
    integers, every generator in the layout, every relation zero at V and
    every entry of u equal to V's.  Raises CharacterError naming the first
    failing rel[i] or position; reads no builder form."""
    u = p.u
    n = len(u)
    if len(V) != n or any(len(row) != n for row in V):
        raise CharacterError(f"V is not {n}x{n}")
    for row in V:
        if any(isinstance(x, bool) or not isinstance(x, int) for x in row):
            raise CharacterError("V has a non-integer entry")
    for line in (*V, *zip(*V)):
        if sorted(abs(x) for x in line) != [0] * (n - 1) + [1]:
            raise CharacterError("V is not a signed permutation matrix")
    for g in p.generators:
        if not (g.row < n and g.col < n):
            raise CharacterError(f"{g.label()} lies outside the {n}x{n} fundamental matrix")
    for i, r in enumerate(p.relations):
        value = r.at(V)
        if value:
            raise CharacterError(f"rel[{i}] evaluates to {value}, not 0")
    for j in range(n):
        for c in range(n):
            if u[j][c].at(V) != V[j][c]:
                raise CharacterError(f"fundamental entry ({j + 1},{c + 1}) differs from V")
    return True


def transposition_candidates(P):
    """The transposition enumerator, an oracle for `numeric._candidates`:
    signed permutation matrices in enumeration order, each once.  The
    identity; each transposition inside an eigenvalue class of Q with its
    F-partner; the half-swap of a class F maps onto itself; then the
    transpositions again with the signs F asks for.  At most N^2 + 1 of
    them, some breaking a relation.

    The F-partner of a transposition (a b) is (pi(a) pi(b)), where F[j,
    pi(j)] is the nonzero of row j (pi is the identity for the unitary
    kind).  Signs start at +1; the signs F asks for keep +1 on the smaller
    index of each pi-orbit r and put sign(d(sigma r) / d(r)) on pi(r), d(j)
    = F[j, pi(j)], which is what V F = F V needs once sigma commutes with pi.
    """
    q, f = P.q, P.f
    n = q.rows
    pi, d = _monomial_decode(f) if f else (list(range(n)), None)
    classes = {}
    for j in range(n):
        classes.setdefault(q.entry(j, j), []).append(j)

    def matrix(perm, signs):
        return tuple(tuple(signs[j] if k == perm[j] else 0 for k in range(n)) for j in range(n))

    def f_signs(perm):
        signs = [1] * n
        for r in range(n):
            if r < pi[r] and d[perm[r]] * d[r] < 0:
                signs[pi[r]] = -1
        return signs

    transpositions = []
    for members in classes.values():
        for a, b in itertools.combinations(members, 2):
            perm = list(range(n))
            perm[a], perm[b] = b, a
            if {pi[a], pi[b]} != {a, b}:
                perm[pi[a]], perm[pi[b]] = pi[b], pi[a]
            transpositions.append(perm)
    plus = [1] * n
    stages = [(list(range(n)), plus)]
    stages += [(perm, plus) for perm in transpositions]
    for members in classes.values():
        if any(pi[j] != j for j in members) and {pi[j] for j in members} == set(members):
            half = [pi[j] if j in members else j for j in range(n)]
            stages.append((half, f_signs(half)))
    if f is not None:
        stages += [(perm, f_signs(perm)) for perm in transpositions]
    seen = set()
    for perm, signs in stages:
        V = matrix(perm, signs)
        if V not in seen:
            seen.add(V)
            yield V


def certificate_json(cert, equations):
    """The report's one certificate, rendered on its own: its combination
    over the equations and its sorted coefficients; None for no
    certificate."""
    if cert is None:
        return None
    return {
        "combination": [
            {
                "equation": idx,
                "provenance": equations[idx].provenance,
                "multiplier": rat_str(mult),
            }
            for idx, mult in cert.multipliers
        ],
        "coefficients": {
            s.label(): rat_str(c) for s, c in sorted(
                cert.coefficients.items(), key=lambda kv: kv[0].sort_key()
            )
        },
    }
