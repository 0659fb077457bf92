"""Generator/relation presentations of universal unitary and orthogonal
CQG algebras.

A presentation stores the kept (plain) generators, a canonicalized relation
list (every relation asserted = 0), and one fundamental matrix per free
factor.  Builders produce:

  * the universal unitary algebra of a positive diagonal matrix Q
    (relations: U and the Q-twisted conjugate of U are unitary),
  * the universal orthogonal algebra of an invertible F with F Fbar = +-I
    (the unitary relations plus the reality relation U = F Ubar F^-1),
  * free products (disjoint generators, union of relations).

For monomial F the reality relation makes half the generators redundant;
they are eliminated eagerly and the fundamental matrix keeps the
substituted expressions in their places.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgElement,
    AlgMatrix,
    GeneratorId,
    ScalarMatrix,
    rat,
    rat_str,
    word_key,
)

KINDS = ("unitary", "one-block", "case-I", "case-II")


@dataclass(frozen=True)
class Block:
    """One eigenvalue block: parameter q with multiplicity m."""

    q: Fraction
    m: int


@dataclass(frozen=True)
class BlockSpec:
    """Block description of a standard-form matrix.

    unitary   : blocks give the distinct eigenvalues of Q, ascending.
    one-block : a single antidiagonal block with 0 < q < 1 and a sign.
    case-I    : antidiagonal 2x2 blocks with 0 < q_1 < ... < q_r < 1,
                then an identity block of size `trailing`.
    case-II   : antidiagonal blocks with a sign, 0 < q_1 < ... < q_r <= 1;
                q = 1 is allowed in the last block only.
    """

    kind: str
    blocks: tuple
    trailing: int = 0
    epsilon: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        blocks = tuple(Block(rat(b.q if isinstance(b, Block) else b[0]),
                             int(b.m if isinstance(b, Block) else b[1]))
                       for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if any(b.m < 1 for b in blocks):
            raise ValueError("block multiplicities must be >= 1")
        qs = [b.q for b in blocks]
        if any(q <= 0 for q in qs):
            raise ValueError("block parameters must be positive")
        if any(a >= b for a, b in zip(qs, qs[1:])):
            raise ValueError("block parameters must be strictly increasing")
        if self.kind == "unitary":
            if not blocks:
                raise ValueError("unitary spec needs at least one eigenvalue block")
            if self.trailing:
                raise ValueError("unitary spec takes no trailing block")
        elif self.kind == "one-block":
            if len(blocks) != 1:
                raise ValueError("one-block spec takes exactly one block")
            if qs[0] >= 1:
                raise ValueError("one-block parameter must satisfy 0 < q < 1")
            if self.epsilon not in (-1, 1):
                raise ValueError("epsilon must be -1 or +1")
            if self.trailing:
                raise ValueError("one-block spec takes no trailing block")
        elif self.kind == "case-I":
            if any(q >= 1 for q in qs):
                raise ValueError("case-I parameters must satisfy q < 1")
            if self.trailing < 0:
                raise ValueError("trailing size must be >= 0")
            if not blocks and not self.trailing:
                raise ValueError("empty case-I spec")
        elif self.kind == "case-II":
            if not blocks:
                raise ValueError("case-II spec needs at least one block")
            if any(q > 1 for q in qs):
                raise ValueError("case-II parameters must satisfy q <= 1")
            if self.trailing:
                raise ValueError("case-II spec takes no trailing block")

    @property
    def size(self) -> int:
        """Dimension N of the standard-form matrix."""
        k = sum(b.m for b in self.blocks)
        if self.kind == "unitary":
            return k
        if self.kind in ("one-block", "case-II"):
            return 2 * k
        return 2 * k + self.trailing

    @property
    def unit_block(self):
        """The q = 1 block of a case-II spec, if present."""
        if self.kind == "case-II" and self.blocks and self.blocks[-1].q == 1:
            return self.blocks[-1]
        return None


def standard_form_matrix(spec: BlockSpec) -> ScalarMatrix:
    """The standard-form matrix of a block spec.

    Returns the diagonal Q for the unitary kind, otherwise F with one
    antidiagonal 2x2 block per parameter (ascending) and, in case I, a
    trailing identity block.
    """
    if spec.kind == "unitary":
        diag = []
        for b in spec.blocks:
            diag.extend([b.q] * b.m)
        return ScalarMatrix.diagonal(diag)
    n = spec.size
    rows = [[Fraction(0)] * n for _ in range(n)]
    sign = -1 if spec.kind == "case-II" else spec.epsilon
    pos = 0
    for b in spec.blocks:
        for i in range(b.m):
            rows[pos + i][pos + b.m + i] = b.q
            rows[pos + b.m + i][pos + i] = sign / b.q
        pos += 2 * b.m
    for i in range(spec.trailing):
        rows[pos + i][pos + i] = Fraction(1)
    return ScalarMatrix(rows)


def symplectic_matrix(m: int) -> ScalarMatrix:
    """The standard symplectic matrix: ((0, I_m), (-I_m, 0))."""
    return standard_form_matrix(BlockSpec("case-II", ((Fraction(1), m),)))


def eigenvalue_profile(F: ScalarMatrix):
    """Eigenvalues of F*F with multiplicities, ascending.

    Only monomial F is accepted: there F*F is diagonal and the profile is
    exact; general eigenvalues are unavailable in rational arithmetic.
    """
    if not F.is_monomial():
        raise ValueError("eigenvalue profile needs a monomial matrix")
    q = F.star() * F
    counts = {}
    for j in range(q.rows):
        v = q.entry(j, j)
        counts[v] = counts.get(v, 0) + 1
    return sorted(counts.items())


def normalize_relation(r: AlgElement):
    """Scale so the least word has coefficient 1; fold with the adjoint.

    Returns None for the zero element.  Of the normalized relation and its
    normalized adjoint, the smaller under the element order is kept, so
    adjoint-duplicates collapse to one stored orientation.
    """
    if r.is_zero():
        return None
    least = min(r.words(), key=word_key)
    a = r.scale(1 / r.coefficient(least))
    rs = r.adjoint()
    least = min(rs.words(), key=word_key)
    b = rs.scale(1 / rs.coefficient(least))
    return a if a.sort_key() <= b.sort_key() else b


def canonicalize_relations(rels):
    """Normalized, deduplicated, sorted relation tuple."""
    seen = {}
    for r in rels:
        n = normalize_relation(r)
        if n is not None:
            seen[n.sort_key()] = n
    return tuple(seen[k] for k in sorted(seen))


class Presentation:
    """A finitely presented *-algebra with CQG bookkeeping.

    generators   : kept plain GeneratorIds, sorted.
    relations    : canonicalized AlgElements, each asserted = 0.
    fundamentals : factor tag -> fundamental matrix (kept generators in
                   their positions, eliminated positions substituted).
    qmatrices    : factor tag -> the diagonal Q of that factor.
    fmatrices    : factor tag -> F for orthogonal factors, else None.
    spec         : the BlockSpec the presentation was built from, if any.
    eliminated   : whether redundant generators were eliminated (always
                   true except for orthogonal builds with non-monomial F).
    """

    __slots__ = (
        "generators",
        "relations",
        "fundamentals",
        "qmatrices",
        "fmatrices",
        "spec",
        "eliminated",
        "label",
    )

    def __init__(self, generators, relations, fundamentals, qmatrices,
                 fmatrices, spec=None, eliminated=True, label=""):
        self.generators = tuple(sorted(generators))
        self.relations = canonicalize_relations(relations)
        self.fundamentals = dict(fundamentals)
        self.qmatrices = dict(qmatrices)
        self.fmatrices = dict(fmatrices)
        self.spec = spec
        self.eliminated = eliminated
        self.label = label

    @property
    def factor_tags(self):
        return sorted(self.fundamentals)

    @property
    def sizes(self):
        return {"generators": len(self.generators), "relations": len(self.relations)}

    def generator_set(self):
        return set(self.generators)

    def fundamental(self, tag=None) -> AlgMatrix:
        if tag is None:
            (tag,) = self.factor_tags
        return self.fundamentals[tag]

    def __repr__(self):
        return (f"Presentation({self.label or 'anonymous'}: "
                f"{len(self.generators)} generators, {len(self.relations)} relations)")


def generator_matrix(n: int, factor: int = 0, name: str = "u") -> AlgMatrix:
    return AlgMatrix(
        [
            [AlgElement.generator(GeneratorId(factor, name, j, k)) for k in range(n)]
            for j in range(n)
        ]
    )


def _unitarity_relations(u: AlgMatrix, q: ScalarMatrix):
    """Entries of the four defining identities for U and its Q-twist.

    U U* = I = U* U and U^t Q Ubar Q^-1 = I = Q Ubar Q^-1 U^t; the second
    pair states unitarity of F Ubar F^-1 rewritten through Q = F*F.
    """
    n = u.rows
    eye = AlgMatrix.identity(n)
    qe = q.embed()
    qi = q.inverse().embed()
    ut = u.transpose()
    ub = u.bar()
    mats = [
        u * u.star() - eye,
        u.star() * u - eye,
        ut * qe * ub * qi - eye,
        qe * ub * qi * ut - eye,
    ]
    out = []
    for m in mats:
        out.extend(m.entries())
    return out


def build_universal_unitary(Q: ScalarMatrix, factor: int = 0, label: str = "") -> Presentation:
    """Presentation of the universal unitary algebra of a diagonal Q."""
    if Q.rows != Q.cols:
        raise ValueError("Q must be square")
    if not Q.is_diagonal():
        raise ValueError("Q must be diagonal")
    if any(Q.entry(j, j) <= 0 for j in range(Q.rows)):
        raise ValueError("Q must be positive")
    n = Q.rows
    u = generator_matrix(n, factor)
    gens = [GeneratorId(factor, "u", j, k) for j in range(n) for k in range(n)]
    rels = _unitarity_relations(u, Q)
    return Presentation(
        gens, rels, {factor: u}, {factor: Q}, {factor: None},
        label=label or unitary_label(Q),
    )


def _monomial_data(F: ScalarMatrix):
    """(pi, f) with F[j, pi(j)] = f_j the unique nonzero of row j."""
    pi, f = [], []
    for j in range(F.rows):
        cols = [k for k in range(F.cols) if F.entry(j, k)]
        if len(cols) != 1:
            raise ValueError("matrix is not monomial")
        pi.append(cols[0])
        f.append(F.entry(j, cols[0]))
    return pi, f


def reality_substitution(P: Presentation, F: ScalarMatrix):
    """Resolve the reality relation of a monomial F into a substitution.

    Expands the entries of U - F Ubar F^-1 on the raw generator matrix.
    Each entry pairs position (j,k) with (pi(j), pi(k)); of every pair the
    position with the smaller (column, row) is kept and the partner maps to
    scalar * kept*.  Self-paired entries stay as hermitian-type relations.

    Returns (sigma, kept) where sigma sends each redundant plain generator
    to its expression over the kept ones.
    """
    if not F.is_monomial():
        raise ValueError("reality substitution needs a monomial matrix")
    (tag,) = P.factor_tags
    n = F.rows
    u = generator_matrix(n, tag)
    h = u - F.embed() * u.bar() * F.inverse().embed()
    pi, _ = _monomial_data(F)
    sigma = {}
    kept = []
    for j in range(n):
        for k in range(n):
            pj, pk = pi[j], pi[k]
            if (pj, pk) == (j, k):
                kept.append(GeneratorId(tag, "u", j, k))
                continue
            if (k, j) < (pk, pj):
                kept.append(GeneratorId(tag, "u", j, k))
                continue
            entry = h.entry(j, k)
            g = GeneratorId(tag, "u", j, k)
            partner = GeneratorId(tag, "u", pj, pk, star=True)
            scalar = -entry.coefficient((partner,))
            expected = AlgElement.generator(g) - AlgElement.word((partner,), scalar)
            if entry.coefficient((g,)) != 1 or entry != expected:
                raise RuntimeError(f"unresolvable reality entry at ({j},{k}): {entry}")
            sigma[g] = AlgElement.word((partner,), scalar)
    return sigma, sorted(kept)


def build_universal_orthogonal(F: ScalarMatrix, factor: int = 0, label: str = "") -> Presentation:
    """Presentation of the universal orthogonal algebra of F.

    Requires F Fbar = +I or -I exactly.  For monomial F the redundant
    generators are eliminated eagerly; otherwise all N^2 generators and the
    verbatim reality relations are kept (and the Kac pipeline refuses such
    presentations).
    """
    if F.rows != F.cols:
        raise ValueError("F must be square")
    n = F.rows
    prod = F * F
    if prod == ScalarMatrix.identity(n):
        pass
    elif prod == ScalarMatrix.identity(n).scale(-1):
        pass
    else:
        raise ValueError(f"F Fbar must be +I or -I; got {prod!r}")
    q = F.star() * F
    u = generator_matrix(n, factor)
    rels = _unitarity_relations(u, q)
    h = u - F.embed() * u.bar() * F.inverse().embed()
    rels.extend(h.entries())
    label = label or orthogonal_label(F)
    if not F.is_monomial():
        gens = [GeneratorId(factor, "u", j, k) for j in range(n) for k in range(n)]
        return Presentation(
            gens, rels, {factor: u}, {factor: q}, {factor: F},
            eliminated=False, label=label,
        )
    raw = Presentation(
        [GeneratorId(factor, "u", j, k) for j in range(n) for k in range(n)],
        [], {factor: u}, {factor: q}, {factor: F}, label=label,
    )
    sigma, kept = reality_substitution(raw, F)
    reduced = [r.substitute(sigma) for r in rels]
    return Presentation(
        kept, reduced, {factor: u.substitute(sigma)}, {factor: q}, {factor: F},
        label=label,
    )


def free_product(parts) -> Presentation:
    """Disjoint union of generators and union of relations, retagged."""
    parts = list(parts)
    if not parts:
        raise ValueError("free product needs at least one part")
    gens, rels = [], []
    fundamentals, qmats, fmats = {}, {}, {}
    next_tag = 0
    for part in parts:
        for old in part.factor_tags:
            remap = {}
            for g in part.generators:
                if g.factor == old:
                    remap[g] = AlgElement.generator(g._replace(factor=next_tag))
            gens.extend(g._replace(factor=next_tag) for g in part.generators if g.factor == old)
            fundamentals[next_tag] = part.fundamentals[old].substitute(remap)
            qmats[next_tag] = part.qmatrices[old]
            fmats[next_tag] = part.fmatrices[old]
            # relations of a factor only involve that factor's letters
            for r in part.relations:
                if any(g.plain().factor == old for w in r.words() for g in w):
                    rels.append(r.substitute(remap))
            next_tag += 1
    label = " * ".join(p.label or "?" for p in parts)
    return Presentation(
        gens, rels, fundamentals, qmats, fmats,
        eliminated=all(p.eliminated for p in parts), label=label,
    )


def build_presentation(spec: BlockSpec, label: str = "") -> Presentation:
    """Build the presentation described by a block spec."""
    m = standard_form_matrix(spec)
    if spec.kind == "unitary":
        p = build_universal_unitary(m, label=label)
    else:
        p = build_universal_orthogonal(m, label=label)
    p.spec = spec
    return p


def unitary_label(Q: ScalarMatrix) -> str:
    if Q.is_identity():
        return f"Pol(U_{Q.rows}^+)"
    diag = ",".join(rat_str(Q.entry(j, j)) for j in range(Q.rows))
    return f"Pol(U_Q^+)[Q=diag({diag})]"


def orthogonal_label(F: ScalarMatrix) -> str:
    if F.is_identity():
        return f"Pol(O_{F.rows}^+)"
    n = F.rows
    if n % 2 == 0 and F == symplectic_matrix(n // 2):
        return f"Pol(O_J{n // 2}^+)"
    return f"Pol(O_F^+)[N={n}]"


@dataclass(frozen=True)
class BlockDecomposition:
    """Named views into the fundamental matrix of a standard-form build."""

    ranges: dict
    views: dict

    def matrix(self, name: str) -> AlgMatrix:
        return self.views[name]

    def positions(self, name: str):
        rows, cols = self.ranges[name]
        return [(j, k) for j in rows for k in cols]

    def names(self):
        return sorted(self.ranges)


def _submatrix(m: AlgMatrix, rows, cols) -> AlgMatrix:
    return AlgMatrix([[m.entry(j, k) for k in cols] for j in rows])


def layout_ranges(spec: BlockSpec) -> dict:
    """Row/column index ranges of the named blocks of a standard layout."""
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


def block_decompose(P: Presentation, spec: BlockSpec = None) -> BlockDecomposition:
    """Carve the fundamental matrix into the named blocks of its layout."""
    spec = spec or P.spec
    if spec is None:
        raise ValueError("no block spec available for decomposition")
    (tag,) = P.factor_tags
    u = P.fundamentals[tag]
    if u.rows != spec.size:
        raise ValueError(
            f"layout mismatch: matrix is {u.rows}x{u.cols}, spec says N={spec.size}"
        )
    ranges = layout_ranges(spec)
    views = {name: _submatrix(u, rows, cols) for name, (rows, cols) in ranges.items()}
    return BlockDecomposition(ranges, views)
