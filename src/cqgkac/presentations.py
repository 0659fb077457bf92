"""Generator/relation presentations of universal unitary and orthogonal
CQG algebras.

A presentation is one quantum group: it stores the kept (plain)
generators, a canonicalized relation list (every relation asserted = 0),
its fundamental matrix, Q and, for the orthogonal kind, F.  Builders
produce:

  * the universal unitary algebra of a positive diagonal matrix Q
    (relations: U and the Q-twisted conjugate of U are unitary),
  * the universal orthogonal algebra of an invertible F with F Fbar = +-I
    (the unitary relations plus the reality relation U = F Ubar F^-1).

F must be monomial, as every standard form is: row j holds one nonzero
d_j = F[j,pi(j)].  Then F Fbar and Q = F*F are read off pi and d,

  (F Fbar)[j,k] = d_j d_pi(j) delta(pi(pi(j)),k),   Q = diag(Q_j),  Q_pi(j) = d_j^2,

so F Fbar = +-I means pi is an involution with d_j d_pi(j) = +-1, one sign
for all j, and Q is diagonal.  Every relation entry is then a one-index
sum, written down directly:

  (U U* - I)[j,k]            = sum_a u(j,a) u(k,a)* - delta(j,k)
  (U* U - I)[j,k]            = sum_a u(a,j)* u(a,k) - delta(j,k)
  (U^t Q Ubar Q^-1 - I)[j,k] = sum_a (Q_a/Q_k) u(a,j) u(a,k)* - delta(j,k)
  (Q Ubar Q^-1 U^t - I)[j,k] = sum_a (Q_j/Q_a) u(j,a)* u(k,a) - delta(j,k)
  (U - F Ubar F^-1)[j,k]     = u(j,k) - (d_j/d_k) u(pi(j),pi(k))*

Each of the four unitarity identities is self-adjoint: its entry (k,j) is
a scalar multiple of the adjoint of entry (j,k), namely 1 for the first
pair and Q_k/Q_j for the twisted pair, whatever the entries of u are.  A
relation and its scaled adjoint share one normal form, so only the
entries with j <= k are written.

Once the reality relation holds, the plain pair repeats the twisted pair.
With V = F Ubar F^-1 and F^-1 = Q^-1 F* (Q = F*F),

  V* V - I = (F*)^-1 (U^t Q Ubar Q^-1 - I) F*,
  V V* - I = F Q^-1 (Q Ubar Q^-1 U^t - I) F*,

and both are conjugations by monomial matrices.  So when every reality
entry is zero over u, V = U entry by entry and every entry of the plain
pair is a nonzero scalar multiple of one entry of the twisted pair: the
two pairs span the same relation classes, and only the twisted pair is
written (`defining_relations`).

The reality entries make half the generators redundant.  They are
substituted into the generator matrix once, every entry is written over
that substituted matrix, and the fundamental matrix keeps the substituted
expressions in their places.  A self-paired position (pi(j) = j, pi(k) = k,
d_j = d_k; the trailing block of case I) holds a self-adjoint letter: its
reality entry is zero, and there the twisted pair repeats the plain pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .algebra import (
    AlgElement,
    AlgMatrix,
    GeneratorId,
    ScalarMatrix,
    is_int,
    rat,
    rat_str,
    ratio,
    word_adjoint,
)

KINDS = ("unitary", "one-block", "case-I", "case-II")
MAX_SIZE = 64  # largest dimension N a BlockSpec accepts


class SpecError(ValueError):
    """A block-spec field that fails validation; `field` names it."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


class Block(NamedTuple):
    """One eigenvalue block: parameter q with multiplicity m."""

    q: Fraction
    m: int


class _SpecFields(NamedTuple):
    kind: str
    blocks: tuple
    trailing: int = 0
    epsilon: int = 1


class BlockSpec(_SpecFields):
    """Block description of a standard-form matrix.

    unitary   : blocks give the distinct eigenvalues of Q, ascending.
    one-block : a single antidiagonal block with 0 < q < 1 and a sign
                epsilon; the other kinds keep epsilon = +1.
    case-I    : antidiagonal 2x2 blocks with 0 < q_1 < ... < q_r < 1,
                then an identity block of size `trailing`.
    case-II   : antidiagonal blocks with a sign, 0 < q_1 < ... < q_r <= 1;
                q = 1 is allowed in the last block only.

    A validated NamedTuple: construction, `_make` and `_replace` check
    every field and store `blocks` as a tuple of `Block`s.  The size N is
    at most MAX_SIZE: `report` on unitary two-class specs took 3.6 s at
    N = 24 and 13.3 s at N = 32 (2 shared vCPUs), growing about as N^4.5,
    so some minutes at N = 64; the generator matrix alone has N^2 letters.
    """

    __slots__ = ()

    def __new__(cls, kind, blocks, trailing=0, epsilon=1):
        if kind not in KINDS:
            raise SpecError("kind", f"unknown kind {kind!r}; expected one of {KINDS}")
        try:
            entries = list(blocks)
        except TypeError:
            raise SpecError("blocks", f"blocks is not a sequence: {blocks!r}") from None
        parsed = []
        for i, b in enumerate(entries):
            if not isinstance(b, (tuple, list)) or len(b) != 2:
                raise SpecError("blocks", f"blocks[{i}] is not a (q, m) pair: {b!r}")
            try:
                parsed.append(Block(rat(b[0]), b[1]))
            except (TypeError, ValueError) as exc:
                raise SpecError("blocks", f"blocks[{i}].q: {exc}") from None
        blocks = tuple(parsed)
        signs = (-1, 1) if kind == "one-block" else (1,)
        if not is_int(epsilon) or epsilon not in signs:
            raise SpecError("epsilon", f"{kind} spec takes epsilon in {signs}")
        if not all(is_int(b.m) for b in blocks):
            raise SpecError("blocks", "block multiplicities must be integers")
        if any(b.m < 1 for b in blocks):
            raise SpecError("blocks", "block multiplicities must be >= 1")
        qs = [b.q for b in blocks]
        if any(q <= 0 for q in qs):
            raise SpecError("blocks", "block parameters must be positive")
        if any(a >= b for a, b in zip(qs, qs[1:])):
            raise SpecError("blocks", "block parameters must be strictly increasing")
        if trailing and kind != "case-I":
            raise SpecError("trailing", f"{kind} spec takes no trailing block")
        if not is_int(trailing):
            raise SpecError("trailing", "trailing size must be an integer")
        if kind == "unitary":
            if not blocks:
                raise SpecError("blocks", "unitary spec needs at least one eigenvalue block")
        elif kind == "one-block":
            if len(blocks) != 1:
                raise SpecError("blocks", "one-block spec takes exactly one block")
            if qs[0] >= 1:
                raise SpecError("blocks", "one-block parameter must satisfy 0 < q < 1")
        elif kind == "case-I":
            if any(q >= 1 for q in qs):
                raise SpecError("blocks", "case-I parameters must satisfy q < 1")
            if trailing < 0:
                raise SpecError("trailing", "trailing size must be >= 0")
            if not blocks and not trailing:
                raise SpecError("blocks", "empty case-I spec")
        elif kind == "case-II":
            if not blocks:
                raise SpecError("blocks", "case-II spec needs at least one block")
            if any(q > 1 for q in qs):
                raise SpecError("blocks", "case-II parameters must satisfy q <= 1")
        spec = super().__new__(cls, kind, blocks, trailing, epsilon)
        if spec.size > MAX_SIZE:
            raise SpecError("blocks", f"spec size N = {spec.size} exceeds the limit {MAX_SIZE}")
        return spec

    # NamedTuple's own _make, which its _replace calls, would skip the checks
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def offsets(self) -> tuple:
        """The standard layout: the start row (and column) of each block,
        then of the trailing block.

        A block of multiplicity m takes m rows in the unitary kind (one
        eigenvalue class of Q) and 2m in the others (an antidiagonal block
        of F); only case I has a nonempty trailing block.
        """
        step = 1 if self.kind == "unitary" else 2
        return tuple(accumulate((step * b.m for b in self.blocks), initial=0))

    @property
    def size(self) -> int:
        """Dimension N of the standard-form matrix."""
        return self.offsets[-1] + self.trailing

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
        return ScalarMatrix.diagonal([b.q for b in spec.blocks for _ in range(b.m)])
    n = spec.size
    rows = [[Fraction(0)] * n for _ in range(n)]
    sign = -1 if spec.kind == "case-II" else spec.epsilon
    for pos, b in zip(spec.offsets, spec.blocks):
        for i in range(b.m):
            rows[pos + i][pos + b.m + i] = b.q
            rows[pos + b.m + i][pos + i] = sign / b.q
    for i in range(spec.offsets[-1], n):
        rows[i][i] = Fraction(1)
    return ScalarMatrix(rows)


def symplectic_matrix(m: int) -> ScalarMatrix:
    """The standard symplectic matrix: ((0, I_m), (-I_m, 0))."""
    return standard_form_matrix(BlockSpec("case-II", ((Fraction(1), m),)))


def _monomial_decode(F: ScalarMatrix):
    """(pi, d) of a monomial F: row j holds its one nonzero d[j] in column
    pi[j]."""
    n = F.rows
    pi = [next(k for k in range(n) if F.entry(j, k)) for j in range(n)]
    return pi, [F.entry(j, pj) for j, pj in enumerate(pi)]


def _oriented(r: AlgElement):
    """(sort key, element) of the normal form of a nonzero relation.

    The words of r and of r* are sorted once each.  The two sequences,
    each divided by its lead coefficient, are compared term by term up to
    the first difference; the smaller orientation is kept, r on a tie (no
    scan when the two are equal, as on every diagonal identity entry).
    It is scaled once by `ratio`, so an integral coefficient is stored as an
    int; not at all when its lead coefficient is 1 and no coefficient is an
    integral Fraction.  It keeps the term order of r, or of `r.adjoint()`
    when r* is kept.
    """
    terms = r.terms()
    adjoint = [(word_adjoint(w), c) for w, c in terms]
    own = sorted((len(w), w, c) for w, c in terms)
    star = sorted((len(w), w, c) for w, c in adjoint)
    lead_own, lead_star = own[0][2], star[0][2]
    flip = False
    if own != star:
        for (n, w, c), (m, v, e) in zip(own, star):
            if w != v:
                flip = (m, v) < (n, w)
                break
            x, y = ratio(c, lead_own), ratio(e, lead_star)
            if x != y:
                flip = y < x
                break
    chosen, lead = (star, lead_star) if flip else (own, lead_own)
    if lead == 1 and not any(type(c) is not int and c.denominator == 1 for _w, c in terms):
        element = AlgElement._wrap(dict(adjoint)) if flip else r
        return tuple(((n, w), c) for n, w, c in chosen), element
    scaled = {w: ratio(c, lead) for w, c in (adjoint if flip else terms)}
    return tuple(((n, w), scaled[w]) for n, w, _ in chosen), AlgElement._wrap(scaled)


def normalize_relation(r: AlgElement):
    """The normal form of r: of r and r*, each scaled so its least word
    has coefficient 1, the one with the smaller `sort_key` (r on a tie).

    Returns None for the zero element.  Adjoint and scalar multiples of
    one relation share one normal form, which keeps its terms in r's own
    order or, when r* is chosen, in the order of `r.adjoint()`.
    """
    return None if r.is_zero() else _oriented(r)[1]


def canonicalize_relations(rels):
    """Normalized, deduplicated, sorted relation tuple; of relations with
    one normal form the last one given is stored."""
    seen = {}
    for r in rels:
        if not r.is_zero():
            key, n = _oriented(r)
            seen[key] = n
    return tuple(seen[k] for k in sorted(seen))


class Presentation:
    """A finitely presented *-algebra with CQG bookkeeping.

    generators : kept plain or self-adjoint GeneratorIds, sorted.
    relations  : canonicalized AlgElements, each asserted = 0.
    u          : the fundamental matrix (kept generators in their
                 positions, eliminated positions substituted); always set.
    q          : the diagonal Q; always set.
    f          : F for the orthogonal kind, else None.
    """

    __slots__ = ("generators", "relations", "u", "q", "f", "label")

    def __init__(self, generators, relations, u, q, f=None, label=""):
        self.generators = tuple(sorted(generators))
        self.relations = canonicalize_relations(relations)
        self.u = u
        self.q = q
        self.f = f
        self.label = label

    @property
    def sizes(self):
        return {"generators": len(self.generators), "relations": len(self.relations)}

    def __repr__(self):
        return (f"Presentation({self.label or 'anonymous'}: "
                f"{len(self.generators)} generators, {len(self.relations)} relations)")


def generator_matrix(n: int) -> AlgMatrix:
    return AlgMatrix(
        [
            [AlgElement.generator(GeneratorId(0, j, k)) for k in range(n)]
            for j in range(n)
        ]
    )


def defining_relations(u: AlgMatrix, q: ScalarMatrix, f: ScalarMatrix = None):
    """Every entry of the defining identities over u, uncanonicalized.

    First the unitarity identities: the plain pair U U* - I, U* U - I,
    then the pair of the Q-twist t = Q Ubar Q^-1 (it states unitarity of
    F Ubar F^-1 through Q = F*F), identity by identity, each row-major
    with only the entries j <= k: over any u, entry (k,j) is the scaled
    adjoint of entry (j,k) term by term, so canonicalization would fold it
    into that entry.  Then, when a monomial F is given, all N^2 reality
    entries, row-major, zero or not.  Both builders and the Hopf check
    canonicalize this list.

    The plain pair is left out when every reality entry is zero and
    q[pi(j)] = d_j^2 for every j (Q = F*F).  Each of its entries is then a
    nonzero multiple of a twisted entry (module docstring), and
    canonicalization stores the last member of each class, a twisted
    entry either way.  So the canonical set, and the stored member of each
    class with its term order, are unchanged.  Otherwise, as for the
    unitary kind or a hand-made F with d_j = -d_k at a self-paired
    position, all four identities are written.
    """
    n = u.rows
    e = [[u.entry(j, k) for k in range(n)] for j in range(n)]
    s = [[x.adjoint() for x in row] for row in e]
    d = [q.entry(j, j) for j in range(n)]
    t = [[x.scale(ratio(d[j], d[k])) for k, x in enumerate(row)] for j, row in enumerate(s)]
    reality, plain = [], True
    if f is not None:
        pi, df = _monomial_decode(f)
        reality = [e[j][k] - s[pj][pk].scale(ratio(df[j], df[k]))
                   for j, pj in enumerate(pi) for k, pk in enumerate(pi)]
        plain = (any(d[pj] != df[j] * df[j] for j, pj in enumerate(pi))
                 or not all(r.is_zero() for r in reality))
    entries = (
        lambda j, k: ((e[j][a], s[k][a]) for a in range(n)),
        lambda j, k: ((s[a][j], e[a][k]) for a in range(n)),
        lambda j, k: ((e[a][j], t[a][k]) for a in range(n)),
        lambda j, k: ((t[j][a], e[k][a]) for a in range(n)),
    )
    rels = [
        AlgElement.dot(entry(j, k), int(j == k))
        for entry in (entries if plain else entries[2:])
        for j in range(n)
        for k in range(j, n)
    ]
    return rels + reality


def build_universal_unitary(Q: ScalarMatrix) -> Presentation:
    """Presentation of the universal unitary algebra of a diagonal Q."""
    if Q.rows != Q.cols:
        raise ValueError("Q must be square")
    if not Q.is_diagonal():
        raise ValueError("Q must be diagonal")
    if any(Q.entry(j, j) <= 0 for j in range(Q.rows)):
        raise ValueError("Q must be positive")
    n = Q.rows
    u = generator_matrix(n)
    gens = [GeneratorId(0, j, k) for j in range(n) for k in range(n)]
    return Presentation(gens, defining_relations(u, Q), u, Q, label=unitary_label(Q))


def reality_substitution(F: ScalarMatrix):
    """The reality relation U = F Ubar F^-1 of a monomial F as a substitution.

    Entry (j,k) of the relation reads, in closed form,

        u(j,k) = (d_j/d_k) u(pi(j),pi(k))*,   d_j = F[j,pi(j)],

    pairing position (j,k) with (pi(j), pi(k)).  Of every pair the
    position with the smaller (column, row) is kept and the partner maps
    to that scalar times the kept letter's adjoint.  A self-paired position
    with d_j = d_k keeps a self-adjoint letter, the image of u(j,k); one
    with d_j = -d_k keeps u(j,k) and the relation u(j,k) + u(j,k)*.

    Returns (sigma, kept) where sigma sends each redundant plain generator
    to its expression over the kept ones.
    """
    if not F.is_monomial():
        raise ValueError("reality substitution needs a monomial matrix")
    pi, d = _monomial_decode(F)
    sigma = {}
    kept = []
    for j, pj in enumerate(pi):
        for k, pk in enumerate(pi):
            g = GeneratorId(0, j, k)
            if (pj, pk) == (j, k) and d[j] == d[k]:
                kept.append(GeneratorId(0, j, k, selfadjoint=True))
                sigma[g] = AlgElement.generator(kept[-1])
            elif (k, j) <= (pk, pj):
                kept.append(g)
            else:
                partner = GeneratorId(0, pj, pk, star=True)
                sigma[g] = AlgElement.word((partner,), ratio(d[j], d[k]))
    return sigma, sorted(kept)


def build_universal_orthogonal(F: ScalarMatrix) -> Presentation:
    """Presentation of the universal orthogonal algebra of F.

    Requires a monomial F, as every standard form is; non-monomial F is
    refused.  With d_j = F[j,pi(j)] the products F Fbar and Q = F*F read

        (F Fbar)[j,k] = d_j d_pi(j) delta(pi(pi(j)),k),   Q_pi(j) = d_j^2,

    so F Fbar = +-I exactly when pi is an involution and d_j d_pi(j) is the
    same sign for every j; otherwise the first failing row is named.  Every
    relation entry is written in closed form over the generator matrix u
    with the reality substitution applied; a reality entry of u left
    nonzero off the self-paired positions raises RuntimeError.

    A hand-made F with d_j = -d_k at a self-paired position (pi(j) = j,
    pi(k) = k) is built, not refused: u(j,k) stays a plain generator and
    u(j,k) = -u(j,k)* is kept only as the relation u(j,k) + u(j,k)*, as in
    `reality_substitution`.  Such a u is not Delta-compatible there, so the
    Hopf check reports coassociativity False and every relation
    inconclusive (see `hopf`).  No `BlockSpec` gives such an F.
    """
    if F.rows != F.cols:
        raise ValueError("F must be square")
    if not F.is_monomial():
        raise ValueError("non-monomial F is unsupported; reduce F to a standard form first")
    pi, d = _monomial_decode(F)
    sign = d[0] * d[pi[0]]
    for j, pj in enumerate(pi):
        value = d[j] * d[pj]
        if pi[pj] != j or value != sign or sign not in (1, -1):
            first = f" and (F Fbar)[1,1] = {rat_str(sign)}" if j else ""
            raise ValueError(
                f"F Fbar must be +I or -I; (F Fbar)[{j + 1},{pi[pj] + 1}] = "
                f"{rat_str(value)}{first}"
            )
    q = ScalarMatrix.diagonal([d[pj] * d[pj] for pj in pi])
    sigma, kept = reality_substitution(F)
    u = generator_matrix(F.rows).substitute(sigma)
    rels = defining_relations(u, q, F)
    for i, h in enumerate(rels[-F.rows ** 2:]):
        j, k = divmod(i, F.rows)
        if (pi[j], pi[k]) != (j, k) and not h.is_zero():
            raise RuntimeError(f"unresolvable reality entry at ({j},{k}): {h}")
    return Presentation(kept, rels, u, q, F, label=orthogonal_label(F))


def build_presentation(spec: BlockSpec) -> Presentation:
    """Build the presentation of a block spec's standard-form matrix,
    labelled by `unitary_label` or `orthogonal_label`."""
    m = standard_form_matrix(spec)
    if spec.kind == "unitary":
        return build_universal_unitary(m)
    return build_universal_orthogonal(m)


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
