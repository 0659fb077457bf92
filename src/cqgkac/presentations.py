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

The reality entries make half the generators redundant: the fundamental
matrix holds, at each redundant position, its partner's scaled adjoint,
and every entry is written over that matrix.  A self-paired position
(pi(j) = j, pi(k) = k; the trailing block of case I) holds a self-adjoint
letter: its reality entry is zero, and there the twisted pair repeats the
plain pair.

A builder's u holds one letter, scaled, at each position, so every entry
it writes has words of length 2 and, on the diagonal, the constant.  The
builders store their entries by rule, with no `_oriented` comparison
(`_ruled`): terms sort by word; an entry is kept as written except on the
orthogonal kinds, for j < k, at UtQUbarQ^-1-I[j,k] where pi(j) > k and
pi(k) < j, and at QUbarQ^-1Ut-I[j,k] there and where pi swaps j and k,
which keep its adjoint; the kept one is scaled by its lead, the constant
-1 on the diagonal.  The stored tuple, its term order and the record are
those of `canonicalize_relations` over the same entries (a test checks
every spec with N <= 4 and the benchmark's kac-large specs).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, groupby
from operator import itemgetter
from typing import NamedTuple

from .algebra import (
    AlgElement,
    GeneratorId,
    ScalarMatrix,
    ShapeError,
    _parts,
    _quotient,
    is_int,
    mul,
    rat,
    rat_str,
    ratio,
    word_adjoint,
)

KINDS = ("unitary", "one-block", "case-I", "case-II")
MAX_SIZE = 64  # largest dimension N a BlockSpec accepts
IDENTITIES = ("UU*-I", "U*U-I", "UtQUbarQ^-1-I", "QUbarQ^-1Ut-I", "U-FUbarF^-1")


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
    every field and store `blocks` as a tuple of `Block`s.  It owns every
    value rule: a q that `rat` refuses is named `blocks[i].q`, with `rat`'s
    message, an m not an int `blocks[i].m`.  The size N is at most
    MAX_SIZE: one in-process `report` on the unitary two-class spec
    (q = 1/2 and 1, N/2 each) took 1.6-2.3 s at N = 24 and 4.4-5.0 s at
    N = 32 over three runs, the Hopf check about 80 % of it (2 shared
    vCPUs, Intel Xeon, Python 3.11); the time at N = 64 is left to
    ROADMAP item 9.  The generator
    matrix alone has N^2 letters.
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
                raise SpecError(f"blocks[{i}].q", str(exc)) from None
            if not is_int(b[1]):
                raise SpecError(f"blocks[{i}].m", "expected an integer")
        blocks = tuple(parsed)
        signs = (-1, 1) if kind == "one-block" else (1,)
        if not is_int(epsilon) or epsilon not in signs:
            raise SpecError("epsilon", f"{kind} spec takes epsilon in {signs}")
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
    rows = [[0] * n for _ in range(n)]
    sign = -1 if spec.kind == "case-II" else spec.epsilon
    for pos, b in zip(spec.offsets, spec.blocks):
        q, p = b.q, ratio(sign, b.q)
        for i in range(pos, pos + b.m):
            rows[i][i + b.m] = q
            rows[i + b.m][i] = p
    for i in range(spec.offsets[-1], n):
        rows[i][i] = 1
    return ScalarMatrix(rows)


def symplectic_matrix(m: int) -> ScalarMatrix:
    """The standard symplectic matrix: ((0, I_m), (-I_m, 0))."""
    return ScalarMatrix([[(k == j + m) - (j == k + m) for k in range(2 * m)]
                         for j in range(2 * m)])


def is_symplectic(F) -> bool:
    """Whether F, a ScalarMatrix or None, is a standard symplectic matrix."""
    return F is not None and not F.rows % 2 and F == symplectic_matrix(F.rows // 2)


def _monomial_decode(F: ScalarMatrix):
    """(pi, d) of a monomial F: row j holds its one nonzero d[j] in column
    pi[j].  Every reader of F decodes it here, so this is the one check of
    F's form: any other matrix raises ValueError."""
    if F.rows != F.cols:
        raise ValueError("F must be square")
    n = F.rows
    rows = [[k for k in range(n) if F.entry(j, k)] for j in range(n)]
    pi = tuple(row[0] for row in rows if len(row) == 1)
    if len(set(pi)) != n:
        raise ValueError("non-monomial F is unsupported; reduce F to a standard form first")
    return pi, tuple(F.entry(j, pj) for j, pj in enumerate(pi))


def _oriented(r: AlgElement):
    """(sort key, element) of the normal form of a nonzero relation: of r
    and r*, each scaled by `_scaled`, the one with the smaller key, r on a
    tie.  It keeps the term order of r, or of `r.adjoint()`."""
    return min(_scaled(r), _scaled(r.adjoint()), key=itemgetter(0))


def _scaled(x: AlgElement):
    """(sort key, element) of x scaled once, by `mul` with the inverse of
    its lead coefficient (that of its least word), in x's term order, so
    every coefficient is stored (an integral one as an int); x itself when
    its lead is 1 and no coefficient is an integral Fraction.  The key is
    its terms in word order, as ((length, word), coefficient)."""
    chosen = sorted((len(w), w, c) for w, c in x.terms())
    lead = chosen[0][2]
    if lead == 1 and not any(type(c) is not int and c.denominator == 1 for _w, c in x.terms()):
        return tuple(((n, w), c) for n, w, c in chosen), x
    inverse = ratio(1, lead)
    scaled = {w: mul(c, inverse) for w, c in x.terms()}
    return tuple(((n, w), scaled[w]) for n, w, _ in chosen), AlgElement._wrap(scaled)


def _ruled(r: AlgElement, flip, products):
    """(sort key, element) of the normal form of a builder's nonzero entry
    r: r* where the builders' rule says `flip`, else r, scaled as by
    `_scaled`.  Its words have length 2 or 0, so its terms sort by word
    and its key is that sequence.  Each scaled coefficient n/d is read
    from `products`, keyed by (n, d) unreduced, or made once."""
    x = r.adjoint() if flip else r
    terms = sorted(x.terms())
    if terms[0][1] != 1:
        m, e = _parts(ratio(1, terms[0][1]))
        scaled = {}
        for w, c in x.terms():
            n, d = (c * m, e) if type(c) is int else (c.numerator * m, c.denominator * e)
            scaled[w] = products.get((n, d)) or products.setdefault((n, d), _quotient(n, d))
        x = AlgElement._wrap(scaled)
        terms = [(w, scaled[w]) for w, _c in terms]
    return tuple(terms), x


def canonicalize_relations(rels):
    """Normalized, deduplicated, sorted relation tuple; of relations with
    one normal form the last one given is stored, zeros are dropped.

    The normal form of r is, of r and r*, each scaled so its least word
    has coefficient 1, the one with the smaller `sort_key` (r on a tie).
    Adjoint and scalar multiples of one relation share one normal form,
    which keeps its terms in r's own order or, when r* is chosen, in the
    order of `r.adjoint()`.  The normal forms are sorted by (key, -index)
    and the first of each run of equal keys is kept: the last one given.
    """
    return _canonical(rels)[0]


def _canonical(rels, flips=None):
    """(`canonicalize_relations(rels)`, the index in rels of each stored
    one); with `flips`, the builders' rule, r* is kept where it says so,
    with no `_oriented` comparison."""
    products = {}
    normal = sorted((key, -i, n) for i, r in enumerate(rels) if not r.is_zero()
                    for key, n in ((_oriented(r) if flips is None
                                    else _ruled(r, flips[i], products)),))
    kept = [next(run) for _key, run in groupby(normal, itemgetter(0))]
    return tuple(n for _key, _i, n in kept), tuple(-i for _key, i, _n in kept)


class Presentation:
    """A finitely presented *-algebra with CQG bookkeeping.

    generators : kept plain or self-adjoint GeneratorIds, sorted.
    relations  : canonicalized AlgElements, each asserted = 0.
    u          : the fundamental matrix, a tuple of N rows of N AlgElements
                 read as u[j][k] (kept generators in their positions,
                 eliminated positions substituted); always set.
    q          : the diagonal Q, an N x N ScalarMatrix; always set.
    f          : F, N x N, for the orthogonal kind, else None.
    monomial   : (pi, d) of F, decoded once: d[j] = F[j,pi[j]] is the one
                 nonzero of row j; None for the unitary kind.
    defining   : whether P is in builder form: its relations are exactly
                 the canonicalized `defining_relations(u, q, f)`.
    record     : in builder form, (the `IDENTITIES` written; per relation,
                 the (identity, j, k) of its kept entry), else None; built
                 once, when first read.

    Given `relations` None, P is in builder form by construction, as the
    builders and `quotient.quotient_by_zero` make it: (generators, u, Q,
    F), with its relations and record written when first read.  Given a
    relation list, P stores it canonicalized, and `defining` is computed on
    first read and kept.

    The constructor owns the whole rule, and no reader checks it again.
    ShapeError unless u is N x N with N >= 1 and Q and F (when given) are
    N x N.  ValueError, naming the offender, unless
      * Q is diagonal and positive, and F is monomial;
      * each generator is unstarred, alone at its position and inside the
        N x N layout;
      * every letter of u and of the given relations is a generator or the
        adjoint of one (the least other letter is named with the first
        u[j,k], else rel[i], holding it); builder-form relations hold only
        letters of u.
    Fields are read-only: assignment raises AttributeError, so `defining`
    cannot go stale.
    """

    __slots__ = ("generators", "u", "q", "f", "monomial", "label", "_ruled", "_relations",
                 "_record", "_labels")

    def __init__(self, generators, relations, u, q, f=None, label=""):
        u = tuple(map(tuple, u))
        n = len(u)
        if not n or any(len(row) != n for row in u):
            raise ShapeError(f"u is not N x N: row lengths {[len(row) for row in u]}")
        for name, m in ({"Q": q} if f is None else {"Q": q, "F": f}).items():
            if (getattr(m, "rows", None), getattr(m, "cols", None)) != (n, n):
                raise ShapeError(f"{name} must be {n} x {n}, the size of u")
        _require_positive_diagonal(q)
        monomial = None if f is None else _monomial_decode(f)
        generators, positions = tuple(sorted(generators)), set()
        for g in generators:
            if g.star:
                raise ValueError(f"generator {g.label()} is starred")
            if (g.row, g.col) in positions:
                raise ValueError(f"two generators at the position of {g.label()}")
            if not (0 <= g.row < n and 0 <= g.col < n):
                raise ValueError(f"generator {g.label()} lies outside the {n}x{n} layout")
            positions.add((g.row, g.col))
        put = object.__setattr__
        places = tuple(chain.from_iterable(u))
        if relations is not None:
            put(self, "_relations", _canonical(relations)[0])
            places += self._relations
        words = chain.from_iterable(x.words() for x in places)
        stray = set(chain.from_iterable(words)).difference(generators, word_adjoint(generators))
        if stray:
            g = min(stray)
            i = next(i for i, x in enumerate(places) if g in x.letters())
            where = f"u[{i // n + 1},{i % n + 1}]" if i < n * n else f"rel[{i - n * n}]"
            raise ValueError(f"{where} holds the letter {g.label()}, which is neither "
                             "a generator nor the adjoint of one")
        put(self, "generators", generators)
        put(self, "u", u)
        put(self, "q", q)
        put(self, "f", f)
        put(self, "monomial", monomial)
        put(self, "label", label)
        put(self, "_ruled", None if relations is not None else False)

    def __setattr__(self, name, value):
        raise AttributeError(f"Presentation.{name} is read-only")

    def _write(self):
        """Write a builder form's relations and record; returns the record.
        A builder's u is oriented by the rule (module docstring), any
        other u by `_oriented`."""
        identities = None
        if self._ruled:
            identities = IDENTITIES[:4] if self.monomial is None else IDENTITIES[2:]
        identities, entries = _defining_entries(self.u, self.q, self.monomial, identities)
        flips = _flips(len(self.u), identities, self.monomial) if self._ruled else None
        relations, kept = _canonical(entries, flips)
        object.__setattr__(self, "_relations", relations)
        object.__setattr__(self, "_record", (identities, kept))
        return self._record

    @property
    def relations(self):
        if not hasattr(self, "_relations"):
            self._write()
        return self._relations

    @property
    def defining(self) -> bool:
        if self._ruled is not None:
            return True
        if not hasattr(self, "_record"):
            identities, rels = _defining_entries(self.u, self.q, self.monomial)
            relations, kept = _canonical(rels)
            record = (identities, kept) if relations == self._relations else None
            object.__setattr__(self, "_record", record)
        return self._record is not None

    @property
    def record(self):
        if not hasattr(self, "_labels"):
            labels = None
            if self.defining:
                identities, kept = getattr(self, "_record", None) or self._write()
                every = _entry_labels(len(self.u), identities)
                labels = identities, tuple(every[i] for i in kept)
            object.__setattr__(self, "_labels", labels)
        return self._labels

    @property
    def sizes(self):
        return {"generators": len(self.generators), "relations": len(self.relations)}

    def __repr__(self):
        return (f"Presentation({self.label or 'anonymous'}: "
                f"{len(self.generators)} generators, {len(self.relations)} relations)")


def _require_positive_diagonal(Q: ScalarMatrix) -> None:
    """ValueError naming the rule unless Q is square, diagonal and positive,
    as every reader of Q assumes; a nonpositive entry is named."""
    if Q.rows != Q.cols:
        raise ValueError("Q must be square")
    if not Q.is_diagonal():
        raise ValueError("Q must be diagonal")
    for j in range(Q.rows):
        if Q.entry(j, j) <= 0:
            raise ValueError(f"Q must be positive: Q[{j + 1},{j + 1}] = {rat_str(Q.entry(j, j))}")


def _builder_made(generators, u, q, f=None, label="") -> Presentation:
    """A builder's presentation, in builder form over a builder's u, so its
    entries are oriented by the rule when written."""
    p = Presentation(generators, None, u, q, f, label)
    object.__setattr__(p, "_ruled", True)
    return p


def generator_matrix(n: int) -> tuple:
    """The n x n matrix of the letters u(j,k), as a tuple of rows."""
    return tuple(tuple(AlgElement._wrap({(GeneratorId(j, k),): 1}) for k in range(n))
                 for j in range(n))


def defining_relations(u, q: ScalarMatrix, f: ScalarMatrix = None):
    """Every entry of the defining identities over u, uncanonicalized; u
    is given as its N rows of N elements, read as u[j][k].

    First the unitarity identities: the plain pair U U* - I, U* U - I,
    then the pair of the Q-twist t = Q Ubar Q^-1 (it states unitarity of
    F Ubar F^-1 through Q = F*F), identity by identity, each row-major
    with only the entries j <= k: over any u, entry (k,j) is the scaled
    adjoint of entry (j,k) term by term, so canonicalization would fold it
    into that entry.  Then, when a monomial F is given, all N^2 reality
    entries, row-major, zero or not.  Both builders canonicalize this
    list, and `Presentation.defining` compares with it.

    The plain pair is left out when every reality entry is zero and
    q[pi(j)] = d_j^2 for every j (Q = F*F).  Each of its entries is then a
    nonzero multiple of a twisted entry (module docstring), and
    canonicalization stores the last member of each class, a twisted
    entry either way.  So the canonical set, and the stored member of each
    class with its term order, are unchanged.  Otherwise, as for the
    unitary kind, all four identities are written.
    """
    return _defining_entries(u, q, None if f is None else _monomial_decode(f))[1]


def _entry_labels(n, identities):
    """The (identity, j, k) of each entry `defining_relations` writes, in order."""
    return [(name, j, k) for name in identities
            for j in range(n) for k in range(0 if name == IDENTITIES[4] else j, n)]


def _flips(n, identities, monomial):
    """Per entry `_defining_entries` writes over a builder's u, whether its
    normal form keeps the adjoint (module docstring)."""
    pi = range(n) if monomial is None else monomial[0]
    return [pi[j] > k and pi[k] < j or name == IDENTITIES[3] and j < k == pi[j]
            for name, j, k in _entry_labels(n, identities)]


def _defining_entries(u, q, monomial, identities=None):
    """(the identities written, `defining_relations(u, q, f)`), each entry
    from its label; `monomial` is (pi, d) of F, or None.  Given the
    `identities` a builder writes, its reality entries are 0 (checked when
    it was built) and are not computed."""
    n = len(u)
    s = [[x.adjoint() for x in row] for row in u]
    d = [q.entry(j, j) for j in range(n)]
    t = [[x.scale(ratio(d[j], d[k])) for k, x in enumerate(row)] for j, row in enumerate(s)]
    reality = None
    if identities is None:
        identities = IDENTITIES[:4]
        if monomial is not None:
            pi, df = monomial
            reality = [[u[j][k] - _image(u, monomial, j, k) for k in range(n)] for j in range(n)]
            plain = (any(d[pj] != df[j] * df[j] for j, pj in enumerate(pi))
                     or not all(r.is_zero() for row in reality for r in row))
            identities = (identities if plain else identities[2:]) + IDENTITIES[4:]
    zero = AlgElement.zero()
    entry = dict(zip(IDENTITIES, (
        lambda j, k: AlgElement.dot(((u[j][a], s[k][a]) for a in range(n)), int(j == k)),
        lambda j, k: AlgElement.dot(((s[a][j], u[a][k]) for a in range(n)), int(j == k)),
        lambda j, k: AlgElement.dot(((u[a][j], t[a][k]) for a in range(n)), int(j == k)),
        lambda j, k: AlgElement.dot(((t[j][a], u[k][a]) for a in range(n)), int(j == k)),
        lambda j, k: reality[j][k] if reality else zero,
    )))
    return identities, [entry[name](j, k) for name, j, k in _entry_labels(n, identities)]


def _image(u, monomial, j, k):
    """(d_j/d_k) u(pi(j),pi(k))*, what the reality relation makes u(j,k)."""
    pi, d = monomial
    return u[pi[j]][pi[k]].adjoint().scale(ratio(d[j], d[k]))


def _unreal(u, monomial, positions=None):
    """The first (j, k) of `positions` (default: all, row-major) whose
    reality entry is nonzero over u, or None."""
    pi, span = monomial[0], range(len(u))
    return next(((j, k) for j, k in positions or ((j, k) for j in span for k in span)
                 if not (u[j][k].is_zero() and u[pi[j]][pi[k]].is_zero())
                 and u[j][k] != _image(u, monomial, j, k)), None)


def build_universal_unitary(Q: ScalarMatrix) -> Presentation:
    """Presentation of the universal unitary algebra of a positive
    diagonal Q."""
    _require_positive_diagonal(Q)
    n = Q.rows
    u = generator_matrix(n)
    gens = [GeneratorId(j, k) for j in range(n) for k in range(n)]
    return _builder_made(gens, u, Q, None, unitary_label(Q))


def reality_substitution(F: ScalarMatrix):
    """The reality relation U = F Ubar F^-1 of a monomial F as a substitution.

    Entry (j,k) of the relation reads, in closed form,

        u(j,k) = (d_j/d_k) u(pi(j),pi(k))*,   d_j = F[j,pi(j)],

    pairing position (j,k) with (pi(j), pi(k)).  Of every pair the
    position with the smaller (column, row) is kept and the partner maps
    to that scalar times the kept letter's adjoint.  A self-paired position
    keeps a self-adjoint letter, the image of u(j,k).  One with d_j = -d_k
    would read u(j,k) = -u(j,k)*, which needs an imaginary scalar: such an
    F is refused, and the first such position is named.

    Returns (sigma, kept) where sigma sends each redundant plain generator
    to its expression over the kept ones.
    """
    pi, d = _monomial_decode(F)
    sigma = {}
    kept = []
    for j, pj in enumerate(pi):
        for k, pk in enumerate(pi):
            g = GeneratorId(j, k)
            if (pj, pk) == (j, k):
                if d[j] != d[k]:
                    raise ValueError(
                        f"F with d_{j + 1} = -d_{k + 1} at the self-paired position "
                        f"({j + 1},{k + 1}) is unsupported: u({j + 1},{k + 1}) = "
                        f"-u({j + 1},{k + 1})* needs an imaginary scalar"
                    )
                kept.append(GeneratorId(j, k, selfadjoint=True))
                sigma[g] = AlgElement._wrap({(kept[-1],): 1})
            elif (k, j) <= (pk, pj):
                kept.append(g)
            else:
                partner = GeneratorId(pj, pk, star=True)
                sigma[g] = AlgElement._wrap({(partner,): ratio(d[j], d[k])})
    return sigma, sorted(kept)


def build_universal_orthogonal(F: ScalarMatrix) -> Presentation:
    """Presentation of the universal orthogonal algebra of F.

    Requires a monomial F, as every standard form is; non-monomial F is
    refused.  With d_j = F[j,pi(j)] the products F Fbar and Q = F*F read

        (F Fbar)[j,k] = d_j d_pi(j) delta(pi(pi(j)),k),   Q_pi(j) = d_j^2,

    so F Fbar = +-I exactly when pi is an involution and d_j d_pi(j) is the
    same sign for every j; otherwise the first failing row is named.  An F
    that `reality_substitution` refuses is refused too.  The fundamental
    matrix u holds the image of u(j,k) under the reality substitution at
    each position, and every relation entry is written in closed form over
    it; a reality entry of u left nonzero raises RuntimeError.
    """
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
    n = F.rows
    u = tuple(tuple(sigma.get(g) or AlgElement._wrap({(g,): 1}) for g in row)
              for row in ([GeneratorId(j, k) for k in range(n)] for j in range(n)))
    # the entries at the positions of kept letters are the adjoints, scaled,
    # of those at their partners', as d_j d_pi(j) is one sign
    broken = _unreal(u, (pi, d), [(g.row, g.col) for g in sigma])
    if broken:
        raise RuntimeError(f"unresolvable reality entry at {broken}")
    return _builder_made(kept, u, q, F, orthogonal_label(F))


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
    if is_symplectic(F):
        return f"Pol(O_J{F.rows // 2}^+)"
    return f"Pol(O_F^+)[N={F.rows}]"
