"""Exact rational simplex for small equality-form linear programs.

Solves  maximize c.x  subject to  A x = b, x >= 0  with a two-phase dense
tableau and Bland's rule (no cycling).  Alongside the optimum it returns
exact dual multipliers, one per constraint row, which downstream code
turns into positivity certificates.  An unbounded program raises
`Unbounded` carrying a recession ray d: d >= 0, A d = 0 and c.d > 0, read
off the entering column that no row bounds.

The tableau holds Python ints, fraction-free (Bareiss 1968): the rational
tableau is T / d for an integer matrix T and one integer d > 0, the
determinant of the current basis up to sign.  A pivot on (r, k) with
p = T[r][k] sets T[i][j] = (p T[i][j] - T[i][k] T[r][j]) / d for i != r
and then d = p; every T[i][j] is, up to sign, a minor of the starting
tableau, so the division is exact.  The start clears every denominator of A and b with
one common D rather than a scale per row: a row scale would reweight the
artificials in the phase-1 objective and so change Bland's path and the
duals, while one D scales every artificial alike and every pivot, basis,
dual and ray comes out as in the rational tableau.  The objective row,
d times the reduced costs (with c cleared by its own denominator), is a
row of the tableau and takes the same update, so no pivot recomputes the
reduced costs from the basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Unbounded(Exception):
    """The objective is unbounded above on the feasible region; `ray` is a
    direction d >= 0 with A d = 0 and c.d > 0."""

    def __init__(self, message, ray):
        super().__init__(message)
        self.ray = ray


class Infeasible(Exception):
    """The constraint system has no nonnegative solution."""


class LPResult:
    __slots__ = ("value", "solution", "dual")

    def __init__(self, value, solution, dual):
        self.value = value
        self.solution = solution
        self.dual = dual


def solve_lp_max(a_rows, b, c) -> LPResult:
    """Maximize c.x subject to a_rows x = b, x >= 0, all entries exact.

    Returns the optimum, a primal solution, and dual multipliers y with
    y.b = value and (y A)_j >= c_j for every column j.  Dual entries for
    redundant (dependent) rows are zero.  Every returned number, ray
    entries included, is a Fraction.  The work is done on the integer
    tableau of the module docstring; the answers are read back as
    Fraction(entry, d) and then rescaled by D and by c's denominator.
    """
    m = len(a_rows)
    n = len(c)
    a = [[Fraction(v) for v in row] for row in a_rows]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    if any(len(row) != n for row in a):
        raise ValueError("ragged constraint matrix")
    if m == 0:
        if any(v > 0 for v in c):
            raise Unbounded("no constraints bound a positive objective",
                            [Fraction(int(v > 0)) for v in c])
        return LPResult(Fraction(0), [Fraction(0)] * n, [])

    # one common denominator D clears A and b; a row scale of -D instead of
    # D orients a row so that its right-hand side is nonnegative
    den = lcm(*(v.denominator for row in [*a, b] for v in row))
    scale = [den if v >= 0 else -den for v in b]
    # tableau columns: n originals, m artificials, right-hand side
    tab = [[scale[i] * v.numerator // v.denominator for v in a[i]]
           + [int(i == j) for j in range(m)] + [scale[i] * b[i].numerator // b[i].denominator]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    d = 1

    def pivot(row, col, obj):
        # Bareiss step on every other row, the objective row included; a
        # negative pivot (only when driving out an artificial) first
        # negates its row, which negates the whole new tableau and keeps d > 0
        nonlocal d
        prow = tab[row]
        if prow[col] < 0:
            prow[:] = [-x for x in prow]
        p = prow[col]
        for t in tab + [obj]:
            if t is not prow:
                f = t[col]
                t[:] = [(p * x - f * y) // d for x, y in zip(t, prow)]
        d = p
        basis[row] = col

    def objective_row(weights):
        # d times the reduced costs of the current basis
        out = [d * w for w in weights] + [0]
        for r in range(m):
            out = [x - weights[basis[r]] * y for x, y in zip(out, tab[r])]
        return out

    def run(obj):
        # Bland's rule: least original column with positive reduced cost
        # enters; the least ratio leaves, ties to the least basis index
        while True:
            entering = next((j for j in range(n) if obj[j] > 0), None)
            if entering is None:
                return
            rows = [r for r in range(m) if tab[r][entering] > 0]
            if not rows:
                # raising the entering variable moves each basic one by
                # -tab[r][entering] / d >= 0 and keeps A x = b
                ray = [Fraction(int(j == entering)) for j in range(n)]
                for r in range(m):
                    if basis[r] < n:
                        ray[basis[r]] = Fraction(-tab[r][entering], d)
                raise Unbounded("no leaving row for entering column", ray)
            leaving = rows[0]
            for r in rows[1:]:  # ratios compared by cross-multiplication
                lhs = tab[r][-1] * tab[leaving][entering]
                rhs = tab[leaving][-1] * tab[r][entering]
                if lhs < rhs or lhs == rhs and basis[r] < basis[leaving]:
                    leaving = r
            pivot(leaving, entering, obj)

    # phase 1: drive the artificials out
    obj1 = objective_row([0] * n + [-1] * m)
    run(obj1)
    if obj1[-1] != 0:
        raise Infeasible("phase-1 optimum below zero")
    dropped = set()
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j]), None)
            if col is None:
                dropped.add(r)  # dependent row; keep in tableau, it stays inert
            else:
                pivot(r, col, obj1)

    # phase 2: the real objective, cleared by its own denominator
    den_c = lcm(*(v.denominator for v in c))
    obj2 = objective_row([v.numerator * den_c // v.denominator for v in c] + [0] * m)
    run(obj2)
    value = Fraction(-obj2[-1], d * den_c)
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tab[r][-1], d)
    # with an identity-start tableau the artificial columns hold d B^-1, so
    # the objective row there is -d c_B B^-1: the dual of the scaled rows
    dual = [Fraction(0) if i in dropped else Fraction(-scale[i] * obj2[n + i], d * den_c)
            for i in range(m)]
    return LPResult(value, x, dual)
