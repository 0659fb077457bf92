"""Exact rational simplex for small equality-form linear programs.

Solves  maximize c.x  subject to  A x = b, x >= 0  over Fractions with a
two-phase dense tableau and Bland's rule (no cycling).  Alongside the
optimum it returns exact dual multipliers, one per constraint row, which
downstream code turns into positivity certificates.  An unbounded program
raises `Unbounded` carrying a recession ray d: d >= 0, A d = 0 and
c.d > 0, read off the entering column that no row bounds.
"""

from __future__ import annotations

from fractions import Fraction


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
    redundant (dependent) rows are zero.
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

    # orient rows so the right-hand side is nonnegative
    sign = []
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
            sign.append(Fraction(-1))
        else:
            sign.append(Fraction(1))

    # tableau columns: n originals then m artificials
    tab = [a[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    def pivot(row, col):
        inv = 1 / tab[row][col]
        tab[row] = [inv * v for v in tab[row]]
        for r in range(m):
            if r != row and tab[r][col]:
                f = tab[r][col]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[row])]
        basis[row] = col

    def run(obj, cols):
        # Bland's rule: least eligible column enters, least basis index leaves
        while True:
            entering = None
            for j in cols:
                if j in basis:
                    continue
                reduced = obj[j] - sum(obj[basis[r]] * tab[r][j] for r in range(m))
                if reduced > 0:
                    entering = j
                    break
            if entering is None:
                return
            leaving, best = None, None
            for r in range(m):
                if tab[r][entering] > 0:
                    ratio = tab[r][-1] / tab[r][entering]
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                        best, leaving = ratio, r
            if leaving is None:
                # raising the entering variable moves each basic one by
                # -tab[r][entering] >= 0 and keeps A x = b
                ray = [Fraction(int(j == entering)) for j in range(n)]
                for r in range(m):
                    if basis[r] < n:
                        ray[basis[r]] = -tab[r][entering]
                raise Unbounded("no leaving row for entering column", ray)
            pivot(leaving, entering)

    def _basic_duals(obj):
        # with an identity-start tableau the artificial columns hold B^-1,
        # so y = c_B B^-1 falls out of them
        out = []
        for j in range(m):
            out.append(sum(obj[basis[r]] * tab[r][n + j] for r in range(m)))
        return out

    def objective_value(obj):
        return sum(obj[basis[r]] * tab[r][-1] for r in range(m))

    # phase 1: drive the artificials out
    obj1 = [Fraction(0)] * n + [Fraction(-1)] * m
    run(obj1, range(n))
    if objective_value(obj1) != 0:
        raise Infeasible("phase-1 optimum below zero")
    dropped = set()
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j]), None)
            if col is None:
                dropped.add(r)  # dependent row; keep in tableau, it stays inert
            else:
                pivot(r, col)

    # phase 2: the real objective over the original columns
    obj2 = c + [Fraction(0)] * m
    run(obj2, range(n))
    value = objective_value(obj2)
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tab[r][-1]
    y_adj = _basic_duals(obj2)
    for r in dropped:
        y_adj[r] = Fraction(0)
    # undo the row reorientation
    dual = [sign[i] * y_adj[i] for i in range(m)]
    return LPResult(value, x, dual)
