import itertools
import random
from fractions import Fraction as F

import pytest

from cqgkac.simplex import Infeasible, Unbounded, solve_lp_max


def _check_result(a, b, c, res):
    # primal feasibility
    for row, rhs in zip(a, b):
        assert sum(x * v for x, v in zip(row, res.solution)) == rhs
    assert all(x >= 0 for x in res.solution)
    assert sum(ci * xi for ci, xi in zip(c, res.solution)) == res.value
    # dual certificate: y.b = value and y.A >= c columnwise
    assert sum(y * rhs for y, rhs in zip(res.dual, b)) == res.value
    for j in range(len(c)):
        assert sum(res.dual[i] * a[i][j] for i in range(len(a))) >= c[j]


def test_simple_partition():
    a = [[F(1), F(1)]]
    b = [F(1)]
    c = [F(2), F(1)]
    res = solve_lp_max(a, b, c)
    assert res.value == 2
    assert res.solution == [F(1), F(0)]
    _check_result(a, b, c, res)


def test_zero_optimum_gives_zero_dual_value():
    # x + y = 1, maximize z with z bound by z = 0 row
    a = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    b = [F(1), F(0)]
    c = [F(0), F(0), F(1)]
    res = solve_lp_max(a, b, c)
    assert res.value == 0
    _check_result(a, b, c, res)


def test_redundant_rows_are_tolerated():
    a = [[F(1), F(1)], [F(2), F(2)]]
    b = [F(1), F(2)]
    c = [F(1), F(0)]
    res = solve_lp_max(a, b, c)
    assert res.value == 1
    _check_result(a, b, c, res)


def test_negative_rhs_rows_are_reoriented():
    a = [[F(-1), F(-1)]]
    b = [F(-1)]
    c = [F(1), F(0)]
    res = solve_lp_max(a, b, c)
    assert res.value == 1
    _check_result(a, b, c, res)


def test_infeasible():
    with pytest.raises(Infeasible):
        solve_lp_max([[F(1)]], [F(-1)], [F(0)])


def test_unbounded():
    with pytest.raises(Unbounded):
        solve_lp_max([[F(0), F(1)]], [F(1)], [F(1), F(0)])


def test_random_instances_have_valid_duals():
    rng = random.Random(13)
    solved = 0
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        # build around a known nonnegative point so the program is feasible
        point = [F(rng.randint(0, 3)) for _ in range(n)]
        a = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [sum(row[j] * point[j] for j in range(n)) for row in a]
        c = [F(rng.randint(-2, 2)) for _ in range(n)]
        try:
            res = solve_lp_max(a, b, c)
        except Unbounded:
            continue
        _check_result(a, b, c, res)
        assert res.value >= sum(ci * xi for ci, xi in zip(c, point))
        solved += 1
    assert solved > 50


def _assert_recession_ray(a, c, ray):
    assert len(ray) == len(c)
    assert all(d >= 0 for d in ray)
    for row in a:
        assert sum(v * d for v, d in zip(row, ray)) == 0
    assert sum(ci * d for ci, d in zip(c, ray)) > 0


@pytest.mark.parametrize("a, b, c", [
    ([], [], [F(0), F(2)]),  # no rows at all
    ([[F(0), F(1)]], [F(1)], [F(1), F(0)]),  # a free column
    ([[F(1), F(-1)]], [F(1)], [F(1), F(0)]),  # the basic x1 grows with x2
    ([[F(1), F(-1), F(0)], [F(0), F(1), F(-1)]], [F(-1), F(2)], [F(0), F(0), F(1)]),
])
def test_unbounded_carries_a_recession_ray(a, b, c):
    with pytest.raises(Unbounded) as err:
        solve_lp_max(a, b, c)
    _assert_recession_ray(a, c, err.value.ray)


def test_random_unbounded_instances_carry_recession_rays():
    rng = random.Random(14)
    unbounded = 0
    for _ in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(2, 5)
        point = [F(rng.randint(0, 3)) for _ in range(n)]
        a = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [sum(row[j] * point[j] for j in range(n)) for row in a]
        c = [F(rng.randint(-1, 2)) for _ in range(n)]
        try:
            solve_lp_max(a, b, c)
        except Unbounded as err:
            _assert_recession_ray(a, c, err.ray)
            unbounded += 1
    assert unbounded > 50


def _wide_instance(rng):
    """A feasible program with rational rows of mixed denominators, rows
    negated (negative right-hand sides), duplicated or all zero, and a
    sparse point so that some right-hand sides are zero."""
    m = rng.randint(1, 6)
    n = rng.randint(1, 7)
    point = [F(rng.randint(0, 3), rng.randint(1, 3)) if rng.random() < 0.5 else F(0)
             for _ in range(n)]
    a = []
    for _ in range(m):
        den = rng.choice((1, 2, 3, 5, 7))
        shape = rng.random()
        if a and shape < 0.15:
            a.append(list(rng.choice(a)))
        elif shape < 0.25:
            a.append([F(0)] * n)
        else:
            a.append([F(rng.randint(-4, 4), den) for _ in range(n)])
    b = [sum(row[j] * point[j] for j in range(n)) for row in a]
    c = [F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
    return a, b, c, point


def test_wide_random_instances_certify_or_carry_rays():
    rng = random.Random(15)
    seen = {"solved": 0, "unbounded": 0, "negative_rhs": 0, "zero_rhs": 0}
    for _ in range(400):
        a, b, c, point = _wide_instance(rng)
        seen["negative_rhs"] += any(v < 0 for v in b)
        seen["zero_rhs"] += any(v == 0 for v in b)
        try:
            res = solve_lp_max(a, b, c)
        except Unbounded as err:
            _assert_recession_ray(a, c, err.ray)
            seen["unbounded"] += 1
            continue
        _check_result(a, b, c, res)
        assert res.value >= sum(ci * xi for ci, xi in zip(c, point))
        seen["solved"] += 1
    assert min(seen.values()) > 50, seen


def test_a_row_duplicating_an_earlier_row_has_dual_zero():
    rng = random.Random(16)
    checked = 0
    for _ in range(200):
        a, b, c, _ = _wide_instance(rng)
        for i in range(1, len(a)):
            if any(a[i] == a[j] for j in range(i)):
                continue
            if any(a[i]) and rng.random() < 0.5:
                a.append(list(a[i]))
                b.append(b[i])
        duplicates = [i for i in range(len(a)) if any(a[i] == a[j] for j in range(i))]
        try:
            res = solve_lp_max(a, b, c)
        except Unbounded:
            continue
        _check_result(a, b, c, res)
        for i in duplicates:
            assert res.dual[i] == 0
        checked += bool(duplicates)
    assert checked > 30


def _solve_columns(cols, rhs):
    """The unique x with sum_j x_j cols[j] = rhs, or None when the columns
    are dependent or the system is inconsistent (plain Gauss-Jordan)."""
    m, k = len(rhs), len(cols)
    rows = [[cols[j][i] for j in range(k)] + [rhs[i]] for i in range(m)]
    lead = 0
    for j in range(k):
        r = next((r for r in range(lead, m) if rows[r][j]), None)
        if r is None:
            return None
        rows[lead], rows[r] = rows[r], rows[lead]
        rows[lead] = [v / rows[lead][j] for v in rows[lead]]
        for i in range(m):
            if i != lead and rows[i][j]:
                f = rows[i][j]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[lead])]
        lead += 1
    if any(rows[i][-1] for i in range(lead, m)):
        return None
    return [rows[i][-1] for i in range(k)]


def _vertices(a, b, n):
    """Every basic feasible solution of a x = b, x >= 0, by brute force over
    column subsets."""
    out = []
    for size in range(n + 1):
        for support in itertools.combinations(range(n), size):
            xs = _solve_columns([[row[j] for row in a] for j in support], b)
            if xs is not None and all(v >= 0 for v in xs):
                x = [F(0)] * n
                for j, v in zip(support, xs):
                    x[j] = v
                out.append(x)
    return out


def _oracle(a, b, c):
    """('infeasible',), ('unbounded',) or ('optimal', value), from vertices
    alone: a nonempty {x >= 0, a x = b} has a vertex, and max c.x is
    unbounded iff some extreme ray (a vertex of {d >= 0, a d = 0,
    sum d = 1}) has c.d > 0."""
    n = len(c)
    points = _vertices(a, b, n)
    if not points:
        return ("infeasible",)
    rays = _vertices([*a, [F(1)] * n], [F(0)] * len(a) + [F(1)], n)
    if any(sum(ci * di for ci, di in zip(c, d)) > 0 for d in rays):
        return ("unbounded",)
    return ("optimal", max(sum(ci * xi for ci, xi in zip(c, x)) for x in points))


def test_solver_agrees_with_a_brute_force_vertex_oracle():
    rng = random.Random(17)
    outcomes = {"infeasible": 0, "unbounded": 0, "optimal": 0}
    for _ in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        a = [[F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(-3, 3)) for _ in range(m)]
        c = [F(rng.randint(-2, 2)) for _ in range(n)]
        expected = _oracle(a, b, c)
        outcomes[expected[0]] += 1
        if expected[0] == "infeasible":
            with pytest.raises(Infeasible):
                solve_lp_max(a, b, c)
        elif expected[0] == "unbounded":
            with pytest.raises(Unbounded):
                solve_lp_max(a, b, c)
        else:
            assert solve_lp_max(a, b, c).value == expected[1]
    assert min(outcomes.values()) > 30, outcomes


def test_every_returned_number_is_a_fraction():
    # int inputs included: rat_str and the certificates need Fractions
    res = solve_lp_max([[1, 1, 0], [0, 1, 1]], [2, 1], [1, 2, 0])
    assert all(type(v) is F for v in [res.value, *res.solution, *res.dual])
    res = solve_lp_max([], [], [0, -1])
    assert all(type(v) is F for v in [res.value, *res.solution])
    for a, b, c in ([[1, -1]], [1], [1, 0]), ([], [], [0, 2]):
        with pytest.raises(Unbounded) as err:
            solve_lp_max(a, b, c)
        assert all(type(v) is F for v in err.value.ray)
    rng = random.Random(18)
    for _ in range(100):
        a, b, c, _ = _wide_instance(rng)
        try:
            res = solve_lp_max(a, b, c)
        except Unbounded as err:
            assert all(type(v) is F for v in err.ray)
            continue
        assert all(type(v) is F for v in [res.value, *res.solution, *res.dual])


def test_scaling_the_constraints_keeps_the_optimum_and_divides_the_dual():
    rng = random.Random(19)
    compared = 0
    for _ in range(150):
        a, b, c, _ = _wide_instance(rng)
        k = F(rng.randint(1, 9), rng.randint(1, 9))
        try:
            res = solve_lp_max(a, b, c)
        except Unbounded:
            continue
        scaled = solve_lp_max([[k * v for v in row] for row in a], [k * v for v in b], c)
        assert scaled.value == res.value
        assert scaled.solution == res.solution
        assert scaled.dual == [y / k for y in res.dual]
        compared += 1
    assert compared > 50


@pytest.mark.parametrize("k", [F(1), F(2), F(1, 2), F(3, 7)])
def test_common_denominator_pins_the_dual_of_a_degenerate_program(k):
    # -x/2 = 0 and x = 0 admit the duals (0, -1) and (2, 0).  One common
    # denominator weights both artificials alike, so phase 1 enters x and
    # the second row keeps it: (0, -1), scaled by 1/k.  A scale per row
    # would weigh -1 against 1 and keep the first row instead.
    a = [[k * F(-1, 2), F(0)], [k * F(1), F(0)]]
    res = solve_lp_max(a, [F(0), F(0)], [F(-1), F(0)])
    assert res.value == 0
    assert res.dual == [F(0), -1 / k]
