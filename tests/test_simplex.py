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
