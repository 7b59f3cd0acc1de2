"""Exact simplex unit tests, cross-checked against scipy on random LPs, and
`positive_max` checked against the simplex it calls."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from fisolve import lp


def test_known_maximum():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6
    res = lp.solve(2, [3, 2], [([1, 1], lp.LE, 4), ([1, 3], lp.LE, 6)])
    assert res.status == "optimal"
    assert res.value == 12
    assert res.x == [Fraction(4), Fraction(0)]


def test_equality_and_ge_mix():
    # max x + y s.t. x + y == 1, x >= 1/3  ->  value 1
    res = lp.solve(
        2, [1, 1], [([1, 1], lp.EQ, 1), ([1, 0], lp.GE, Fraction(1, 3))]
    )
    assert res.status == "optimal"
    assert res.value == 1
    assert res.x[0] >= Fraction(1, 3)
    assert res.x[0] + res.x[1] == 1


def test_infeasible():
    res = lp.solve(1, [1], [([1], lp.LE, 1), ([1], lp.GE, 2)])
    assert res.status == "infeasible"
    assert lp.feasible(1, [([1], lp.LE, 1), ([1], lp.GE, 2)]) is None


def test_unbounded():
    res = lp.solve(2, [1, 0], [([0, 1], lp.LE, 5)])
    assert res.status == "unbounded"


def test_negative_rhs_normalization():
    # -x <= -2 means x >= 2
    res = lp.solve(1, [-1], [([-1], lp.LE, -2)])
    assert res.status == "optimal"
    assert res.value == -2


def test_degenerate_vertex_terminates():
    """Multiple constraints through one vertex; Bland's rule must not cycle."""
    rows = [
        ([1, 1], lp.LE, 1),
        ([1, 0], lp.LE, 1),
        ([0, 1], lp.LE, 1),
        ([1, 1], lp.GE, 1),
    ]
    res = lp.solve(2, [1, 2], rows)
    assert res.status == "optimal"
    assert res.value == 2
    # Both rows tie in the first ratio test; the one whose basic variable has
    # the lower index leaves, and that fixes which optimal vertex is returned.
    res = lp.solve(3, [0, 1, 2], [([1, 1, 0], lp.LE, 1), ([0, 2, 2], lp.LE, 2)])
    assert res.value == 2
    assert res.x == [1, 0, 1]


def test_dict_coefficients():
    res = lp.solve(3, {1: 1}, [({0: 1, 1: 1, 2: 1}, lp.EQ, 1)])
    assert res.status == "optimal"
    assert res.value == 1


def test_exactness_no_rounding():
    # Optimum at x = 1/7, detectable only with exact arithmetic.
    res = lp.solve(1, [1], [([7], lp.LE, 1)])
    assert res.value == Fraction(1, 7)


def test_beale_cycling_example_terminates():
    """Beale's LP cycles under the largest-coefficient entering rule; Bland's
    rule reaches the optimum 5/4 at x = (1, 0, 1, 0)."""
    rows = [
        ([Fraction(1, 4), -8, -1, 9], lp.LE, 0),
        ([Fraction(1, 2), -12, Fraction(-1, 2), 3], lp.LE, 0),
        ([0, 0, 1, 0], lp.LE, 1),
    ]
    res = lp.solve(4, [Fraction(3, 4), -20, Fraction(1, 2), -6], rows)
    assert res.status == "optimal"
    assert res.value == Fraction(5, 4)
    assert res.x == [1, 0, 1, 0]


def test_zero_objective_feasible_point():
    x = lp.feasible(2, [([1, 1], lp.EQ, 1), ([1, -1], lp.EQ, 0)])
    assert x == [Fraction(1, 2), Fraction(1, 2)]


@pytest.mark.parametrize("seed", range(30))
def test_random_cross_check_scipy(seed):
    """Random small LPs: status and optimal value must match scipy.linprog."""
    rng = random.Random(seed)

    def draw(lo, hi):
        # Integers and fractions, so the tableau has denominators to clear.
        return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 7]))

    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    obj = [draw(-5, 5) for _ in range(n)]
    rows = []
    for _ in range(m):
        coefs = [draw(-4, 4) for _ in range(n)]
        op = rng.choice([lp.LE, lp.GE, lp.EQ])
        rhs = draw(-3, 6)
        rows.append((coefs, op, rhs))
    # Keep scipy away from unbounded warnings by boxing the variables.
    rows.append(([1] * n, lp.LE, 50))

    res = lp.solve(n, obj, rows)

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coefs, op, rhs in rows:
        cf = [float(c) for c in coefs]
        if op == lp.LE:
            a_ub.append(cf)
            b_ub.append(float(rhs))
        elif op == lp.GE:
            a_ub.append([-c for c in cf])
            b_ub.append(-float(rhs))
        else:
            a_eq.append(cf)
            b_eq.append(float(rhs))
    ref = linprog(
        [-float(c) for c in obj],
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(0, None)] * n,
        method="highs",
    )
    if res.status == "infeasible":
        assert not ref.success and ref.status == 2
    else:
        assert res.status == "optimal"
        assert ref.success
        assert abs(float(res.value) - (-ref.fun)) < 1e-7


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    small = st.integers(-4, 4)
    obj = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    rows = [
        (
            draw(st.lists(small, min_size=n, max_size=n)),
            draw(st.sampled_from([lp.LE, lp.GE, lp.EQ])),
            draw(st.integers(-3, 6)),
        )
        for _ in range(m)
    ]
    return n, obj, rows


@settings(max_examples=200, deadline=None)
@given(small_lps())
def test_positive_max_agrees_with_exact_simplex(prog):
    n, obj, rows = prog
    res = lp.solve(n, obj, rows)
    got = lp.positive_max(n, obj, rows)
    if res.status != "optimal" or res.value <= 0:
        assert got is None
    else:
        assert got == res.x


positive_rationals = st.fractions(min_value=Fraction(1, 50), max_value=50)


@settings(max_examples=200, deadline=None)
@given(small_lps(), st.data())
def test_positive_row_scaling_leaves_the_solution_unchanged(prog, data):
    """The tableau keeps each row as coprime integers, so scaling a row or the
    objective by a positive rational is invisible to every pivot."""
    n, obj, rows = prog
    k = data.draw(positive_rationals)
    scaled_obj = [k * c for c in obj]
    scaled_rows = []
    for coefs, op, rhs in rows:
        k = data.draw(positive_rationals)
        scaled_rows.append(([k * a for a in coefs], op, k * rhs))
    res = lp.solve(n, obj, rows)
    got = lp.solve(n, scaled_obj, scaled_rows)
    assert got.status == res.status
    assert got.x == res.x


def test_row_scaling_keeps_the_phase_one_weights():
    """A falsifying example of the property above, kept as its own case:
    scaling a >= row by 1/25 once also scaled its artificial column, which
    reweighted the phase-1 objective and moved the feasible point found."""
    rows = [([0, 2, 0, 1], lp.GE, 1), ([-3, -4, 4, 0], lp.EQ, 0), ([3, 2, 4, 2], lp.GE, 0)]
    scales = [Fraction(1, 50), Fraction(1, 50), Fraction(1, 25)]
    scaled = [([k * a for a in coefs], op, k * rhs) for (coefs, op, rhs), k in zip(rows, scales)]
    res = lp.solve(4, [0] * 4, rows)
    assert res.x == [0, 0, 0, 1]
    assert lp.solve(4, [0] * 4, scaled).x == res.x


def test_positive_maximum_takes_the_exact_path():
    # max eps s.t. x0 + x1 == 1, x0 - eps >= 0, x1 - eps >= 0, eps <= 1
    rows = [
        ({0: 1, 1: 1}, lp.EQ, 1),
        ({0: 1, 2: -1}, lp.GE, 0),
        ({1: 1, 2: -1}, lp.GE, 0),
        ({2: 1}, lp.LE, 1),
    ]
    x = lp.positive_max(3, {2: 1}, rows)
    assert x == lp.solve(3, {2: 1}, rows).x == [Fraction(1, 2)] * 3
