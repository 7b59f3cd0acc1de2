"""Exact simplex unit tests, cross-checked against scipy on random LPs, and
the float-proposes, rational-checks entry `positive_max` checked against the
exact simplex."""

import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

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


def test_dict_coefficients():
    res = lp.solve(3, {1: 1}, [({0: 1, 1: 1, 2: 1}, lp.EQ, 1)])
    assert res.status == "optimal"
    assert res.value == 1


def test_exactness_no_rounding():
    # Optimum at x = 1/7, detectable only with exact arithmetic.
    res = lp.solve(1, [1], [([7], lp.LE, 1)])
    assert res.value == Fraction(1, 7)


def test_zero_objective_feasible_point():
    x = lp.feasible(2, [([1, 1], lp.EQ, 1), ([1, -1], lp.EQ, 0)])
    assert x == [Fraction(1, 2), Fraction(1, 2)]


@pytest.mark.parametrize("seed", range(30))
def test_random_cross_check_scipy(seed):
    """Random small LPs: status and optimal value must match scipy.linprog."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    obj = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coefs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        op = rng.choice([lp.LE, lp.GE, lp.EQ])
        rhs = Fraction(rng.randint(-3, 6))
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
    """With the size cut-off at 0 every program takes the float side."""
    n, obj, rows = prog
    res = lp.solve(n, obj, rows)
    with mock.patch.object(lp, "_FLOAT_MIN_SIZE", 0):
        got = lp.positive_max(n, obj, rows)
    if res.status != "optimal" or res.value <= 0:
        assert got is None
    else:
        assert got == res.x


def counts(**nonzero):
    return dict(dict.fromkeys(lp.COUNTS, 0), **nonzero)


@pytest.fixture
def float_side(monkeypatch):
    """Send every program, however small, to the float side."""
    monkeypatch.setattr(lp, "_FLOAT_MIN_SIZE", 0)
    lp.reset_counts()


# max eps s.t. x - eps >= 0, x <= 0, eps <= 1: the maximum is 0, and the
# dual y = (-1, 1, 0) proves it.
REFUTED = (2, {1: 1}, [({0: 1, 1: -1}, lp.GE, 0), ({0: 1}, lp.LE, 0), ({1: 1}, lp.LE, 1)])


def test_small_program_skips_the_float_side(monkeypatch):
    def no_float(*args):
        raise AssertionError("HiGHS ran")

    monkeypatch.setattr(lp, "_float_dual", no_float)
    lp.reset_counts()
    assert lp.positive_max(*REFUTED) is None
    assert lp.COUNTS == counts(small=1)


def test_refutation_is_certified_without_the_simplex(float_side, monkeypatch):
    def no_simplex(*args):
        raise AssertionError("exact simplex ran")

    monkeypatch.setattr(lp, "solve", no_simplex)
    assert lp.positive_max(*REFUTED) is None
    assert lp.COUNTS == counts(certified=1)


def test_positive_maximum_takes_the_exact_path(float_side):
    # max eps s.t. x0 + x1 == 1, x0 - eps >= 0, x1 - eps >= 0, eps <= 1
    rows = [
        ({0: 1, 1: 1}, lp.EQ, 1),
        ({0: 1, 2: -1}, lp.GE, 0),
        ({1: 1, 2: -1}, lp.GE, 0),
        ({2: 1}, lp.LE, 1),
    ]
    x = lp.positive_max(3, {2: 1}, rows)
    assert x == lp.solve(3, {2: 1}, rows).x == [Fraction(1, 2)] * 3
    assert lp.COUNTS == counts(positive=1)


@pytest.mark.parametrize(
    "corrupt",
    [lambda y: y * 0.5, lambda y: -y, lambda y: y + 1e-3],
    ids=["scaled", "wrong-sign", "perturbed"],
)
def test_corrupt_float_dual_falls_back(float_side, monkeypatch, corrupt):
    float_dual = lp._float_dual

    def proposing(*args):
        res = float_dual(*args)
        res.x = corrupt(res.x)
        return res

    monkeypatch.setattr(lp, "_float_dual", proposing)
    assert lp.positive_max(*REFUTED) is None
    assert lp.COUNTS == counts(fallback=1)


def test_wrong_sign_dual_cannot_refute_a_positive_lp(float_side, monkeypatch):
    """max x s.t. x >= 0, x <= 1 has value 1. The proposal y = (1, 0) meets
    A^T y >= c and b.y <= 0 but has the wrong sign on the >= row, so it is
    zeroed there, the check fails and the exact simplex answers."""
    monkeypatch.setattr(
        lp,
        "_float_dual",
        lambda *args: SimpleNamespace(status=0, fun=0.0, x=np.array([1.0, 0.0])),
    )
    assert lp.positive_max(1, [1], [([1], lp.GE, 0), ([1], lp.LE, 1)]) == [1]
    assert lp.COUNTS == counts(fallback=1)
