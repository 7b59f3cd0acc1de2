"""Exact linear programming over rationals: float proposes, rational checks.

The belief-feasibility engine asks one question per pattern: is the maximum
of c.x positive? `positive_max` answers it. HiGHS (through
`scipy.optimize.linprog`) solves the dual in floating point; the proposed
dual vector is rounded to rationals and checked exactly. A check that passes
proves that no feasible x has c.x > 0 (or that there is no feasible x), so
the refutation is exact although a float solver found it. Every other case
(a positive float optimum, a HiGHS failure, a failed check, a program too
small to repay a HiGHS call) runs the two-phase simplex in `solve`, whose
arithmetic is all `fractions.Fraction`; it builds every witness the solvers
report, so witnesses are frozen into reports without rounding.

Variables are implicitly nonnegative (every caller's unknowns are probability
masses or slack-like quantities). Constraints may be <=, >= or ==.
"""

from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

LE = "<="
GE = ">="
EQ = "=="

_OPS = (LE, GE, EQ)

ZERO = Fraction(0)
ONE = Fraction(1)

# Sign bounds of a dual variable, by the op of its primal row.
_DUAL_BOUNDS = {LE: (0, None), GE: (None, 0), EQ: (None, None)}
# A float dual optimum above this is taken as a positive maximum.
_POSITIVE = 1e-9
# Below this many tableau entries (variables x rows) the sparse exact simplex
# is cheaper than one linprog call, whose fixed cost is about 2 ms.
_FLOAT_MIN_SIZE = 200

# How `positive_max` settled its calls: a checked dual certificate
# ("certified"), or the exact simplex after a positive float optimum
# ("positive"), after a HiGHS failure or a failed check ("fallback"), or
# without a float proposal because the program is small ("small").
COUNTS = dict.fromkeys(("certified", "positive", "fallback", "small"), 0)


def reset_counts():
    for k in COUNTS:
        COUNTS[k] = 0


class LpResult:
    """Outcome of a solve: status in {'optimal', 'infeasible', 'unbounded'}."""

    __slots__ = ("status", "value", "x")

    def __init__(self, status, value=None, x=None):
        self.status = status
        self.value = value
        self.x = x

    def __repr__(self):
        return "LpResult(%r, value=%r)" % (self.status, self.value)


def _items(coeffs):
    return coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)


def _as_row(coeffs, n):
    row = [ZERO] * n
    for j, c in _items(coeffs):
        row[j] = Fraction(c)
    return row


def solve(num_vars, objective, rows):
    """Maximize objective . x subject to rows, x >= 0.

    objective: dict or sequence of coefficients.
    rows: iterable of (coeffs, op, rhs) with op one of '<=', '>=', '=='.
    """
    c = _as_row(objective, num_vars)
    norm = []
    for coeffs, op, rhs in rows:
        if op not in _OPS:
            raise ValueError("bad op %r" % (op,))
        a = _as_row(coeffs, num_vars)
        b = Fraction(rhs)
        if b < 0:
            a = [-v for v in a]
            b = -b
            if op == LE:
                op = GE
            elif op == GE:
                op = LE
        norm.append((a, op, b))

    m = len(norm)
    # Column layout: structural vars, then one slack/surplus per inequality,
    # then artificials. Basis starts on slacks where possible.
    slack_of = [None] * m
    art_of = [None] * m
    ncols = num_vars
    for i, (_, op, _b) in enumerate(norm):
        if op in (LE, GE):
            slack_of[i] = ncols
            ncols += 1
    for i, (_, op, _b) in enumerate(norm):
        if op in (GE, EQ):
            art_of[i] = ncols
            ncols += 1

    tab = []
    basis = []
    for i, (a, op, b) in enumerate(norm):
        row = a + [ZERO] * (ncols - num_vars)
        if op == LE:
            row[slack_of[i]] = ONE
            basis.append(slack_of[i])
        elif op == GE:
            row[slack_of[i]] = -ONE
            row[art_of[i]] = ONE
            basis.append(art_of[i])
        else:
            row[art_of[i]] = ONE
            basis.append(art_of[i])
        row.append(b)
        tab.append(row)

    n_art = sum(1 for a in art_of if a is not None)

    if n_art:
        # Phase 1: maximize -sum(artificials).
        obj = [ZERO] * (ncols + 1)
        for a in art_of:
            if a is not None:
                obj[a] = -ONE
        _price_out(obj, tab, basis)
        status = _iterate(obj, tab, basis, ncols)
        if status != "optimal":
            # Phase 1 objective is bounded above by zero, so this is unreachable,
            # but stay defensive.
            return LpResult("infeasible")
        if -obj[-1] != 0:
            return LpResult("infeasible")
        _expel_artificials(tab, basis, art_of, num_vars, slack_of)

    art_cols = set(a for a in art_of if a is not None)
    obj = [ZERO] * (ncols + 1)
    for j in range(num_vars):
        obj[j] = c[j]
    _price_out(obj, tab, basis)
    status = _iterate(obj, tab, basis, ncols, banned=art_cols)
    if status == "unbounded":
        return LpResult("unbounded")

    x = [ZERO] * num_vars
    for i, bj in enumerate(basis):
        if bj < num_vars:
            x[bj] = tab[i][-1]
    value = sum(c[j] * x[j] for j in range(num_vars))
    return LpResult("optimal", value, x)


def _price_out(obj, tab, basis):
    """Make the objective row consistent with the current basis."""
    for i, bj in enumerate(basis):
        coef = obj[bj]
        if coef != 0:
            for k, v in enumerate(tab[i]):
                if v:
                    obj[k] -= coef * v


def _iterate(obj, tab, basis, ncols, banned=frozenset()):
    """Primal simplex with Bland's rule. Mutates obj/tab/basis in place."""
    m = len(tab)
    while True:
        enter = -1
        for j in range(ncols):
            if j in banned:
                continue
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(obj, tab, basis, leave, enter)


def _pivot(obj, tab, basis, i, j):
    """Pivot on tab[i][j], touching only the nonzero entries of row i."""
    row = tab[i]
    inv = ONE / row[j]
    nonzero = []
    for k, v in enumerate(row):
        if v:
            row[k] = v = v * inv
            nonzero.append((k, v))
    for r in range(len(tab)):
        if r == i:
            continue
        f = tab[r][j]
        if f != 0:
            other = tab[r]
            for k, v in nonzero:
                other[k] -= f * v
    f = obj[j]
    if f != 0:
        for k, v in nonzero:
            obj[k] -= f * v
    basis[i] = j


def _expel_artificials(tab, basis, art_of, num_vars, slack_of):
    """Pivot zero-level artificials out of the basis where possible."""
    art_cols = set(a for a in art_of if a is not None)
    for i in range(len(tab)):
        if basis[i] in art_cols:
            row = tab[i]
            target = -1
            for j in range(len(row) - 1):
                if j in art_cols:
                    continue
                if row[j] != 0:
                    target = j
                    break
            if target >= 0:
                dummy = [ZERO] * len(row)
                _pivot(dummy, tab, basis, i, target)
            # else the row is 0 = 0 and stays parked on the artificial.


def feasible(num_vars, rows):
    """Feasibility-only convenience wrapper; returns a point or None."""
    res = solve(num_vars, [ZERO] * num_vars, rows)
    if res.status == "optimal":
        return res.x
    return None


def positive_max(num_vars, objective, rows):
    """The exact optimal x of `solve(num_vars, objective, rows)` when that
    program is optimal with a positive value; None otherwise (value <= 0,
    infeasible or unbounded).

    None is returned without the exact simplex only when a rounded float dual
    y passes the exact check A^T y >= c, b.y <= 0 with y of the right sign per
    row: then c.x <= (A^T y).x <= b.y <= 0 for every feasible x. Programs
    with fewer than `_FLOAT_MIN_SIZE` variables x rows skip the float side.
    """
    rows = list(rows)
    if num_vars * len(rows) < _FLOAT_MIN_SIZE:
        COUNTS["small"] += 1
    else:
        c = _as_row(objective, num_vars)
        res = _float_dual(num_vars, c, rows)
        if res.status == 0 and res.fun > _POSITIVE:
            COUNTS["positive"] += 1
        elif res.status == 0 and _certifies(num_vars, c, rows, res.x):
            COUNTS["certified"] += 1
            return None
        else:
            COUNTS["fallback"] += 1
    exact = solve(num_vars, objective, rows)
    if exact.status == "optimal" and exact.value > 0:
        return exact.x
    return None


def _float_dual(num_vars, c, rows):
    """HiGHS on the dual: min b.y s.t. A^T y >= c and b.y >= -1, with y >= 0
    on <= rows, y <= 0 on >= rows and y free on == rows. The extra row keeps
    the dual bounded when the primal is infeasible. Returns the linprog result."""
    m = len(rows)
    a_ub = np.zeros((num_vars + 1, m))
    b = np.empty(m)
    for i, (coeffs, _op, rhs) in enumerate(rows):
        for j, v in _items(coeffs):
            if v:
                a_ub[j, i] = -float(v)
        b[i] = float(rhs)
    a_ub[num_vars] = -b
    b_ub = np.array([-float(v) for v in c] + [1.0])
    bounds = [_DUAL_BOUNDS[op] for _coeffs, op, _rhs in rows]
    # Presolve costs more than it saves on programs this small.
    return linprog(
        b, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs",
        options={"presolve": False},
    )


def _certifies(num_vars, c, rows, y):
    """Round y to rationals, zero its wrong-sign entries and check exactly
    that it is dual feasible with b.y <= 0."""
    lhs = [ZERO] * num_vars
    by = ZERO
    for (coeffs, op, rhs), v in zip(rows, y):
        if not v or (op == LE and v < 0) or (op == GE and v > 0):
            continue
        yi = Fraction(v).limit_denominator()
        if not yi:
            continue
        by += yi * Fraction(rhs)
        for j, a in _items(coeffs):
            if a:
                lhs[j] += yi * a
    return by <= 0 and all(l >= cj for l, cj in zip(lhs, c))
