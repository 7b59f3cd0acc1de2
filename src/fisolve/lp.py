"""Exact linear programming over rationals, on a fraction-free tableau.

The belief-feasibility engine asks one question per pattern: is the maximum
of c.x positive? `positive_max` answers it with one call to `solve`, the
two-phase primal simplex with Bland's rule. Every decision and every witness
comes from this one exact path.

The tableau is fraction-free: each row, and the objective row, is stored as
coprime Python ints, a positive multiple of the row a rational tableau would
hold. A pivot on the positive entry p combines rows as p*row - f*pivot_row
and divides the result by its gcd; the ratio test cross-multiplies. Positive
scaling keeps every sign and every ratio, so the pivot sequence, and with it
each solution, is the one the rational tableau would take. A basic variable
is read off as rhs_i / row_i[basis_i]. Each constraint enters as its
coprime integer form (a | b) with unit slack and artificial entries added,
so a constraint scaled by any positive rational gives the same tableau.

Variables are implicitly nonnegative (every caller's unknowns are probability
masses or slack-like quantities). Constraints may be <=, >= or =, spelled as
in restriction files, so a parsed clause's operator already is an lp operator.
"""

from fractions import Fraction
from math import gcd, lcm

LE = "<="
GE = ">="
EQ = "="

_OPS = (LE, GE, EQ)

ZERO = Fraction(0)


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


def _coprime(row):
    """Scale a list of ints and Fractions by the lcm of its denominators and
    divide by the gcd: coprime ints, a positive multiple of the row."""
    L = lcm(*(v.denominator for v in row))
    return _reduce([v.numerator * (L // v.denominator) for v in row])


def _reduce(row):
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def solve(num_vars, objective, rows):
    """Maximize objective . x subject to rows, x >= 0.

    objective: dict or sequence of coefficients.
    rows: iterable of (coeffs, op, rhs) with op one of LE, GE, EQ
    ('<=', '>=', '=').
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
        # The constraint is made coprime before its unit slack and artificial
        # entries join it, so a positively scaled constraint gives the same
        # row, and phase 1 weighs every artificial alike.
        *a, b = _coprime(a + [b])
        row = a + [0] * (ncols - num_vars)
        if op == LE:
            row[slack_of[i]] = 1
            basis.append(slack_of[i])
        elif op == GE:
            row[slack_of[i]] = -1
            row[art_of[i]] = 1
            basis.append(art_of[i])
        else:
            row[art_of[i]] = 1
            basis.append(art_of[i])
        row.append(b)
        tab.append(row)

    art_cols = set(a for a in art_of if a is not None)

    if art_cols:
        # Phase 1: maximize -sum(artificials).
        obj = [0] * (ncols + 1)
        for a in art_cols:
            obj[a] = -1
        obj = _price_out(obj, tab, basis)
        obj = _iterate(obj, tab, basis, ncols)
        if obj is None:
            # Phase 1 objective is bounded above by zero, so this is unreachable,
            # but stay defensive.
            return LpResult("infeasible")
        if obj[-1] != 0:
            return LpResult("infeasible")
        _expel_artificials(tab, basis, art_cols)

    obj = _coprime(c + [0] * (ncols + 1 - num_vars))
    obj = _price_out(obj, tab, basis)
    if _iterate(obj, tab, basis, ncols, banned=art_cols) is None:
        return LpResult("unbounded")

    x = [ZERO] * num_vars
    for row, bj in zip(tab, basis):
        if bj < num_vars:
            x[bj] = Fraction(row[-1], row[bj])
    value = sum(c[j] * x[j] for j in range(num_vars))
    return LpResult("optimal", value, x)


def _combine(row, f, p, pivot_row):
    """p*row - f*pivot_row with p > 0, divided by its gcd."""
    return _reduce([p * v - f * w for v, w in zip(row, pivot_row)])


def _price_out(obj, tab, basis):
    """Make the objective row consistent with the current basis; returns it."""
    for row, bj in zip(tab, basis):
        f = obj[bj]
        if f:
            obj = _combine(obj, f, row[bj], row)
    return obj


def _iterate(obj, tab, basis, ncols, banned=frozenset()):
    """Primal simplex with Bland's rule. Mutates tab/basis in place; returns
    the final objective row, or None when the program is unbounded."""
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
            return obj
        # Minimum ratio rhs / a over a > 0, compared as rhs_i * a_best <
        # rhs_best * a_i; ties go to the lower basis index.
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tab[i][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return None
        obj = _pivot(obj, tab, basis, leave, enter)


def _pivot(obj, tab, basis, i, j):
    """Pivot on tab[i][j] > 0: clear column j from every other row and from
    obj (unless None). Returns the new objective row."""
    row = tab[i]
    p = row[j]
    for r, other in enumerate(tab):
        if r != i:
            f = other[j]
            if f:
                tab[r] = _combine(other, f, p, row)
    if obj is not None:
        f = obj[j]
        if f:
            obj = _combine(obj, f, p, row)
    basis[i] = j
    return obj


def _expel_artificials(tab, basis, art_cols):
    """Pivot zero-level artificials out of the basis where possible."""
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
                if row[target] < 0:
                    # Pivots must be positive. The negated row is a positive
                    # multiple of the row divided by its pivot, which is
                    # what the rational tableau holds after this pivot.
                    tab[i] = [-v for v in row]
                _pivot(None, tab, basis, i, target)
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
    infeasible or unbounded)."""
    res = solve(num_vars, objective, rows)
    if res.status == "optimal" and res.value > 0:
        return res.x
    return None
