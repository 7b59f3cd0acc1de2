"""Brute-force cross-check for the belief engine.

Enumerates, at every infoset of one player, all conditionals whose weights
are multiples of 1/d for a single grid step d <= D (one grid per candidate;
steps that divide a larger usable step are skipped as redundant). For D = 4
this is exactly the set of conditionals all of whose weights have reduced
denominator at most 4: denominators 1 and 2 embed in the quarter grid, and
no distribution can mix thirds with quarters and still sum to one.

The grid of each shape (number of cells, bound) is built once per process
and reused by every query. Candidates are filtered per infoset against
mandates, restriction clauses, and local optimality of the queried strategy,
then paired across infosets by checking the chain rule literally on every
nested pair. A clause means what it means to the engine: its row comes from
`beliefs.clause_row`, once per infoset, and is compared by `beliefs._holds`.
The oracle shares no code with the pattern search in the engine: it never
looks at event groups, inclusion forests, or linear programs, so agreement
between the two is meaningful evidence. Payoffs come from the game's payoff
table, as in the engine; tests check that table against the tree walk
`GameTree.payoff`.

Complete only up to grid resolution. When the engine finds a witness and the
oracle does not, that is a GridTooCoarse advisory, not a bug; the converse
disagreement is a soundness failure in the engine and is never acceptable.
"""

from fractions import Fraction
from functools import cache

from . import beliefs

ZERO = Fraction(0)
ONE = Fraction(1)


class GridTooCoarse(Warning):
    """Engine found a witness outside the oracle's grid. Advisory only."""


class OracleSoundnessFailure(Exception):
    """Oracle found a witness the engine missed. Always a bug."""


def grid_steps(bound):
    return [
        d
        for d in range(1, bound + 1)
        if not any(d2 % d == 0 for d2 in range(d + 1, bound + 1))
    ]


def _compositions(total, cells):
    if cells == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, cells - 1):
            yield (first,) + rest


@cache
def _candidates(ncells, bound):
    """Every grid vector over ncells cells, in first-seen order, built once
    per shape. The dict drops the repeats a coarser step shares with a finer
    one; the vectors of one step share its weight objects, which keeps the
    cached grids about five times smaller."""
    vecs = {}
    for d in grid_steps(bound):
        weights = [Fraction(c, d) for c in range(d + 1)]
        for comp in _compositions(d, ncells):
            vecs.setdefault(tuple(weights[c] for c in comp))
    return tuple(vecs)


def oracle_cps_search(
    game, player, strategy, mandates=(), restrictions=None, denominator=4
):
    """Exhaustive grid search for an admissible belief system.

    Same query as beliefs.exists_admissible_cps, answered by enumeration.
    Returns a ConditionalBeliefs witness or None.
    """
    sp = beliefs.space_for(game, player)
    clauses = beliefs._clause_map(game, player, restrictions)

    allowed = {}
    for item in mandates:
        for h, ts in item.allowed.items():
            cur = allowed.get(h)
            allowed[h] = frozenset(ts) if cur is None else (cur & ts)

    si = strategy.index
    per_infoset = []
    for h in sp.infosets:
        ev = sorted(sp.event[h])
        clause_rows = [beliefs.clause_row(sp, cl) for cl in clauses.get(h, ())]
        ok = []
        for vec in _candidates(len(ev), denominator):
            row = {t: w for t, w in zip(ev, vec) if w}
            if h in allowed and sum(
                (w for t, w in row.items() if t in allowed[h]), ZERO
            ) != 1:
                continue
            if not all(
                beliefs._holds(
                    sum((row.get(t, ZERO) * c for t, c in coefs.items()), ZERO),
                    op,
                    rhs,
                )
                for coefs, op, rhs in clause_rows
            ):
                continue
            if si in sp.alts[h] and not _locally_best(sp, h, row, si):
                continue
            ok.append(row)
        if not ok:
            return None
        per_infoset.append((h, ev, ok))

    assignment = {}

    def consistent(h, row):
        ev = set(sp.event[h])
        for h2, row2 in assignment.items():
            ev2 = sp.event[h2]
            if ev2 <= ev:
                if not _chain(row, row2, ev2):
                    return False
            if ev <= ev2:
                if not _chain(row2, row, ev):
                    return False
        return True

    def search(k):
        if k == len(per_infoset):
            return True
        h, ev, ok = per_infoset[k]
        for row in ok:
            if consistent(h, row):
                assignment[h] = row
                if search(k + 1):
                    return True
                del assignment[h]
        return False

    if not search(0):
        return None
    return beliefs.ConditionalBeliefs(sp, assignment)


def _chain(big, small, small_event):
    mass = sum((w for t, w in big.items() if t in small_event), ZERO)
    for t in small_event:
        if small.get(t, ZERO) * mass != big.get(t, ZERO):
            return False
    return True


def _locally_best(space, infoset, row, si):
    u = space.numerators  # one denominator for all, so sums compare as payoffs
    mine = sum((w * u[si][t] for t, w in row.items()), ZERO)
    for alt in space.alts[infoset]:
        if alt == si:
            continue
        if sum((w * u[alt][t] for t, w in row.items()), ZERO) > mine:
            return False
    return True


def concordance_verdict(
    game, player, strategy, mandates=(), restrictions=None, denominator=4
):
    """Run both routes and compare.

    Returns "agree-witness", "agree-none", or "grid-too-coarse" (engine yes,
    oracle no: advisory). Raises OracleSoundnessFailure when the oracle finds
    a witness the engine rejected.
    """
    try:
        engine = beliefs.exists_admissible_cps(
            game, player, strategy, mandates, restrictions
        )
    except beliefs.EmptyPolytope:
        engine = None
    oracle = oracle_cps_search(
        game, player, strategy, mandates, restrictions, denominator
    )
    if engine is not None and oracle is not None:
        return "agree-witness"
    if engine is None and oracle is None:
        return "agree-none"
    if engine is not None:
        return "grid-too-coarse"
    raise OracleSoundnessFailure(
        "oracle found an admissible system for %s of %s that the engine missed: %r"
        % (strategy.name, player, oracle)
    )
