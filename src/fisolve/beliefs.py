"""Conditional belief systems and admissibility queries.

A player's beliefs live on the family of conditioning events S_-i(h), one per
own information set h: the opponent strategy profiles that allow h. A valid
system obeys the chain rule across nested events. The central query here is
existence: is there a valid system under which a given strategy is a
sequential best reply, while every conditional obeys the active support
mandates (strong-belief obligations) and the user's linear restriction
clauses?

The search decomposes by "surprise pattern". Conditioning events with equal
support share one conditional; distinct events form a Hasse forest under
strict inclusion. Along each forest edge the child's conditional either
inherits from the parent by Bayes rule (positive mass on the child event) or
the parent assigns the child event zero mass and the child restarts freely.
Fixing one choice per edge makes every requirement linear after clearing
denominators, so each pattern is one LP over rationals that maximizes a
slack. The exact simplex decides it (`lp.positive_max`): a pattern is kept
when the max-slack is strictly positive, and the optimal point is the
witness; otherwise it is refuted. Patterns are few because the forests of
real games are shallow.

A query decides in this order: an empty allowed set refutes; pure
conditional dominance refutes; a lexicographic point system keeps; the
pattern LPs decide the rest. Dominance means some alternative at a reached
infoset earns strictly more than the strategy at every combo its event group
may believe. It is sound because mandates and support clauses are folded
into the allowed sets, so every admissible conditional of that group puts
all its mass where the alternative is strictly better (Pearce 1984). Only
the point and pattern steps produce witnesses. `COUNTS` records which step
settled each query.

Everything before the pattern LPs is mask algebra. A set of a player's
opponent combos is a Python int whose bit t stands for combo t (the combos'
mixed-radix index); events, allowed sets and clause-good sets are such
masks. A space is built from masks alone: its events come from the game's
walk (`GameTree.joint_reaching_mask`), its event groups are the distinct
event masks, its inclusion forest is mask containment, and its
alternatives per infoset are the bits of the game's own reach masks. The
pattern LPs take their columns from masks too: one live mask per block.
The index sets of events (`BeliefSpace.event`) and the combo tuples are
spelled out on first use, by clauses, the oracle and the validity checks.
The space reads its sign masks off the payoff table's cells: per own
strategy, the combos at each payoff rank and those where it earns more than
each rank. `lt(s, a)`, the combos t where u(s, t) < u(a, t), is the OR over
ranks r of s's combos at r and a's combos above r. A rationality row of
strategy s against alternative a at infoset h is then `lt(s, a) &
event(h)`, the combos where the row is negative; a group is dominated when
some row covers its allowed set, and its good points are the allowed,
clause-good combos outside every row. A query is prepared once per
obligation set and restrictions and cached on the space (`_Query`):
one bundle of obligations per slot (allowed masks and clause rows) and the
point data of their merge (clause-good masks, the point order and each
group's first point). It holds no strategy; `_admissible` takes the
strategy as an argument, so every strategy of a round and every re-query
that names an elimination's reason asks the same prepared query. The LP
rows of a strategy (integer payoff differences) are built only when its
pattern LPs run.

Payoffs come from the game's exact payoff table (`GameTree.payoff_table`):
per player, Python-int numerators over the leaves and one common
denominator L > 0. A rationality row is the difference of two integer rows,
L * (u(s, .) - u(alt, .)). The sign masks are its signs, and the optimality
checks compare two expectations under the same weights, so the factor L
changes none of them. The pattern LP stores every row as coprime integers,
so a row scaled by L > 0 is the same row to the simplex.

The same machinery answers a coupled query used when restrictions are given
implicitly as "agrees on a set of events with some member of a smaller CPS
set": two belief systems, each with its own obligations, tied together by
equality of conditionals on a Hasse-upward-closed set of groups. Membership
in such a closure is a one-system query that pins the given conditionals on
the agreement events as clause rows P(t) = w. Every obligation is an allowed
set or a linear row on one event group's conditional.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import product

from . import lp
from .model import bits, opponent_combos

ZERO = Fraction(0)
ONE = Fraction(1)

# How `_admissible` settled its queries: an empty allowed set ("empty"), pure
# conditional dominance ("dominated"), a lexicographic point system
# ("point"), or the pattern LPs ("patterns_kept", "patterns_refuted").
COUNTS = dict.fromkeys(
    ("empty", "dominated", "point", "patterns_kept", "patterns_refuted"), 0
)


def reset_counts():
    for k in COUNTS:
        COUNTS[k] = 0


class BeliefError(Exception):
    pass


class DomainMismatch(BeliefError):
    """A conditional puts mass outside its conditioning event."""


class EmptyPolytope(BeliefError):
    """The restriction clauses at one infoset admit no distribution at all."""

    def __init__(self, player, infoset):
        super().__init__("restrictions at %s leave %s no belief" % (infoset, player))
        self.player = player
        self.infoset = infoset


class UnsupportedBeliefStructure(BeliefError):
    """The conditioning events fall outside the solvable structure.

    The engine requires the distinct conditioning events to form a forest
    under strict inclusion (each event has at most one minimal strict
    superset), and coupled queries additionally require the agreement events
    to be upward-closed in that forest. Every game in the supported family
    (perfect-information trees and simultaneous blocks) satisfies both.
    """


def _first_in(mask, levels):
    """The first combo of a nonempty mask in a point order: `levels` are
    disjoint masks, earlier levels first, ascending index within a level."""
    for level in levels:
        hit = mask & level
        if hit:
            return (hit & -hit).bit_length() - 1
    raise ValueError("empty mask")


def space_for(game, player):
    cache = getattr(game, "_belief_spaces", None)
    if cache is None:
        cache = {}
        game._belief_spaces = cache
    sp = cache.get(player)
    if sp is None:
        sp = BeliefSpace(game, player)
        cache[player] = sp
    return sp


class BeliefSpace:
    """Derived belief-side structure for one player: events, groups, forest,
    sign masks, and the cache of prepared queries."""

    def __init__(self, game, player):
        self.game = game
        self.player = player
        self.opponents = tuple(p for p in game.players if p != player)
        self.opp_pos = {p: k for k, p in enumerate(self.opponents)}

        # Combo t is the mixed-radix number of its components' indices, the
        # first opponent most significant.
        self.radix = tuple(len(game.strategies(j)) for j in self.opponents)
        self.ncombos = math.prod(self.radix)
        self.full = (1 << self.ncombos) - 1

        self.infosets = tuple(game.player_infosets[player])
        self.event_mask = {}
        by_event = {}
        for h in self.infosets:
            mask = self.event_mask[h] = game.joint_reaching_mask(player, h)
            by_event.setdefault(mask, []).append(h)

        # Groups: one per distinct event, in a fixed topological order:
        # larger events first, so parents precede children, and among
        # equal sizes the event whose ascending combo list is smaller
        # first. Two such lists first differ at the lowest bit of the
        # masks' difference, and the list holding it is the smaller: that
        # is the order of the bit-reversed masks, descending.
        width = "0%db" % self.ncombos

        def order(mask):
            return (-mask.bit_count(), -int(format(mask, width)[::-1], 2))

        self.groups = [
            _Group(k, mask, tuple(by_event[mask]))
            for k, mask in enumerate(sorted(by_event, key=order))
        ]
        self.group_of = {h: g.index for g in self.groups for h in g.infosets}

        # The forest: a group's strict supersets all precede it. Its parent
        # is the last of them, the smallest; it is the only minimal one iff
        # every other contains it.
        self.parent = [None] * len(self.groups)
        for g in self.groups:
            supers = [g2 for g2 in self.groups[: g.index] if g2.mask & g.mask == g.mask]
            if supers:
                least = supers[-1].mask
                if any(g2.mask & least != least for g2 in supers):
                    raise UnsupportedBeliefStructure(
                        "event of %s has several minimal supersets" % (g.infosets[0],)
                    )
                self.parent[g.index] = supers[-1].index

        # Own reachability per infoset: the strategy indices, ascending.
        self.alts = {h: tuple(bits(game.reach_mask(player, h))) for h in self.infosets}
        # Per own strategy, its combos at each payoff rank and, per rank r,
        # those where it earns more than r (see `lt`). Ranks are dense.
        k = game.players.index(player)
        table = game.payoff_table()
        nums = table.numerators[k]
        rank_of = {v: r for r, v in enumerate(sorted(set(nums)))}
        self._at, self._above = [], []
        for cells in table.cells(k):
            at = {}
            for n, combos in cells.items():
                r = rank_of[nums[n]]
                at[r] = at.get(r, 0) | combos
            above = {len(rank_of) - 1: 0}
            for r in range(len(rank_of) - 1, 0, -1):
                above[r - 1] = above[r] | at.get(r, 0)
            self._at.append(at)
            self._above.append(above)
        self._rationality = {}
        self._signs = {}
        self._queries = {}
        self._empty = {}  # clause map -> first empty infoset or None

    @cached_property
    def event(self):
        """infoset -> its conditioning event as a set of combo indices."""
        return {h: frozenset(bits(m)) for h, m in self.event_mask.items()}

    @cached_property
    def combos(self):
        """The opponent combos, tuples of Strategy objects, by index."""
        return tuple(product(*(self.game.strategies(j) for j in self.opponents)))

    @cached_property
    def numerators(self):
        """numerators[s][t] / L = u_i(own strategy s, combo t), with L > 0 the
        payoff table's denominator for the player. Read by the LP rows, the
        exact optimality checks and the oracle, not by the mask steps."""
        return self.game.payoff_table().rows(self.player)

    def lt(self, s, a):
        """The mask of the combos where own strategy s earns strictly less
        than own strategy a: the OR over ranks r of s's combos at r and a's
        combos above r."""
        above = self._above[a]
        got = 0
        for r, combos in self._at[s].items():
            got |= combos & above[r]
        return got

    def sign_rows(self, own_index):
        """The rationality rows of an own strategy as masks: (rows, by_group).
        rows lists the distinct (group index, mask) pairs, one per reached
        infoset and alternative there, the mask holding the combos of the
        infoset's event at which the alternative earns strictly more;
        by_group ORs each group's masks. Index None, no strategy, reaches no
        infoset and has no rows. Cached."""
        got = self._signs.get(own_index)
        if got is None:
            rows = {}
            by_group = {}
            lt = {}  # alternative -> lt(own_index, alternative)
            for h in self.infosets:
                if own_index not in self.alts[h]:
                    continue
                gi = self.group_of[h]
                ev = self.event_mask[h]
                for alt in self.alts[h]:
                    if alt != own_index:
                        if alt not in lt:
                            lt[alt] = self.lt(own_index, alt)
                        neg = lt[alt] & ev
                        rows[(gi, neg)] = None
                        by_group[gi] = by_group.get(gi, 0) | neg
            got = self._signs[own_index] = (tuple(rows), by_group)
        return got

    def rationality_rows(self, own_index):
        """group index -> the diffs of its infosets, one for every own infoset
        the strategy reaches and every alternative there, in infoset order,
        where diff[t] = L * (u(own, t) - u(alt, t)) over the infoset's event,
        an integer, nonzero entries only. L > 0 is the table's denominator,
        so signs and comparisons of sums with equal weights are those of the
        payoff differences. Index None has no rows. Built for the pattern
        LPs only; cached; callers must not mutate the diffs."""
        rows = self._rationality.get(own_index)
        if rows is None:
            rows = self._rationality[own_index] = {}
            for h in self.infosets:
                if own_index not in self.alts[h]:
                    continue
                mine = self.numerators[own_index]
                for alt in self.alts[h]:
                    if alt == own_index:
                        continue
                    other = self.numerators[alt]
                    diff = {
                        t: mine[t] - other[t]
                        for t in bits(self.event_mask[h])
                        if mine[t] != other[t]
                    }
                    rows.setdefault(self.group_of[h], []).append(diff)
        return rows

    def combo_label(self, t):
        return ",".join(
            "%s=%s" % (j, s.name) for j, s in zip(self.opponents, self.combos[t])
        )


# One distinct conditioning event: its place in the space's group order, its
# mask and the infosets sharing it.
_Group = namedtuple("_Group", "index mask infosets")


class ConditionalBeliefs:
    """One conditional distribution per own infoset, exact rationals."""

    def __init__(self, space, table):
        self.space = space
        self.table = {h: dict(table[h]) for h in space.infosets}

    @property
    def player(self):
        return self.space.player

    def prob(self, infoset, t):
        return self.table[infoset].get(t, ZERO)

    def support(self, infoset):
        return sorted(t for t, w in self.table[infoset].items() if w > 0)

    def mass(self, infoset, ts):
        row = self.table[infoset]
        return sum((row.get(t, ZERO) for t in ts), ZERO)

    def as_labels(self):
        out = {}
        for h in self.space.infosets:
            out[h] = {
                self.space.combo_label(t): self.table[h][t]
                for t in self.support(h)
            }
        return out

    def __repr__(self):
        parts = []
        for h in self.space.infosets:
            row = ", ".join(
                "%s:%s" % (self.space.combo_label(t), self.table[h][t])
                for t in self.support(h)
            )
            parts.append("%s{%s}" % (h, row))
        return "ConditionalBeliefs(%s)" % "; ".join(parts)


def point_cps(game, player, choice):
    """Point beliefs: choice maps each infoset to one opponent combo.

    A combo may be an index into space.combos, a tuple of Strategy objects,
    or a dict player -> Strategy.
    """
    sp = space_for(game, player)
    table = {}
    for h in sp.infosets:
        t = _combo_index(sp, choice[h])
        if t not in sp.event[h]:
            raise DomainMismatch("combo not in conditioning event of %s" % (h,))
        table[h] = {t: ONE}
    return ConditionalBeliefs(sp, table)


def _combo_index(space, combo):
    if isinstance(combo, int):
        return combo
    if isinstance(combo, dict):
        combo = tuple(combo[j] for j in space.opponents)
    if len(combo) != len(space.radix):
        raise KeyError(combo)
    t = 0
    for size, s in zip(space.radix, combo):
        k = s if isinstance(s, int) else s.index
        if not 0 <= k < size:
            raise KeyError(combo)
        t = t * size + k
    return t


def lexicographic_cps(game, player, order):
    """The CPS putting mass 1, at each infoset, on the first order entry in
    its conditioning event. Valid for every ordering of all opponent combos."""
    sp = space_for(game, player)
    seen = list(order)
    taken = set(seen)
    rest = [t for t in range(sp.ncombos) if t not in taken]
    full = seen + rest
    table = {}
    for h in sp.infosets:
        ev = sp.event[h]
        first = next(t for t in full if t in ev)
        table[h] = {first: ONE}
    return ConditionalBeliefs(sp, table)


def cps_from_table(game, player, rows):
    """Build beliefs from {infoset: {combo: weight}} with flexible combo keys."""
    sp = space_for(game, player)
    table = {}
    for h in sp.infosets:
        table[h] = {}
        for combo, w in rows[h].items():
            table[h][_combo_index(sp, combo)] = Fraction(w)
    return ConditionalBeliefs(sp, table)


def is_valid_cps(game, player, cps):
    return explain_invalid_cps(game, player, cps) is None


def explain_invalid_cps(game, player, cps):
    """None if the system satisfies CPS-1..3; else a short reason string."""
    sp = space_for(game, player)
    for h in sp.infosets:
        if h not in cps.table:
            return "no conditional at %s" % (h,)
        row = cps.table[h]
        total = ZERO
        for t, w in row.items():
            if w < 0:
                return "negative weight at %s" % (h,)
            if w > 0 and t not in sp.event[h]:
                return "mass outside conditioning event at %s" % (h,)
            total += w
        if total != 1:
            return "conditional at %s sums to %s" % (h, total)
    # Chain rule over every nested (or equal) pair of conditioning events.
    for ha in sp.infosets:
        for hb in sp.infosets:
            if ha == hb or not (sp.event[hb] <= sp.event[ha]):
                continue
            mass = cps.mass(ha, sp.event[hb])
            for t in sp.event[hb]:
                if cps.prob(hb, t) * mass != cps.prob(ha, t):
                    return "chain rule fails between %s and %s" % (ha, hb)
    return None


class MandateItem:
    """A labeled support obligation: at each listed infoset, conditional mass
    must be 1 on the allowed combo set. Infosets not listed are unconstrained
    (the obligation is inactive there). The sets are held as masks
    ({infoset: mask}); `allowed` spells them out as index sets. `key()`
    identifies the obligation and is computed once."""

    __slots__ = ("label", "masks", "_key")

    def __init__(self, label, masks):
        self.label = label
        self.masks = masks
        self._key = tuple(sorted(masks.items()))

    @property
    def allowed(self):
        return {h: frozenset(bits(m)) for h, m in self.masks.items()}

    def key(self):
        return self._key

    def __repr__(self):
        return "MandateItem(%r)" % (self.label,)


def strong_belief_mandate(game, player, label, opponent, targets):
    """Strong belief in a set of one opponent's strategies: the joint
    obligation over that one opponent. It is active at own infoset h exactly
    where the combos with a target component meet h's event, and allows
    just those combos there. That is where some target allows h, because
    perfect recall leaves every other opponent a strategy that allows h."""
    return joint_strong_belief_mandate(game, player, label, {opponent: targets})


def joint_strong_belief_mandate(game, player, label, targets_by_player):
    """Strong belief in the product of opponent strategy sets: active at own
    infoset h exactly where the target combos meet h's event, allowing that
    intersection there."""
    sp = space_for(game, player)
    sizes = [len(game.strategies(j)) for j in game.players]
    parts = [(1 << n) - 1 for n in sizes]
    for j, ss in targets_by_player.items():
        parts[game.players.index(j)] = sum({1 << s.index for s in ss})
    hits = opponent_combos(parts, sizes, game.players.index(player))
    masks = {}
    for h in sp.infosets:
        inter = hits & sp.event_mask[h]
        if inter:
            masks[h] = inter
    return MandateItem(label, masks)


def strongly_believes(game, player, cps, item_or_opponent, targets=None):
    """Check a strong-belief obligation against a concrete belief system."""
    if targets is not None:
        item = strong_belief_mandate(game, player, "", item_or_opponent, targets)
    else:
        item = item_or_opponent
    for h, allowed in item.allowed.items():
        if cps.mass(h, allowed) != 1:
            return False
    return True


def sequential_best_reply(game, player, strategy, cps):
    """Def.-2 optimality: best at every own infoset the strategy reaches.
    Compares expected payoff numerators, all over the same denominator."""
    sp = space_for(game, player)
    for h in sp.infosets:
        if strategy.index in sp.alts[h]:
            row = cps.table[h]
            value = {
                s: sum((w * sp.numerators[s][t] for t, w in row.items()), ZERO)
                for s in sp.alts[h]
            }
            if max(value.values()) > value[strategy.index]:
                return False
    return True


def best_replies(game, player, cps):
    return [
        s
        for s in game.strategies(player)
        if sequential_best_reply(game, player, s, cps)
    ]


def clause_row(space, clause):
    """Flatten one restriction clause into (coefs over the event, op, rhs),
    with the clause's own lp operator and Fraction rhs. The engine, the
    parser's polytope check and the grid oracle all build clause rows here."""
    ev = space.event[clause.infoset]
    coefs = {}
    for t in ev:
        by_player = {s.player: s for s in space.combos[t]}
        acc = ZERO
        for coef, event in clause.terms:
            if event.matches(by_player):
                acc += coef
        if acc:
            coefs[t] = acc
    return coefs, clause.op, clause.rhs


def empty_restriction_infosets(game, player, clauses):
    """Infosets whose joint clause polytope is empty (within its simplex)."""
    sp = space_for(game, player)
    out = []
    for h, cls in clauses.items():
        if not cls:
            continue
        ev = sorted(sp.event[h])
        pos = {t: k for k, t in enumerate(ev)}
        rows = [([ONE] * len(ev), lp.EQ, ONE)]
        for cl in cls:
            coefs, op, rhs = clause_row(sp, cl)
            rows.append(({pos[t]: c for t, c in coefs.items()}, op, rhs))
        if lp.feasible(len(ev), rows) is None:
            out.append(h)
    return out


class _Bundle:
    """One slot's obligations, organized by event group.

    allowed: group index -> mask of the combos its conditional may charge
    (mandates and support clauses, intersected); rows: group index -> the
    other clause rows (coefs, op, rhs). A bundle holds no strategy: the
    strategy a query must make optimal is an argument of `_admissible`."""

    __slots__ = ("space", "allowed", "rows")

    def __init__(self, space):
        self.space = space
        self.allowed = {}
        self.rows = {}

    def restrict(self, gi, mask):
        cur = self.allowed.get(gi)
        self.allowed[gi] = mask if cur is None else (cur & mask)

    def add_mandates(self, items):
        group_of = self.space.group_of
        for item in items:
            for h, mask in item.masks.items():
                self.restrict(group_of[h], mask)

    def add_clauses(self, clauses):
        for h, cls in clauses.items():
            gi = self.space.group_of[h]
            for cl in cls:
                self.add_row(gi, *clause_row(self.space, cl))

    def add_row(self, gi, coefs, op, rhs):
        """One linear row on group gi's conditional; a row that only pins
        the support becomes an allowed set."""
        support = self._as_support(self.space.groups[gi].mask, coefs, op, rhs)
        if support is None:
            self.rows.setdefault(gi, []).append((coefs, op, rhs))
        else:
            self.restrict(gi, support)

    @staticmethod
    def _as_support(event, coefs, op, rhs):
        """Recognize clauses that just pin the support of the conditional.

        Unit-coefficient mass of 1 on a set M forces support inside M; mass
        of 0 forces support outside M. Returns the allowed mask or None.
        """
        if any(c != 1 for c in coefs.values()):
            return None
        hit = sum(1 << t for t in coefs)
        if rhs == 1 and op in (lp.EQ, lp.GE):
            return hit
        if rhs == 0 and op in (lp.EQ, lp.LE):
            return event & ~hit
        return None

    def satisfied_by(self, cps):
        """Exact check of every obligation against a concrete system."""
        sp = self.space
        for gi, mask in self.allowed.items():
            h = sp.groups[gi].infosets[0]
            if cps.mass(h, bits(mask)) != 1:
                return False
        for gi, rows in self.rows.items():
            h = sp.groups[gi].infosets[0]
            for coefs, op, rhs in rows:
                val = sum((cps.prob(h, t) * c for t, c in coefs.items()), ZERO)
                if not _holds(val, op, rhs):
                    return False
        return True


def _holds(val, op, rhs):
    if op == lp.LE:
        return val <= rhs
    if op == lp.GE:
        return val >= rhs
    return val == rhs


def _points(bundle):
    """(good, levels, first), the point data of a bundle: good[gi] is the
    mask of group gi's allowed combos at which mass 1 meets every clause
    row; levels is the point order, combos allowed by more groups first and
    ascending index within a level, as disjoint masks; first[gi] is group
    gi's first combo in that order."""
    space = bundle.space
    score = [0] * space.ncombos
    for mask in bundle.allowed.values():
        for t in bits(mask):
            score[t] += 1
    by_score = {}
    for t, k in enumerate(score):
        by_score[k] = by_score.get(k, 0) | (1 << t)
    levels = [by_score[k] for k in sorted(by_score, reverse=True)]
    good = []
    for g in space.groups:
        mask = bundle.allowed.get(g.index, g.mask)
        for coefs, op, rhs in bundle.rows.get(g.index, ()):
            for t in bits(mask):
                if not _holds(coefs.get(t, ZERO), op, rhs):
                    mask &= ~(1 << t)
        good.append(mask)
    first = [_first_in(g.mask, levels) for g in space.groups]
    return good, levels, first


def _point_witness(space, points, strategy_index):
    """A lexicographic point system satisfying the obligations behind the
    point data and making the strategy sequentially optimal, or None.

    Orderings are tried most promising first: combos allowed by more groups
    lead. The ordering led by t0 puts each group's mass on t0 when t0 is in
    its event, else on the group's first combo in the base ordering; so it
    passes iff each of those points is good for its group. One AND over the
    groups gives every passing t0; the witness is the first of them."""
    _good, levels, first = points
    passing = space.full
    for g, good in zip(space.groups, _good_points(space, points, strategy_index)):
        if good >> first[g.index] & 1:
            passing &= good | (space.full ^ g.mask)
        else:
            passing &= good
        if not passing:
            return None
    t0 = _first_in(passing, levels)
    table = {}
    for g in space.groups:
        point = {t0 if g.mask >> t0 & 1 else first[g.index]: ONE}
        for h in g.infosets:
            table[h] = point
    return ConditionalBeliefs(space, table)


def _good_points(space, points, strategy_index):
    """Per group, in the space's order, the mask of the combos t of its
    event at which mass 1 on t meets every obligation on the group: the
    allowed set and the clause rows behind the point data, and the
    strategy's rationality rows."""
    neg = space.sign_rows(strategy_index)[1]
    return [m & ~neg.get(gi, 0) for gi, m in enumerate(points[0])]


def _dominated(space, bundle, strategy_index):
    """True when some rationality row of the strategy is strictly negative
    at every combo its group may believe under the bundle: the allowed set,
    else the whole event. Mask algebra only; no LP."""
    allowed = bundle.allowed
    groups = space.groups
    for gi, neg in space.sign_rows(strategy_index)[0]:
        if not allowed.get(gi, groups[gi].mask) & ~neg:
            return True
    return False


class _Query:
    """A prepared query: one bundle per slot, the groups whose conditionals
    the slots share, and, when every allowed set of the merge of the slots
    is nonempty, the merge's point data (else None). A single system
    satisfies the merge iff it satisfies each slot, so a point system for
    the merge serves every slot at once. No strategy is part of it: each
    `_admissible` call names one."""

    __slots__ = ("space", "bundles", "shared", "empty", "points")

    def __init__(self, space, bundles, shared=frozenset()):
        for gi in shared:
            p = space.parent[gi]
            if p is not None and p not in shared:
                raise UnsupportedBeliefStructure(
                    "agreement events are not upward-closed in the inclusion forest"
                )
        self.space = space
        self.bundles = bundles
        self.shared = shared
        self.empty = not all(all(b.allowed.values()) for b in bundles)
        self.points = None
        if not self.empty:
            merged = _Bundle(space)
            for b in bundles:
                for gi, mask in b.allowed.items():
                    merged.restrict(gi, mask)
                for gi, rws in b.rows.items():
                    merged.rows.setdefault(gi, []).extend(rws)
            if all(merged.allowed.values()):
                self.points = _points(merged)


def _admissible(query, strategy_index=None):
    """The query pipeline behind every public query: one system per bundle
    (slot), equal on the shared groups, or None when none exists. The
    strategy, if any, must be sequentially optimal in the first slot.

    In order: an empty allowed set refutes at once; pure conditional
    dominance on one group refutes without an LP (sound because mandates
    and support clauses are folded into the allowed sets, so every
    admissible conditional of the group lives where the alternative is
    strictly better); a lexicographic point system satisfying every bundle
    serves all slots; last, the exact pattern LPs, whose answer is verified.
    Only refutations take the dominance exit, so witnesses do not depend on
    it.
    """
    space = query.space
    if query.empty:
        COUNTS["empty"] += 1
        return None
    if _dominated(space, query.bundles[0], strategy_index):
        COUNTS["dominated"] += 1
        return None
    if query.points is not None:
        cps = _point_witness(space, query.points, strategy_index)
        if cps is not None:
            COUNTS["point"] += 1
            return [cps] * len(query.bundles)
    found = _solve_patterns(space, query.bundles, strategy_index, query.shared)
    if found is None:
        COUNTS["patterns_refuted"] += 1
    else:
        COUNTS["patterns_kept"] += 1
        _verify(space, query.bundles, strategy_index, query.shared, found)
    return found


def _solve_patterns(space, bundles, strategy_index, shared):
    """Core search. bundles: one per slot; strategy_index: the strategy
    slot 0 must make optimal, or None; shared: group indices whose
    conditionals must coincide across slots. Returns a list of systems (one
    per slot) or None."""
    groups = space.groups
    nslots = len(bundles)
    order = [g.index for g in groups]  # already topological (size-sorted)

    # One assignment = for every slot and group, the block whose restriction
    # to the group's event carries the conditional. Blocks are created at
    # pattern roots, and a block's key ends with the index of that group;
    # shared blocks serve all slots.
    results = [None]

    def descend(k, block_of, fresh, zero_rows, eps_rows):
        if results[0] is not None:
            return
        if k == len(order):
            found = _solve_one(
                space, bundles, strategy_index, block_of, fresh, zero_rows, eps_rows
            )
            if found is not None:
                results[0] = found
            return
        gi = order[k]
        par = space.parent[gi]
        ev = groups[gi].mask
        # Per-slot flags: 1 inherits the parent's block (positive mass on the
        # event), 0 restarts on a fresh block (the parent gives the event zero
        # mass). Slots sharing one parent block choose together; roots
        # restart. A shared group never has diverged parents (upward closure
        # is checked when the query is prepared).
        if par is None:
            choices = [(0,) * nslots]
        elif len({block_of[(s, par)] for s in range(nslots)}) == 1:
            choices = [(1,) * nslots, (0,) * nslots]
        else:
            choices = product((1, 0), repeat=nslots)
        for flags in choices:
            if results[0] is not None:
                return
            b2 = dict(block_of)
            keys = []
            zr = list(zero_rows)
            er = list(eps_rows)
            for s in range(nslots):
                if flags[s]:
                    pb = block_of[(s, par)]
                    b2[(s, gi)] = pb
                    er.append((pb, ev))
                    continue
                key = ("sh", gi) if gi in shared else (s, gi)
                b2[(s, gi)] = key
                if key not in keys:
                    keys.append(key)
                if par is not None:
                    zr.append((block_of[(s, par)], ev))
            descend(k + 1, b2, fresh + keys, zr, er)

    descend(0, {}, [], [], [])
    return results[0]


def _solve_one(space, bundles, strategy_index, block_of, fresh, zero_rows, eps_rows):
    """The LP of one pattern. block_of: (slot, group index) -> the key of
    the block carrying that conditional; fresh: the block keys in column
    order; zero_rows, eps_rows: (block key, event mask) pairs, an event
    the block gives zero mass or at least the slack."""
    groups = space.groups

    # Each block's live combos: its group's event, less what a zero-mass
    # edge or an allowed set of a group it carries zeroes. Zeroed variables
    # are dropped from the program entirely rather than constrained.
    live = {key: groups[key[-1]].mask for key in fresh}
    for key, ev in zero_rows:
        live[key] &= ~ev
    for s, b in enumerate(bundles):
        for gi, mask in b.allowed.items():
            live[block_of[(s, gi)]] &= mask | ~groups[gi].mask

    cols = {}  # block key -> {combo: column}, ascending combos
    ncols = 0
    for key in fresh:
        if not live[key]:
            return None  # the block cannot carry any mass
        cols[key] = {t: ncols + k for k, t in enumerate(bits(live[key]))}
        ncols += len(cols[key])
    eps = ncols
    ncols += 1

    # Each distinct row goes to the simplex once, at its first place: a row
    # repeats for every alternative of one plan and for every infoset of a
    # group. A row the zeroed columns leave empty that holds is dropped.
    rows = []
    seen = set()

    def emit(r, op, rhs):
        if not r and _holds(ZERO, op, rhs):
            return
        mark = (tuple(sorted(r.items())), op, rhs)
        if mark not in seen:
            seen.add(mark)
            rows.append((r, op, rhs))

    for key in fresh:
        emit(dict.fromkeys(cols[key].values(), ONE), lp.EQ, ONE)

    for key, ev in eps_rows:
        r = {c: ONE for t, c in cols[key].items() if ev >> t & 1}
        if not r:
            return None  # positive mass demanded on a fully zeroed event
        r[eps] = -ONE
        emit(r, lp.GE, ZERO)
    emit({eps: ONE}, lp.LE, ONE)

    # Slot 0's rationality rows are the rows diff . P >= 0 on their groups,
    # after its clause rows; an int rhs keeps their coefficients ints.
    obligations = [list(b.rows.items()) for b in bundles]
    obligations[0] += [
        (gi, [(diff, lp.GE, 0) for diff in diffs])
        for gi, diffs in space.rationality_rows(strategy_index).items()
    ]
    for s, by_group in enumerate(obligations):
        for gi, rws in by_group:
            at = cols[block_of[(s, gi)]]
            ev = groups[gi].mask
            for coefs, op, rhs in rws:
                r = {}
                for t, col in at.items():
                    if ev >> t & 1:
                        c = coefs.get(t, ZERO) - rhs
                        if c:
                            r[col] = c
                emit(r, op, ZERO)

    x = lp.positive_max(ncols, {eps: ONE}, rows)
    if x is None:
        return None

    out = []
    for s in range(len(bundles)):
        table = {}
        for g in groups:
            at = cols[block_of[(s, g.index)]]
            vals = {t: x[c] for t, c in at.items() if g.mask >> t & 1 and x[c]}
            mass = sum(vals.values(), ZERO)
            conditional = {t: v / mass for t, v in vals.items()}
            for h in g.infosets:
                table[h] = conditional
        out.append(ConditionalBeliefs(space, table))
    return out


def _verify(sp, bundles, strategy_index, shared, systems):
    game, player = sp.game, sp.player
    for b, cps in zip(bundles, systems):
        bad = explain_invalid_cps(game, player, cps)
        if bad is not None:
            raise AssertionError("engine produced invalid system: %s" % bad)
        if not b.satisfied_by(cps):
            raise AssertionError("engine witness violates its obligations")
    if strategy_index is not None:
        s = game.strategies(player)[strategy_index]
        if not sequential_best_reply(game, player, s, systems[0]):
            raise AssertionError("engine witness is not optimal for %s" % s.name)
    for gi in shared:
        h = sp.groups[gi].infosets[0]
        first = systems[0].table[h]
        for cps in systems[1:]:
            if cps.table[h] != first:
                raise AssertionError("agreement violated at %s" % h)


def exists_admissible_cps(
    game, player, strategy, mandates=(), restrictions=None, keys=None
):
    """Witness CPS under which the strategy is a sequential best reply, all
    mandates hold, and every conditional satisfies the restriction clauses.
    Returns None when no such system exists. `keys` is the mandates' set of
    keys when the caller already holds it; it is built here otherwise.

    Raises EmptyPolytope when some infoset's clauses alone are unsatisfiable;
    that is a property of the restrictions, not of the strategy.
    """
    if keys is None:
        keys = frozenset(it.key() for it in mandates)
    sp = space_for(game, player)
    found = _ask(sp, strategy, [mandates], (keys,), _clause_map(player, restrictions))
    return None if found is None else found[0]


def _ask(sp, strategy, slots, keys, clauses, shared=frozenset()):
    """One system per slot, equal on the shared groups, the first making
    the strategy sequentially optimal, or None. slots: each slot's mandate
    list, and keys their sets of keys; the clause map binds the last slot.
    The prepared query is cached on the space under the keys, the clause
    map and the shared groups. On a refusal, raises EmptyPolytope if the
    clauses alone admit no belief at some infoset."""
    ckey = _clause_key(clauses)
    key = (keys, ckey, shared)
    query = sp._queries.get(key)
    if query is None:
        bundles = [_Bundle(sp) for _ in slots]
        for bundle, mandates in zip(bundles, slots):
            bundle.add_mandates(mandates)
        bundles[-1].add_clauses(clauses)
        query = sp._queries[key] = _Query(sp, bundles, shared)
    found = _admissible(query, strategy.index)
    if found is None:
        _raise_if_empty(sp, clauses, ckey)
    return found


def _clause_map(player, restrictions):
    if restrictions is None:
        return {}
    if hasattr(restrictions, "clauses_for"):
        return restrictions.clauses_for(player)
    return restrictions


def _clause_key(clauses):
    """Identifies a clause map: its nonempty infosets and clause objects."""
    return tuple((h, tuple(cls)) for h, cls in clauses.items() if cls)


def _raise_if_empty(sp, clauses, key):
    """Raise EmptyPolytope for the first infoset whose clauses admit no
    distribution. Checked only after a query fails: any witness satisfies
    every clause, so an empty polytope cannot coexist with one. The answer
    depends only on the player and the clauses, so it is memoized on the
    belief space per clause map."""
    if not key:
        return
    memo = sp._empty
    if key not in memo:
        empty = empty_restriction_infosets(sp.game, sp.player, clauses)
        memo[key] = empty[0] if empty else None
    if memo[key] is not None:
        raise EmptyPolytope(sp.player, memo[key])


def coupled_admissible_pair(
    game,
    player,
    strategy,
    mu_mandates,
    bar_mandates,
    bar_restrictions,
    agreement_infosets,
):
    """Two belief systems (mu, bar) with equal conditionals on the agreement
    events; the strategy must be optimal under mu; bar carries the clause
    polytopes and its own mandates. Returns (mu, bar) or None."""
    sp = space_for(game, player)
    shared = frozenset(sp.group_of[h] for h in agreement_infosets)
    slots = [mu_mandates, bar_mandates]
    keys = tuple(frozenset(it.key() for it in mandates) for mandates in slots)
    clauses = _clause_map(player, bar_restrictions)
    found = _ask(sp, strategy, slots, keys, clauses, shared)
    return None if found is None else tuple(found)


def cps_in_agreement_closure(
    game, player, cps, bar_mandates, bar_restrictions, agreement_infosets
):
    """Does some system satisfying the bar obligations agree with the given
    one on every agreement event? Implements implicit restriction membership.

    Agreement pins each agreement group's conditional by one clause row
    P(t) = w per combo t of its event (w read at the group's first listed
    infoset); a 0/1 weight becomes an allowed set."""
    sp = space_for(game, player)
    bar = _Bundle(sp)
    bar.add_mandates(bar_mandates)
    bar.add_clauses(_clause_map(player, bar_restrictions))
    pinned = set()
    for h in agreement_infosets:
        gi = sp.group_of[h]
        if gi in pinned:
            continue
        pinned.add(gi)
        for t in bits(sp.groups[gi].mask):
            bar.add_row(gi, {t: ONE}, lp.EQ, Fraction(cps.prob(h, t)))
    return _admissible(_Query(sp, [bar])) is not None
