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
all its mass where the alternative is strictly better (Pearce 1984). Both
early exits are exact comparisons and set lookups, with no LP; only the
point and pattern steps produce witnesses. `COUNTS` records which step
after the allowed-set check settled each query.

Payoffs come from the game's exact payoff table (`GameTree.payoff_table`),
built in one walk of the tree: per player, Python-int numerators over the
strategy profiles and one common denominator L > 0. A rationality row is
the difference of two integer rows, L * (u(s, .) - u(alt, .)). Dominance
and point checks read its signs, and the optimality checks compare two
expectations under the same weights, so the factor L changes none of them.
The pattern LP takes the integer rows as they are: it stores every row as
coprime integers, so a row scaled by L > 0 is the same row to the simplex.

The same machinery answers a coupled query used when restrictions are given
implicitly as "agrees on a set of events with some member of a smaller CPS
set": two belief systems, each with its own obligations, tied together by
equality of conditionals on a Hasse-upward-closed set of groups. Membership
in such a closure is a one-system query that pins the given conditionals on
the agreement events as clause rows P(t) = w. Every obligation is an allowed
set or a linear row on one event group's conditional.
"""

from fractions import Fraction
from itertools import product

from . import lp

ZERO = Fraction(0)
ONE = Fraction(1)

# How `_admissible` settled its queries past the empty-allowed-set check: by
# pure conditional dominance ("dominated"), by a lexicographic point system
# ("point"), or by the pattern LPs ("patterns_kept", "patterns_refuted").
COUNTS = dict.fromkeys(
    ("dominated", "point", "patterns_kept", "patterns_refuted"), 0
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
    """Derived belief-side structure for one player: events, groups, forest."""

    def __init__(self, game, player):
        self.game = game
        self.player = player
        self.opponents = tuple(p for p in game.players if p != player)
        self.opp_pos = {p: k for k, p in enumerate(self.opponents)}

        self.combos = tuple(product(*(game.strategies(j) for j in self.opponents)))
        self.index_of = {
            tuple(s.index for s in combo): t for t, combo in enumerate(self.combos)
        }

        self.infosets = tuple(game.player_infosets[player])
        self.event = {}
        for h in self.infosets:
            idxs = frozenset(
                self.index_of[tuple(s.index for s in combo)]
                for combo in game.joint_reaching(player, h)
            )
            self.event[h] = idxs

        # Groups: one per distinct event, in a fixed topological order
        # (larger events first, so parents precede children).
        by_event = {}
        for h in self.infosets:
            by_event.setdefault(self.event[h], []).append(h)
        keys = sorted(by_event, key=lambda ev: (-len(ev), sorted(ev)))
        self.groups = [
            _Group(k, ev, tuple(by_event[ev]), tuple(sorted(ev)))
            for k, ev in enumerate(keys)
        ]
        self.group_of = {}
        for g in self.groups:
            for h in g.infosets:
                self.group_of[h] = g.index

        self.parent = [None] * len(self.groups)
        for g in self.groups:
            supers = [g2 for g2 in self.groups if g.event < g2.event]
            minimal = [
                g2
                for g2 in supers
                if not any(g3.event < g2.event for g3 in supers)
            ]
            if len(minimal) > 1:
                raise UnsupportedBeliefStructure(
                    "event of %s has several minimal supersets" % (g.infosets[0],)
                )
            if minimal:
                self.parent[g.index] = minimal[0].index

        # Own reachability per infoset, as index sets.
        self.reach = {
            h: frozenset(s.index for s in game.strategies_reaching(player, h))
            for h in self.infosets
        }
        # numerators[s][t] / L = u_i(own strategy s, combo t), with L > 0
        # the payoff table's denominator for the player.
        self.numerators = game.payoff_table().rows(player)
        self._rationality = {}
        self._empty = {}  # clause map -> first empty infoset or None

    def rationality_rows(self, own_index):
        """(group index, diff) for every own infoset the strategy reaches and
        every alternative there, where diff[t] = L * (u(own, t) - u(alt, t))
        over the infoset's event, an integer, nonzero entries only. L > 0 is
        the table's denominator, so signs and comparisons of sums with equal
        weights are those of the payoff differences. Cached; callers must
        not mutate the diffs."""
        rows = self._rationality.get(own_index)
        if rows is None:
            mine = self.numerators[own_index]
            rows = []
            for h in self.infosets:
                if own_index not in self.reach[h]:
                    continue
                for alt in sorted(self.reach[h]):
                    if alt == own_index:
                        continue
                    other = self.numerators[alt]
                    diff = {
                        t: mine[t] - other[t] for t in self.event[h] if mine[t] != other[t]
                    }
                    rows.append((self.group_of[h], diff))
            self._rationality[own_index] = rows
        return rows

    def combo_label(self, t):
        return ",".join(
            "%s=%s" % (j, s.name) for j, s in zip(self.opponents, self.combos[t])
        )


class _Group:
    __slots__ = ("index", "event", "infosets", "csorted")

    def __init__(self, index, event, infosets, csorted):
        self.index = index
        self.event = event
        self.infosets = infosets
        self.csorted = csorted


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
    return space.index_of[
        tuple(s if isinstance(s, int) else s.index for s in combo)
    ]


def lexicographic_cps(game, player, order):
    """The CPS putting mass 1, at each infoset, on the first order entry in
    its conditioning event. Valid for every ordering of all opponent combos."""
    sp = space_for(game, player)
    seen = list(order)
    taken = set(seen)
    rest = [t for t in range(len(sp.combos)) if t not in taken]
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
                raise DomainMismatch("mass outside conditioning event at %s" % (h,))
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
    (the obligation is inactive there)."""

    __slots__ = ("label", "allowed")

    def __init__(self, label, allowed):
        self.label = label
        self.allowed = {h: frozenset(ts) for h, ts in allowed.items()}

    def key(self):
        return tuple(sorted((h, tuple(sorted(ts))) for h, ts in self.allowed.items()))

    def __repr__(self):
        return "MandateItem(%r)" % (self.label,)


def strong_belief_mandate(game, player, label, opponent, targets):
    """Strong belief in a set of one opponent's strategies.

    Active at h iff some target strategy of the opponent allows h; there the
    allowed combos are those whose opponent component is a target.
    """
    sp = space_for(game, player)
    tset = frozenset(s.index for s in targets)
    jpos = sp.opp_pos[opponent]
    allowed = {}
    for h in sp.infosets:
        reach_j = frozenset(
            s.index for s in game.strategies_reaching(opponent, h)
        )
        if not (tset & reach_j):
            continue
        allowed[h] = frozenset(
            t for t in sp.event[h] if sp.combos[t][jpos].index in tset
        )
    return MandateItem(label, allowed)


def joint_strong_belief_mandate(game, player, label, targets_by_player):
    """Correlated variant: strong belief in the product of opponent sets,
    active where the joint set meets the conditioning event."""
    sp = space_for(game, player)
    tsets = {
        sp.opp_pos[j]: frozenset(s.index for s in ss)
        for j, ss in targets_by_player.items()
    }
    hits = frozenset(
        t
        for t in range(len(sp.combos))
        if all(sp.combos[t][pos].index in ts for pos, ts in tsets.items())
    )
    allowed = {}
    for h in sp.infosets:
        inter = hits & sp.event[h]
        if inter:
            allowed[h] = inter
    return MandateItem(label, allowed)


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
        if strategy.index in sp.reach[h]:
            row = cps.table[h]
            value = {
                s: sum((w * sp.numerators[s][t] for t, w in row.items()), ZERO)
                for s in sp.reach[h]
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
    """Per-slot obligations, organized by event group."""

    def __init__(self, space):
        self.space = space
        self.allowed = {}       # group index -> set of combos (intersection)
        self.rows = {}          # group index -> [(coefs, op, rhs)]
        self.rationality = {}   # group index -> [diff coef dicts, >= 0]
        self.strategy_index = None

    def restrict(self, gi, ts):
        cur = self.allowed.get(gi)
        self.allowed[gi] = set(ts) if cur is None else (cur & ts)

    def add_mandates(self, items):
        for item in items:
            for h, ts in item.allowed.items():
                self.restrict(self.space.group_of[h], ts)

    def add_clauses(self, clauses):
        for h, cls in clauses.items():
            gi = self.space.group_of[h]
            for cl in cls:
                self.add_row(gi, *clause_row(self.space, cl))

    def add_row(self, gi, coefs, op, rhs):
        """One linear row on group gi's conditional; a row that only pins
        the support becomes an allowed set."""
        support = self._as_support(self.space.groups[gi].event, coefs, op, rhs)
        if support is None:
            self.rows.setdefault(gi, []).append((coefs, op, rhs))
        else:
            self.restrict(gi, support)

    @staticmethod
    def _as_support(event, coefs, op, rhs):
        """Recognize clauses that just pin the support of the conditional.

        Unit-coefficient mass of 1 on a set M forces support inside M; mass
        of 0 forces support outside M. Returns the allowed set or None.
        """
        if any(c != 1 for c in coefs.values()):
            return None
        hit = frozenset(coefs)
        if rhs == 1 and op in (lp.EQ, lp.GE):
            return hit
        if rhs == 0 and op in (lp.EQ, lp.LE):
            return frozenset(event) - hit
        return None

    def add_rationality(self, strategy_index):
        self.strategy_index = strategy_index
        for gi, diff in self.space.rationality_rows(strategy_index):
            self.rationality.setdefault(gi, []).append(diff)

    def satisfied_by(self, cps):
        """Exact check of every obligation against a concrete system."""
        sp = self.space
        for gi, ts in self.allowed.items():
            h = sp.groups[gi].infosets[0]
            if cps.mass(h, ts) != 1:
                return False
        for gi, rows in self.rows.items():
            h = sp.groups[gi].infosets[0]
            for coefs, op, rhs in rows:
                val = sum((cps.prob(h, t) * c for t, c in coefs.items()), ZERO)
                if not _holds(val, op, rhs):
                    return False
        for gi, diffs in self.rationality.items():
            h = sp.groups[gi].infosets[0]
            for diff in diffs:
                if sum((cps.prob(h, t) * d for t, d in diff.items()), ZERO) < 0:
                    return False
        return True


def _holds(val, op, rhs):
    if op == lp.LE:
        return val <= rhs
    if op == lp.GE:
        return val >= rhs
    return val == rhs


def _merged(space, bundles):
    """One bundle holding every obligation of the given ones.

    A single system satisfies the merge iff it satisfies each bundle, so it
    can serve every slot at once."""
    merged = _Bundle(space)
    for b in bundles:
        for gi, ts in b.allowed.items():
            merged.restrict(gi, ts)
        for gi, rws in b.rows.items():
            merged.rows.setdefault(gi, []).extend(rws)
        for gi, diffs in b.rationality.items():
            merged.rationality.setdefault(gi, []).extend(diffs)
    return merged


def _point_witness(space, bundle):
    """A lexicographic point system satisfying the bundle, or None.

    Orderings are tried most promising first: combos allowed by more groups
    lead. The ordering led by t0 puts each group's mass on t0 when t0 is in
    its event, else on the group's first combo in the base ordering; so it
    passes iff each of those points is good for its group."""
    n = len(space.combos)
    score = [0] * n
    for ts in bundle.allowed.values():
        for t in ts:
            score[t] += 1
    base = sorted(range(n), key=lambda t: (-score[t], t))
    checks = []
    for g in space.groups:
        first = next(t for t in base if t in g.event)
        good = _good_points(bundle, g)
        checks.append((g, first, good, first in good))
    for t0 in base:
        if all(t0 in good if t0 in g.event else first_ok
               for g, _first, good, first_ok in checks):
            table = {}
            for g, first, _good, _ok in checks:
                point = {t0 if t0 in g.event else first: ONE}
                for h in g.infosets:
                    table[h] = point
            return ConditionalBeliefs(space, table)
    return None


def _good_points(bundle, g):
    """The combos t of group g's event at which mass 1 on t meets every
    obligation of the bundle on g: the allowed set, the clause rows and
    the rationality rows."""
    allowed = bundle.allowed.get(g.index)
    good = set(g.event if allowed is None else g.event & allowed)
    for diff in bundle.rationality.get(g.index, ()):
        good.difference_update([t for t, d in diff.items() if d < 0])
    for coefs, op, rhs in bundle.rows.get(g.index, ()):
        good = {t for t in good if _holds(coefs.get(t, ZERO), op, rhs)}
    return good


def _dominated(space, bundle):
    """True when some rationality row of the bundle is strictly negative at
    every combo its group may believe: the allowed set, else the whole
    event. Exact comparisons only; no LP."""
    for gi, diffs in bundle.rationality.items():
        ts = bundle.allowed.get(gi)
        if ts is None:
            ts = space.groups[gi].event
        for diff in diffs:
            if all(diff.get(t, 0) < 0 for t in ts):
                return True
    return False


def _admissible(game, player, bundles, shared=frozenset()):
    """The query pipeline behind every public query: one system per bundle
    (slot), equal on the shared groups, or None when none exists.

    Agreement events that are not upward-closed are refused first. Then, in
    order: an empty allowed set refutes at once; pure conditional dominance
    on one group refutes without an LP (sound because mandates and support
    clauses are folded into the allowed sets, so every admissible
    conditional of the group lives where the alternative is strictly
    better); a lexicographic point system satisfying every bundle serves all
    slots; last, the exact pattern LPs, whose answer is verified. Only
    refutations take the dominance exit, so witnesses do not depend on it.
    """
    space = space_for(game, player)
    for gi in shared:
        p = space.parent[gi]
        if p is not None and p not in shared:
            raise UnsupportedBeliefStructure(
                "agreement events are not upward-closed in the inclusion forest"
            )
    for b in bundles:
        if not all(b.allowed.values()):
            return None
    for b in bundles:
        if _dominated(space, b):
            COUNTS["dominated"] += 1
            return None
    merged = _merged(space, bundles)
    if all(merged.allowed.values()):
        cps = _point_witness(space, merged)
        if cps is not None:
            COUNTS["point"] += 1
            return [cps] * len(bundles)
    found = _solve_patterns(space, bundles, shared)
    if found is None:
        COUNTS["patterns_refuted"] += 1
    else:
        COUNTS["patterns_kept"] += 1
        _verify(game, player, bundles, shared, found)
    return found


def _solve_patterns(space, bundles, shared):
    """Core search. bundles: one per slot; shared: group indices whose
    conditionals must coincide across slots. Returns a list of systems (one
    per slot) or None."""
    groups = space.groups
    nslots = len(bundles)
    order = [g.index for g in groups]  # already topological (size-sorted)

    # One assignment = for every slot and group, the block whose restriction
    # to the group's event carries the conditional. Blocks are created at
    # pattern roots; shared blocks serve all slots.
    results = [None]

    def descend(k, block_of, fresh, zero_rows, eps_rows):
        if results[0] is not None:
            return
        if k == len(order):
            found = _solve_one(space, bundles, block_of, fresh, zero_rows, eps_rows)
            if found is not None:
                results[0] = found
            return
        gi = order[k]
        par = space.parent[gi]
        ev = groups[gi].event
        # Per-slot flags: 1 inherits the parent's block (positive mass on the
        # event), 0 restarts on a fresh block (the parent gives the event zero
        # mass). Slots sharing one parent block choose together; roots
        # restart. A shared group never has diverged parents (upward closure
        # is checked in _admissible).
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


def _solve_one(space, bundles, block_of, fresh, zero_rows, eps_rows):
    groups = space.groups
    nslots = len(bundles)

    block_group = {key: key[1] for key in fresh}

    # Variables forced to zero (pattern zero-mass edges, support mandates)
    # are dropped from the program entirely rather than constrained.
    zeroed = set()
    for key, ev in zero_rows:
        for t in ev:
            zeroed.add((key, t))
    for s, b in enumerate(bundles):
        for gi, ts in b.allowed.items():
            key = block_of[(s, gi)]
            for t in groups[gi].event - ts:
                zeroed.add((key, t))

    cols = {}
    ncols = 0
    for key in fresh:
        live = [
            t for t in groups[block_group[key]].csorted if (key, t) not in zeroed
        ]
        if not live:
            return None  # the block cannot carry any mass
        for t in live:
            cols[(key, t)] = ncols
            ncols += 1
    eps = ncols
    ncols += 1

    def term(key, t):
        return cols.get((key, t))

    rows = []
    for key in fresh:
        r = {}
        for t in groups[block_group[key]].csorted:
            c = term(key, t)
            if c is not None:
                r[c] = ONE
        rows.append((r, lp.EQ, ONE))

    seen_eps = set()
    for key, ev in eps_rows:
        mark = (key, tuple(sorted(ev)))
        if mark in seen_eps:
            continue
        seen_eps.add(mark)
        r = {}
        for t in ev:
            c = term(key, t)
            if c is not None:
                r[c] = ONE
        if not r:
            return None  # positive mass demanded on a fully zeroed event
        r[eps] = -ONE
        rows.append((r, lp.GE, ZERO))
    rows.append(({eps: ONE}, lp.LE, ONE))

    for s, b in enumerate(bundles):
        for gi, rws in b.rows.items():
            key = block_of[(s, gi)]
            ev = groups[gi].event
            for coefs, op, rhs in rws:
                r = {}
                for t in ev:
                    c = coefs.get(t, ZERO) - rhs
                    if not c:
                        continue
                    col = term(key, t)
                    if col is not None:
                        r[col] = c
                rows.append((r, op, ZERO))
        for gi, diffs in b.rationality.items():
            key = block_of[(s, gi)]
            for diff in diffs:
                r = {}
                for t, d in diff.items():
                    col = term(key, t)
                    if col is not None:
                        r[col] = d
                rows.append((r, lp.GE, ZERO))

    x = lp.positive_max(ncols, {eps: ONE}, rows)
    if x is None:
        return None

    out = []
    for s in range(nslots):
        table = {}
        for g in groups:
            key = block_of[(s, g.index)]
            vals = {}
            for t in g.csorted:
                col = term(key, t)
                if col is not None and x[col]:
                    vals[t] = x[col]
            mass = sum(vals.values(), ZERO)
            conditional = {t: v / mass for t, v in vals.items()}
            for h in g.infosets:
                table[h] = conditional
        out.append(ConditionalBeliefs(space, table))
    return out


def _verify(game, player, bundles, shared, systems):
    sp = space_for(game, player)
    for b, cps in zip(bundles, systems):
        bad = explain_invalid_cps(game, player, cps)
        if bad is not None:
            raise AssertionError("engine produced invalid system: %s" % bad)
        if not b.satisfied_by(cps):
            raise AssertionError("engine witness violates its obligations")
        if b.strategy_index is not None:
            s = game.strategies(player)[b.strategy_index]
            if not sequential_best_reply(game, player, s, cps):
                raise AssertionError("engine witness is not optimal for %s" % s.name)
    for gi in shared:
        h = sp.groups[gi].infosets[0]
        first = systems[0].table[h]
        for cps in systems[1:]:
            if cps.table[h] != first:
                raise AssertionError("agreement violated at %s" % h)


def exists_admissible_cps(game, player, strategy, mandates=(), restrictions=None):
    """Witness CPS under which the strategy is a sequential best reply, all
    mandates hold, and every conditional satisfies the restriction clauses.
    Returns None when no such system exists.

    Raises EmptyPolytope when some infoset's clauses alone are unsatisfiable;
    that is a property of the restrictions, not of the strategy.
    """
    clauses = _clause_map(game, player, restrictions)
    bundle = _Bundle(space_for(game, player))
    bundle.add_mandates(mandates)
    bundle.add_clauses(clauses)
    bundle.add_rationality(strategy.index)
    found = _admissible(game, player, [bundle])
    if found is None:
        _raise_if_empty(game, player, clauses)
        return None
    return found[0]


def _clause_map(game, player, restrictions):
    if restrictions is None:
        return {}
    if hasattr(restrictions, "clauses_for"):
        return restrictions.clauses_for(player)
    return restrictions


def _raise_if_empty(game, player, clauses):
    """Raise EmptyPolytope for the first infoset whose clauses admit no
    distribution. Checked only after a query fails: any witness satisfies
    every clause, so an empty polytope cannot coexist with one. The answer
    depends only on the player and the clauses, so it is memoized on the
    belief space per clause map."""
    key = tuple((h, tuple(cls)) for h, cls in clauses.items() if cls)
    if not key:
        return
    memo = space_for(game, player)._empty
    if key not in memo:
        empty = empty_restriction_infosets(game, player, clauses)
        memo[key] = empty[0] if empty else None
    if memo[key] is not None:
        raise EmptyPolytope(player, memo[key])


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
    clauses = _clause_map(game, player, bar_restrictions)

    mu = _Bundle(sp)
    mu.add_mandates(mu_mandates)
    mu.add_rationality(strategy.index)

    bar = _Bundle(sp)
    bar.add_mandates(bar_mandates)
    bar.add_clauses(clauses)

    shared = frozenset(sp.group_of[h] for h in agreement_infosets)
    found = _admissible(game, player, [mu, bar], shared)
    if found is None:
        _raise_if_empty(game, player, clauses)
        return None
    return found[0], found[1]


def cps_in_agreement_closure(
    game, player, cps, bar_mandates, bar_restrictions, agreement_infosets
):
    """Does some system satisfying the bar obligations agree with the given
    one on every agreement event? Implements implicit restriction membership.

    Agreement pins each agreement group's conditional by one clause row
    P(t) = w per combo t of its event (w read at the group's first listed
    infoset); a 0/1 weight becomes an allowed set."""
    sp = space_for(game, player)
    clauses = _clause_map(game, player, bar_restrictions)
    bar = _Bundle(sp)
    bar.add_mandates(bar_mandates)
    bar.add_clauses(clauses)
    pinned = set()
    for h in agreement_infosets:
        gi = sp.group_of[h]
        if gi in pinned:
            continue
        pinned.add(gi)
        for t in sp.groups[gi].csorted:
            bar.add_row(gi, {t: ONE}, lp.EQ, Fraction(cps.prob(h, t)))
    return _admissible(game, player, [bar]) is not None
