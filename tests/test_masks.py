"""The mask kernel of `beliefs` against a plain set-based reference.

The reference below decides dominance, good points and the lexicographic
point witness the way the engine did before its sets became bitmasks:
Python sets of combo indices and exact payoff differences. Random games,
strategies, mandates and clause rows must get the same answers from both.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fisolve import beliefs, dsl, lp, randgen
from fisolve.model import bits


# -- the set-based reference -------------------------------------------------


def event(g):
    """The combo indices of an event group's event."""
    return frozenset(bits(g.mask))


class RefBundle:
    """allowed: group index -> set; rows: group index -> [(coefs, op, rhs)];
    rationality: group index -> [diff dicts], diff[t] = L * (u(s,t) - u(a,t))."""

    def __init__(self, space):
        self.space = space
        self.allowed = {}
        self.rows = {}
        self.rationality = {}

    def restrict(self, gi, ts):
        cur = self.allowed.get(gi)
        self.allowed[gi] = set(ts) if cur is None else (cur & set(ts))

    def add_row(self, gi, coefs, op, rhs):
        group_event = event(self.space.groups[gi])
        if all(c == 1 for c in coefs.values()):
            if rhs == 1 and op in (lp.EQ, lp.GE):
                self.restrict(gi, set(coefs))
                return
            if rhs == 0 and op in (lp.EQ, lp.LE):
                self.restrict(gi, set(group_event) - set(coefs))
                return
        self.rows.setdefault(gi, []).append((coefs, op, rhs))

    def add_rationality(self, s):
        sp = self.space
        u = sp.numerators
        for h in sp.infosets:
            if s not in sp.alts[h]:
                continue
            for alt in sp.alts[h]:
                if alt != s:
                    diff = {t: u[s][t] - u[alt][t] for t in sp.event[h] if u[s][t] != u[alt][t]}
                    self.rationality.setdefault(sp.group_of[h], []).append(diff)


def ref_dominated(space, b):
    for gi, diffs in b.rationality.items():
        ts = b.allowed.get(gi, event(space.groups[gi]))
        if any(all(diff.get(t, 0) < 0 for t in ts) for diff in diffs):
            return True
    return False


def ref_good_points(b, g):
    allowed = b.allowed.get(g.index)
    good = set(event(g) if allowed is None else event(g) & allowed)
    for diff in b.rationality.get(g.index, ()):
        good.difference_update(t for t, d in diff.items() if d < 0)
    for coefs, op, rhs in b.rows.get(g.index, ()):
        good = {t for t in good if beliefs._holds(coefs.get(t, 0), op, rhs)}
    return good


def ref_point_witness(space, b):
    """{infoset: combo} of the first passing ordering, or None."""
    n = len(space.combos)
    score = [0] * n
    for ts in b.allowed.values():
        for t in ts:
            score[t] += 1
    base = sorted(range(n), key=lambda t: (-score[t], t))
    checks = []
    for g in space.groups:
        first = next(t for t in base if t in event(g))
        good = ref_good_points(b, g)
        checks.append((g, first, good, first in good))
    for t0 in base:
        if all(t0 in good if t0 in event(g) else ok for g, _first, good, ok in checks):
            return {
                h: (t0 if t0 in event(g) else first)
                for g, first, _good, _ok in checks
                for h in g.infosets
            }
    return None


def mask(ts):
    return sum(1 << t for t in ts)


# -- random obligations ------------------------------------------------------


def random_obligations(rng, game, player):
    """Strong belief in random subsets of opponents' strategies, as
    (opponent, targets) pairs, and clause rows (support pins and general
    linear rows) at random event groups."""
    sp = beliefs.space_for(game, player)
    beliefs_in = []
    for j in sp.opponents:
        if rng.random() < 0.6:
            ss = game.strategies(j)
            beliefs_in.append((j, rng.sample(ss, rng.randint(1, len(ss)))))
    rows = []
    for _ in range(rng.randint(0, 3)):
        g = rng.choice(sp.groups)
        combos = bits(g.mask)
        ts = rng.sample(combos, rng.randint(1, len(combos)))
        if rng.random() < 0.5:
            coefs = {t: Fraction(1) for t in ts}
            rhs = Fraction(rng.choice((0, 1)))
        else:
            coefs = {t: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for t in ts}
            rhs = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        rows.append((g.index, {t: c for t, c in coefs.items() if c}, rng.choice(lp._OPS), rhs))
    return beliefs_in, rows


def ref_strong_belief(sp, game, opponent, targets):
    """The reference's allowed sets of strong belief in `targets`."""
    tset = {s.index for s in targets}
    pos = sp.opp_pos[opponent]
    out = {}
    for h in sp.infosets:
        if tset & {s.index for s in game.strategies_reaching(opponent, h)}:
            out[h] = {t for t in sp.event[h] if sp.combos[t][pos].index in tset}
    return out


@given(seed=st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_mask_kernel_matches_the_set_reference(seed):
    rng = random.Random(seed)
    game = randgen.random_game(seed, max_strategies=6)
    player = rng.choice([p for p in game.players if game.player_infosets[p]])
    sp = beliefs.space_for(game, player)
    beliefs_in, rows = random_obligations(rng, game, player)

    ref = RefBundle(sp)
    bundle = beliefs._Bundle(sp)
    for opponent, targets in beliefs_in:
        for h, ts in ref_strong_belief(sp, game, opponent, targets).items():
            ref.restrict(sp.group_of[h], ts)
        bundle.add_mandates(
            [beliefs.strong_belief_mandate(game, player, "", opponent, targets)]
        )
    for gi, coefs, op, rhs in rows:
        ref.add_row(gi, coefs, op, rhs)
        bundle.add_row(gi, coefs, op, rhs)
    s = rng.choice(game.strategies(player)).index
    ref.add_rationality(s)

    assert bundle.allowed == {gi: mask(ts) for gi, ts in ref.allowed.items()}
    assert beliefs._dominated(sp, bundle, s) == ref_dominated(sp, ref)
    points = beliefs._points(bundle)
    assert beliefs._good_points(sp, points, s) == [
        mask(ref_good_points(ref, g)) for g in sp.groups
    ]
    if all(ref.allowed.values()):
        cps = beliefs._point_witness(sp, points, s)
        want = ref_point_witness(sp, ref)
        if want is None:
            assert cps is None
        else:
            assert cps.table == {h: {t: 1} for h, t in want.items()}


# -- exactness ---------------------------------------------------------------

# Ann's payoffs straddle 2**63 = 9223372036854775808 and differ by 1, or by
# 1/2 on M: a float or a wrapped int64 would get the signs wrong. Z loses to
# U by exactly 1 at both of Bob's choices.
HUGE = """
game huge
players Ann Bob
tree
  node root owner Ann
    U -> node b1 owner Bob
      L -> leaf (9223372036854775809, 0)
      R -> leaf (9223372036854775808, 0)
    D -> node b2 owner Bob
      L -> leaf (9223372036854775808, 0)
      R -> leaf (9223372036854775809, 0)
    M -> node b3 owner Bob
      L -> leaf (18446744073709551617/2, 0)
      R -> leaf (18446744073709551617/2, 0)
    Z -> node b4 owner Bob
      L -> leaf (9223372036854775808, 0)
      R -> leaf (9223372036854775807, 0)
infosets
  a: Ann { root }
  b: Bob { b1 b2 b3 b4 }
"""


def test_sign_masks_are_exact_beyond_int64():
    game = dsl.parse_game(HUGE)
    sp = beliefs.space_for(game, "Ann")
    names = {s.index: s.name for s in game.strategies("Ann")}
    bob = game.strategies("Bob")
    for s in names:
        for a in names:
            want = 0
            for t in range(len(sp.combos)):
                prof = {"Ann": game.strategies("Ann")[s], "Bob": bob[t]}
                alt = {"Ann": game.strategies("Ann")[a], "Bob": bob[t]}
                if game.payoff("Ann", prof) < game.payoff("Ann", alt):
                    want |= 1 << t
            assert sp.lt(s, a) == want, (names[s], names[a])
    by_name = {s.name: s for s in game.strategies("Ann")}
    beliefs.reset_counts()
    assert beliefs.exists_admissible_cps(game, "Ann", by_name["Z"]) is None
    assert beliefs.COUNTS["dominated"] == 1
    for name in ("U", "D", "M"):
        assert beliefs.exists_admissible_cps(game, "Ann", by_name[name]) is not None
