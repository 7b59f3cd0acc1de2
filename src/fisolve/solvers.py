"""Iterated elimination procedures over admissible belief systems.

One kernel drives everything. A procedure is a start profile (one strategy
set per player), a profile of belief restrictions (linear clauses, or an
implicit closure described below), and a gate: extra strong-belief
obligations applied at every round. Each round keeps a strategy iff some
admissible system exists for it: sequentially optimal, strongly believing
every earlier round's survivors of each opponent separately, satisfying the
gate and the restrictions. All players update simultaneously; the fixed
point is certified by one confirmation round and always arrives within
1 + total strategy count rounds.

Round n's obligations for a player are strong belief in the survivors of
rounds 0 .. n-1: per round, one item per opponent whose set is not full
(one joint item over the product when correlated), skipping an item whose
key is already listed. The solve carries each player's list forward, so
round n appends only round n-1's items, and the gate's list, built once in
the same way with labels prefixed "base ", follows it.

Decisions are made per plan. Two strategies of a player are realization
equivalent when they reach the same leaf against every opponent profile
(`PayoffTable.plans`); such a class is a plan, represented by its lowest
index. Members of a plan have equal payoff rows and reach the same
infosets, so they face the same optimality conditions: every query, in the
rounds and in the re-queries that name a reason, is asked once per plan,
for its representative, and every member shares its answer, witness and
reason. The pattern LPs behind a query see each distinct row once (see
`beliefs._solve_one`), so a member asked alone gets the same witness.

The three named procedures instantiate the kernel: rationalizability (full
start, no restrictions, no gate), strong delta rationalizability (full
start, restrictions on), and selective rationalizability (start at the
rationalizability fixed point, restrictions on, gate = strong belief in
every round of the base hierarchy). A fourth variant, no-s3, drops the gate;
starting at the base fixed point already keeps every survivor in it. It
provably matches selective rationalizability when the restrictions only bind
at infosets the fixed point keeps reachable, and the suite checks that
equality round by round.

rationalize_restrictions builds the closure of a restriction profile: the
set of systems that agree, on every infoset reachable at the base fixed
point, with some system that satisfies the original restrictions and the
full tower of strong-belief obligations of the selective run, read from
that run's trace. The closure is kept implicit; the kernel queries it
through coupled two-system searches.
"""

from . import beliefs
from .model import ProfileSet, compatible_infosets

EXPLAIN_DEFAULT = True


class PreconditionViolated(Exception):
    pass


class ProcedureSpec:
    """What the kernel needs: start sets, restrictions, gate, toggles.

    gate_rounds is a list of ProfileSets (selective passes the base rounds).
    No-s3 has none; its start at the base fixed point keeps every survivor
    there, since rounds only shrink. workers is accepted for compatibility
    with existing callers and ignored: every query runs in the calling thread.
    """

    def __init__(
        self,
        game,
        name,
        start=None,
        restrictions=None,
        gate_rounds=None,
        correlated=False,
        explain=EXPLAIN_DEFAULT,
        base=None,
        workers=1,
    ):
        self.game = game
        self.name = name
        self.start = start if start is not None else ProfileSet.full(game)
        self.restrictions = restrictions
        self.gate_rounds = gate_rounds
        self.correlated = correlated
        self.explain = explain
        self.base = base


class SolveTrace:
    def __init__(self, game, procedure):
        self.game = game
        self.procedure = procedure
        self.rounds = []
        self.eliminated = {}
        self.witnesses = {}
        # round -> {player: the obligation list that round's queries carried}
        self.mandates = {}
        # the restrictions every query carried (None, a profile, or a closure)
        self.restrictions = None
        self.fixed_point_round = None
        self.notes = []
        self.base = None

    @property
    def survivors(self):
        return self.rounds[-1]

    @property
    def outcomes(self):
        return self.survivors.outcomes()

    def eliminations_flat(self):
        out = []
        for n in sorted(self.eliminated):
            for (player, name), reason in sorted(self.eliminated[n].items()):
                out.append((n, player, name, reason))
        return out

    def __repr__(self):
        return "SolveTrace(%s, %d rounds, fixed at %s)" % (
            self.procedure,
            len(self.rounds),
            self.fixed_point_round,
        )


def _add_round(tower, game, player, q, survivors, before, correlated, prefix=""):
    """Append to tower (obligation key -> item) strong belief in round q's
    survivors: one item per opponent, or one joint item over their product
    when correlated. A full strategy set is a vacuous target and is skipped;
    a key already in the tower keeps its first item. `before` is round
    q-1's profile set (None for q = 0), whose items the tower already
    holds: an opponent whose set has not changed since then would give a
    key already there, so no item is built for it (no joint item, when
    correlated, unless some set changed)."""
    targets = {
        j: survivors.strategies(j)
        for j in game.players
        if j != player and len(survivors.strategies(j)) < len(game.strategies(j))
    }
    changed = [j for j, ts in targets.items() if before is None or ts != before.strategies(j)]
    if correlated:
        if not changed:
            return
        label = "%sround-%d survivors (joint)" % (prefix, q)
        items = [beliefs.joint_strong_belief_mandate(game, player, label, targets)]
    else:
        items = [
            beliefs.strong_belief_mandate(
                game, player, "%sround-%d survivors of %s" % (prefix, q, j), j, targets[j]
            )
            for j in changed
        ]
    for item in items:
        tower.setdefault(item.key(), item)


def _tower(game, player, rounds, correlated, prefix=""):
    """Strong belief in each of the rounds' survivors, from round 0 up."""
    tower = {}
    before = None
    for q, survivors in enumerate(rounds):
        _add_round(tower, game, player, q, survivors, before, correlated, prefix)
        before = survivors
    return list(tower.values())


def _round_mandates(game, player, history, correlated):
    """G2: strong belief in each round's survivors, history from round 0 up."""
    return _tower(game, player, history, correlated)


def _gate_mandates(game, player, gate_rounds, correlated):
    """The gate: strong belief in each round of the base run, labeled "base"."""
    return _tower(game, player, gate_rounds or (), correlated, "base ")


def generalized_solve(spec):
    game = spec.game
    trace = SolveTrace(game, spec.name)
    trace.base = spec.base
    trace.restrictions = restrictions = spec.restrictions
    trace.rounds.append(spec.start)

    gate = {
        player: _gate_mandates(game, player, spec.gate_rounds, spec.correlated)
        for player in game.players
    }
    towers = {player: {} for player in game.players}
    plans = {player: game.payoff_table().plans(player) for player in game.players}
    memo = {}
    limit = 1 + sum(len(game.strategies(p)) for p in game.players)
    for n in range(1, limit + 1):
        prev = trace.rounds[-1]
        before = trace.rounds[-2] if n > 1 else None
        new_sets = {}
        elim = {}
        trace.mandates[n] = {}
        for player in game.players:
            _add_round(towers[player], game, player, n - 1, prev, before, spec.correlated)
            mandates = list(towers[player].values()) + gate[player]
            trace.mandates[n][player] = mandates
            keys = frozenset(it.key() for it in mandates)
            keep = []
            strategies = game.strategies(player)
            for s in prev.strategies(player):
                rep = strategies[plans[player][s.index]]
                try:
                    witness = _query(memo, game, player, rep, mandates, keys, restrictions)
                except beliefs.EmptyPolytope as exc:
                    # The player's first failed query; no witness can exist.
                    trace.notes.append(
                        "EmptyPolytope: restrictions at %s leave %s no belief; "
                        "all strategies of %s eliminated in round %d"
                        % (exc.infoset, player, player, n)
                    )
                    reason = "restriction clauses at %s admit no belief" % exc.infoset
                    for t in prev.strategies(player):
                        elim[(player, t.name)] = reason
                    break
                if witness is None:
                    if spec.explain:
                        elim[(player, s.name)] = _explain(
                            memo, game, player, rep, mandates, keys, restrictions
                        )
                    else:
                        elim[(player, s.name)] = "no admissible belief system"
                    continue
                keep.append(s)
                trace.witnesses[(player, s.name)] = witness
            new_sets[player] = tuple(keep)
        cur = ProfileSet(game, new_sets)
        trace.rounds.append(cur)
        if elim:
            trace.eliminated[n] = elim
        if cur == prev:
            trace.fixed_point_round = n - 1
            break
    else:
        raise AssertionError("no fixed point within %d rounds" % limit)
    return trace


def _query(memo, game, player, strategy, mandates, keys, restrictions):
    """One admissibility decision, asked at most once per solve.

    The caller passes a plan's representative, so the strategy index names
    the plan, and the mandates' set of keys, built once per list. The
    answer depends on the mandates only through that set, and within one
    solve the restrictions are either the spec's or None (asked by
    _explain), so those make the memo key.
    """
    key = (player, strategy.index, keys, restrictions is None)
    if key in memo:
        return memo[key]
    if isinstance(restrictions, ImplicitRestrictions):
        pair = beliefs.coupled_admissible_pair(
            game,
            player,
            strategy,
            mandates,
            restrictions.bar_mandates[player],
            restrictions.delta.clauses_for(player),
            restrictions.agreement[player],
        )
        witness = None if pair is None else pair[0]
    else:
        witness = beliefs.exists_admissible_cps(
            game, player, strategy, mandates, restrictions, keys=keys
        )
    memo[key] = witness
    return witness


def _explain(memo, game, player, strategy, mandates, keys, restrictions):
    """Name an obligation whose removal restores feasibility, if one exists."""
    for k in range(len(mandates)):
        rest = mandates[:k] + mandates[k + 1 :]
        rest_keys = frozenset(it.key() for it in rest)
        if _query(memo, game, player, strategy, rest, rest_keys, restrictions) is not None:
            return "blocked by obligation: %s" % mandates[k].label
    if restrictions is not None:
        if _query(memo, game, player, strategy, mandates, keys, None) is not None:
            if isinstance(restrictions, ImplicitRestrictions):
                return "blocked by the restriction closure"
            return "blocked by the belief restrictions"
    if _query(memo, game, player, strategy, (), frozenset(), None) is None:
        return "no belief system makes this strategy sequentially optimal"
    return "jointly blocked by the obligations and restrictions"


# The procedures below accept workers=1 for compatibility with existing
# callers and ignore it, like ProcedureSpec.


def rationalizability(game, correlated=False, explain=EXPLAIN_DEFAULT, workers=1):
    spec = ProcedureSpec(
        game, "rationalizability", correlated=correlated, explain=explain
    )
    return generalized_solve(spec)


def strong_delta_rationalizability(game, delta, explain=EXPLAIN_DEFAULT, workers=1):
    spec = ProcedureSpec(game, "strong-delta", restrictions=delta, explain=explain)
    return generalized_solve(spec)


def selective_rationalizability(
    game, delta, base=None, explain=EXPLAIN_DEFAULT, workers=1
):
    if base is None:
        base = rationalizability(game, explain=explain)
    spec = ProcedureSpec(
        game,
        "selective",
        start=base.survivors,
        restrictions=delta,
        gate_rounds=base.rounds,
        explain=explain,
        base=base,
    )
    return generalized_solve(spec)


def is_rationalizable_restriction(game, delta, base=None):
    """Sufficient syntactic test: every clause sits at an infoset that the
    base fixed point keeps reachable (all components alive there)."""
    if delta is None:
        return True
    if base is None:
        base = rationalizability(game, explain=False)
    for player in game.players:
        alive = set(compatible_infosets(game, player, base.survivors.per_player))
        for infoset in delta.clauses_for(player):
            if delta.clauses_for(player)[infoset] and infoset not in alive:
                return False
    return True


def solve_without_s3(game, delta, base=None, explain=EXPLAIN_DEFAULT, workers=1):
    if base is None:
        base = rationalizability(game, explain=explain)
    if not is_rationalizable_restriction(game, delta, base):
        raise PreconditionViolated(
            "restriction profile binds at infosets dead under the base fixed point"
        )
    spec = ProcedureSpec(
        game,
        "no-s3",
        start=base.survivors,
        restrictions=delta,
        explain=explain,
        base=base,
    )
    return generalized_solve(spec)


class ImplicitRestrictions:
    """Closure of a restriction profile under agreement at base-reachable
    infosets. Membership of a system mu: some system satisfying the original
    clauses plus the earlier run's full obligation tower (the list its last
    round queried) must agree with mu at every infoset in the agreement set.
    """

    def __init__(self, game, delta, base, delta_trace):
        self.game = game
        self.delta = delta
        fixed = base.survivors.per_player
        self.agreement = {
            p: tuple(compatible_infosets(game, p, fixed)) for p in game.players
        }
        self.bar_mandates = delta_trace.mandates[max(delta_trace.mandates)]

    def contains(self, player, cps):
        return beliefs.cps_in_agreement_closure(
            self.game,
            player,
            cps,
            self.bar_mandates[player],
            self.delta.clauses_for(player),
            self.agreement[player],
        )


def rationalize_restrictions(game, delta, base=None, explain=EXPLAIN_DEFAULT):
    if base is None:
        base = rationalizability(game, explain=explain)
    run = selective_rationalizability(game, delta, base=base, explain=explain)
    if run.survivors.is_empty():
        raise PreconditionViolated(
            "the restricted procedure is empty; there is nothing to rationalize"
        )
    return ImplicitRestrictions(game, delta, base, run)


def _follows(game, player, later, earlier):
    return later == earlier or earlier in game.own_history(later)


def check_composition_lemma(game, delta_trace, base):
    """Exhaustive check of the splice property on a finished restricted run.

    For every round n, player i, own infoset h that round-n survivors of i
    reach but the base fixed point does not keep reachable, whose nearest
    own predecessor is base-reachable: every base-fixed-point strategy of i
    reaching h must agree, from h onward, with some round-n survivor.
    Returns a list of violation descriptions; empty means the property holds.
    """
    violations = []
    fixed = base.survivors.per_player
    for n, rnd in enumerate(delta_trace.rounds):
        for player in game.players:
            surv = rnd.strategies(player)
            if not surv:
                continue
            own_reach = set(compatible_infosets(game, player, {player: surv}))
            alive = set(compatible_infosets(game, player, fixed))
            pos = {h: k for k, h in enumerate(game.player_infosets[player])}
            for h in own_reach - alive:
                p_h = game.immediate_predecessor(h)
                if p_h is None or p_h not in alive:
                    continue
                later = [
                    h2 for h2 in game.player_infosets[player]
                    if _follows(game, player, h2, h)
                ]
                for s in base.survivors.strategies(player):
                    if s.index not in set(
                        x.index for x in game.strategies_reaching(player, h)
                    ):
                        continue
                    if not any(
                        all(
                            star.choices[pos[h2]] == s.choices[pos[h2]]
                            for h2 in later
                        )
                        for star in surv
                    ):
                        violations.append(
                            "round %d, %s, infoset %s, strategy %s has no "
                            "matching survivor from %s onward"
                            % (n, player, h, s.name, h)
                        )
    return violations
