"""Randomized invariants over generated games.

Seeds drive the generator directly, so shrinking lands on a reproducible
game rather than a mangled tree.
"""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from fisolve import beliefs, dsl, randgen, solvers
from fisolve.model import GameTree, Leaf


SLOTS = settings(max_examples=25, deadline=None)


def survivor_names(trace, player):
    return set(s.name for s in trace.survivors.strategies(player))


@given(seed=st.integers(0, 10**6))
@SLOTS
def test_serialize_parse_round_trip(seed):
    game = randgen.random_game(seed)
    text = dsl.serialize_game(game)
    again = dsl.parse_game(text)
    assert again == game
    assert dsl.serialize_game(again) == text


@given(seed=st.integers(0, 10**6))
@SLOTS
def test_rounds_shrink_monotonically(seed):
    game = randgen.random_game(seed, max_strategies=8)
    trace = solvers.rationalizability(game)
    for earlier, later in zip(trace.rounds, trace.rounds[1:]):
        for p in game.players:
            assert set(later.strategies(p)) <= set(earlier.strategies(p))
    assert trace.fixed_point_round is not None


@given(seed=st.integers(0, 10**6))
@SLOTS
def test_rationalizability_nonempty(seed):
    """Without restrictions something always survives for everyone."""
    game = randgen.random_game(seed, max_strategies=8)
    trace = solvers.rationalizability(game)
    for p in game.players:
        assert trace.survivors.strategies(p)


@given(seed=st.integers(0, 10**6))
@SLOTS
def test_trivial_restrictions_change_nothing(seed):
    game = randgen.random_game(seed, max_strategies=8)
    plain = solvers.rationalizability(game)
    sdr = solvers.strong_delta_rationalizability(game, None)
    sel = solvers.selective_rationalizability(game, None, base=plain)
    assert sdr.rounds == plain.rounds
    assert sel.survivors == plain.survivors


@given(seed=st.integers(0, 10**6))
@SLOTS
def test_selective_refines_the_base(seed):
    game = randgen.random_game(seed, max_strategies=8)
    base = solvers.rationalizability(game)
    delta = randgen.random_point_restrictions(seed + 1, game, base)
    if delta is None:
        return
    trace = solvers.selective_rationalizability(game, delta, base=base)
    for p in game.players:
        assert survivor_names(trace, p) <= survivor_names(base, p)


@given(seed=st.integers(0, 10**6))
@SLOTS
def test_strong_delta_refines_rationalizable_outcomes_weakly(seed):
    """Strong-delta survivors need not nest in the base, but each one is
    still sequentially optimal under some belief, so witnesses must check."""
    game = randgen.random_game(seed, max_strategies=8)
    base = solvers.rationalizability(game)
    delta = randgen.random_point_restrictions(seed + 1, game, base)
    if delta is None:
        return
    trace = solvers.strong_delta_rationalizability(game, delta)
    for p in game.players:
        for s in trace.survivors.strategies(p):
            cps = trace.witnesses[(p, s.name)]
            assert beliefs.is_valid_cps(game, p, cps)
            assert beliefs.sequential_best_reply(game, p, s, cps)


@given(seed=st.integers(0, 10**6))
@SLOTS
def test_lexicographic_cps_is_always_valid(seed):
    import random

    game = randgen.random_game(seed, max_strategies=8)
    rng = random.Random(seed)
    for p in game.players:
        space = beliefs.space_for(game, p)
        if not space.groups:
            continue
        order = list(range(len(space.combos)))
        rng.shuffle(order)
        cps = beliefs.lexicographic_cps(game, p, order)
        assert beliefs.is_valid_cps(game, p, cps)


@given(seed=st.integers(0, 10**6))
@SLOTS
def test_final_round_witnesses_strongly_believe_survivors(seed):
    """Fixed-point witnesses honor strong belief in every opponent's
    surviving set, which is what keeps the fixed point a fixed point."""
    game = randgen.random_game(seed, max_strategies=8)
    trace = solvers.rationalizability(game)
    final = trace.survivors
    for p in game.players:
        others = [q for q in game.players if q != p]
        for s in final.strategies(p):
            cps = trace.witnesses[(p, s.name)]
            for q in others:
                targets = tuple(final.strategies(q))
                item = beliefs.strong_belief_mandate(
                    game, p, "survivors of %s" % q, q, targets
                )
                assert beliefs.strongly_believes(game, p, cps, item)


@given(seed=st.integers(0, 10**6))
@SLOTS
def test_splice_property_on_random_restricted_runs(seed):
    """Restricted-run survivors can be spliced into base strategies at the
    first surprise infoset; on the fixtures this is vacuous, here it bites."""
    game = randgen.random_game(seed, max_strategies=8)
    base = solvers.rationalizability(game)
    delta = randgen.random_point_restrictions(seed + 1, game, base)
    if delta is None:
        return
    trace = solvers.selective_rationalizability(game, delta, base=base)
    assert solvers.check_composition_lemma(game, trace, base) == []


@given(seed=st.integers(0, 10**6))
@SLOTS
def test_solver_runs_are_deterministic(seed):
    game = randgen.random_game(seed, max_strategies=8)
    one = dsl.serialize_solution(solvers.rationalizability(game))
    two = dsl.serialize_solution(solvers.rationalizability(game))
    assert one == two


def test_dominance_exit_never_changes_an_answer():
    """Pure conditional dominance refutes only what the pattern search
    refutes: solves with the check switched off serialize identically, and
    no bundle it refutes has a pattern solution. Every dominance exit goes
    through `beliefs._dominated`, so the patched check must have been asked,
    and must have refuted, somewhere in the run."""
    dominated = beliefs._dominated
    verdicts = []

    def checked(space, bundle, strategy_index):
        hit = dominated(space, bundle, strategy_index)
        verdicts.append(hit)
        if hit:
            assert beliefs._solve_patterns(space, [bundle], strategy_index, frozenset()) is None
        return hit

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def check(seed):
        game = randgen.random_game(seed, max_strategies=6)

        def solve_all():
            base = solvers.rationalizability(game)
            traces = [base]
            delta = randgen.random_point_restrictions(seed + 1, game, base)
            if delta is not None:
                traces.append(solvers.selective_rationalizability(game, delta, base=base))
                traces.append(solvers.strong_delta_rationalizability(game, delta))
            return [dsl.serialize_solution(t) for t in traces]

        beliefs.reset_counts()
        start = len(verdicts)
        with mock.patch.object(beliefs, "_dominated", checked):
            with_check = solve_all()
        assert verdicts[start:].count(True) == beliefs.COUNTS["dominated"]
        with mock.patch.object(beliefs, "_dominated", lambda space, bundle, s: False):
            without_check = solve_all()
        assert with_check == without_check

    check()
    assert True in verdicts


def _affine(game, seed):
    """The game with each player's payoffs mapped by u -> a*u + b, with a > 0
    and not an integer and b a half-integer, so that every player's payoff
    table has a denominator above 1."""
    rng = random.Random(seed)
    maps = []
    for _ in game.players:
        a = Fraction(rng.randint(1, 40), rng.choice((3, 7, 9)))
        if a.denominator == 1:
            a += Fraction(1, 3)
        maps.append((a, Fraction(2 * rng.randint(-20, 20) + 1, 2)))
    leaves = {
        name: Leaf(name, tuple(a * v + b for (a, b), v in zip(maps, leaf.payoffs)))
        for name, leaf in game.leaves.items()
    }
    return GameTree(
        game.name, game.players, game.root, game.nodes, leaves,
        game.infosets, game.infoset_order,
    ).validate()


def _decisions(trace):
    """Rounds, reasons and outcomes by name, so traces of different games
    with the same tree compare."""
    players = trace.game.players
    return (
        [[[s.name for s in r.strategies(p)] for p in players] for r in trace.rounds],
        trace.eliminations_flat(),
        [leaf.name for leaf in trace.outcomes],
    )


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_positive_affine_payoffs_change_no_decision(seed):
    """Decisions read payoff differences through signs and through sums with
    equal weights, so a positive affine map of a player's payoffs changes no
    round, reason or outcome. The mapped games exercise denominators above 1
    in the integer payoff table and in the LP rows built from it."""
    game = randgen.random_game(seed, max_strategies=6)
    mapped = _affine(game, seed)
    assert all(L > 1 for L in mapped.payoff_table().denominators)
    delta = randgen.random_point_restrictions(seed + 1, game, solvers.rationalizability(game))
    clauses = [] if delta is None else [
        cl for p in game.players for cls in delta.clauses_for(p).values() for cl in cls
    ]

    def solve_all(g):
        base = solvers.rationalizability(g)
        if not clauses:
            return [base]
        restrictions = dsl.RestrictionProfile(g, clauses)
        return [
            base,
            solvers.selective_rationalizability(g, restrictions, base=base),
            solvers.strong_delta_rationalizability(g, restrictions),
        ]

    before, after = solve_all(game), solve_all(mapped)
    assert [_decisions(t) for t in before] == [_decisions(t) for t in after]
    for trace in after:
        for p in mapped.players:
            for s in trace.survivors.strategies(p):
                cps = trace.witnesses[(p, s.name)]
                assert beliefs.is_valid_cps(mapped, p, cps)
                assert beliefs.sequential_best_reply(mapped, p, s, cps)


def test_generic_centipedes_end_at_the_root():
    """In a generic perfect-information game the rationalizable outcome is
    the backward-induction one (Battigalli 1997): in a generic centipede,
    the stop at the root, at every length."""
    for n in range(3, 17):
        game = randgen.centipede(n)
        for k in range(2):
            pays = [leaf.payoffs[k] for leaf in game.leaves.values()]
            assert len(set(pays)) == len(pays)
        # The last mover strictly prefers stopping to continuing.
        stop, end = game.leaves["c/" * (n - 1) + "s"], game.leaves["/".join("c" * n)]
        assert stop.payoffs[(n - 1) % 2] > end.payoffs[(n - 1) % 2]
        trace = solvers.rationalizability(game)
        assert [(leaf.name, leaf.payoffs) for leaf in trace.outcomes] == [("s", (2, 0))]


@given(seed=st.integers(0, 10**6))
@SLOTS
def test_plans_are_decided_together(seed):
    """Realization-equivalent strategies (one plan) face the same optimality
    conditions, so every round keeps or eliminates a plan whole, its members
    share one reason or one witness, and a surviving member's own query
    returns that same witness."""
    game = randgen.random_game(seed, max_strategies=8)
    base = solvers.rationalizability(game)
    traces = [base]
    delta = randgen.random_point_restrictions(seed + 1, game, base)
    if delta is not None:
        traces.append(solvers.strong_delta_rationalizability(game, delta))
        traces.append(solvers.selective_rationalizability(game, delta, base=base))
    for trace in traces:
        last = len(trace.rounds) - 1
        for p in game.players:
            plans = game.payoff_table().plans(p)
            for n in range(1, last + 1):
                by_plan = {}
                for s in trace.rounds[n - 1].strategies(p):
                    by_plan.setdefault(plans[s.index], []).append(s)
                kept = {s.index for s in trace.rounds[n].strategies(p)}
                for members in by_plan.values():
                    if not any(s.index in kept for s in members):
                        reasons = {trace.eliminated[n][(p, s.name)] for s in members}
                        assert len(reasons) == 1
                        continue
                    assert all(s.index in kept for s in members)
                    tables = [trace.witnesses[(p, s.name)].table for s in members]
                    assert all(t == tables[0] for t in tables)
                    if n == last and len(members) > 1:
                        for s, table in zip(members, tables):
                            direct = beliefs.exists_admissible_cps(
                                game, p, s, trace.mandates[n][p], trace.restrictions
                            )
                            assert direct.table == table
