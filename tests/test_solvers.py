"""Elimination procedures on the bundled games, with frozen round values.

Round contents, fixed-point indices, outcome sets and elimination reasons
were derived by hand from the payoff tables before being asserted here.
"""

import pytest

from fisolve import beliefs, dsl, randgen, solvers


def names(pset, player):
    return sorted(s.name for s in pset.strategies(player))


# Ann can leave (L, safe payoff) or hand the move to Bob (R, never optimal).
# Rationalizability kills R in round one, so Bob's infoset is dead at the
# fixed point. Used for the dead-infoset precondition tests.
EXIT = """
game exit
players Ann Bob
tree
  node root owner Ann
    L -> leaf (1, 0)
    R -> node b owner Bob
      u -> leaf (0, 1)
      d -> leaf (0, 0)
"""


@pytest.fixture(scope="module")
def exit_game():
    return dsl.parse_game(EXIT)


# -- rationalizability on the fixtures ----------------------------------------


def test_bribe_rounds_frozen(bribe_base):
    tr = bribe_base
    assert tr.fixed_point_round == 3
    assert names(tr.rounds[0], "Ann") == ["B.I", "B.P", "N.I", "N.P"]
    assert names(tr.rounds[1], "Ann") == ["B.I", "N.I", "N.P"]
    assert names(tr.rounds[1], "Bob") == ["A", "R"]
    assert names(tr.rounds[2], "Bob") == ["A"]
    assert names(tr.rounds[3], "Ann") == ["B.I"]
    assert names(tr.survivors, "Ann") == ["B.I"]
    assert names(tr.survivors, "Bob") == ["A"]
    assert [leaf.name for leaf in tr.outcomes] == ["B/A/I"]
    # Staying out is not a possible outcome of the solution set.
    assert all(leaf.name != "N" for leaf in tr.outcomes)


def test_bribe_elimination_reasons(bribe_base):
    elim = dict(
        ((p, s), reason)
        for _, p, s, reason in bribe_base.eliminations_flat()
    )
    assert elim[("Ann", "B.P")] == (
        "no belief system makes this strategy sequentially optimal"
    )
    assert elim[("Bob", "R")] == "blocked by obligation: round-1 survivors of Ann"
    assert elim[("Ann", "N.P")] == "blocked by obligation: round-2 survivors of Bob"
    assert elim[("Ann", "N.I")] == "blocked by obligation: round-2 survivors of Bob"


def test_bribe_witnesses_certify_membership(bribe, bribe_base):
    for player in bribe.players:
        for s in bribe_base.survivors.strategies(player):
            cps = bribe_base.witnesses[(player, s.name)]
            assert beliefs.is_valid_cps(bribe, player, cps)
            assert beliefs.sequential_best_reply(bribe, player, s, cps)


def test_cleo_everything_rationalizable(cleo_base):
    assert cleo_base.fixed_point_round == 0
    for p in ("Ann", "Bob", "Cleo"):
        assert len(cleo_base.survivors.strategies(p)) == 4
    assert not cleo_base.eliminations_flat()


# -- restricted procedures ------------------------------------------------------


def test_bribe_selective_empty(bribe, bribe_delta):
    tr = solvers.selective_rationalizability(bribe, bribe_delta)
    assert tr.survivors.is_empty()
    assert tr.fixed_point_round == 1
    reasons = set(tr.eliminated[1].values())
    assert reasons == {"blocked by the belief restrictions"}


def test_bribe_strong_delta(bribe, bribe_delta):
    tr = solvers.strong_delta_rationalizability(bribe, bribe_delta)
    assert names(tr.survivors, "Ann") == ["N.I", "N.P"]
    assert names(tr.survivors, "Bob") == ["A", "R"]
    assert [leaf.name for leaf in tr.outcomes] == ["N"]


def test_opposite_priorities_disagree(bribe, bribe_delta):
    """The same restriction yields an empty set under one priority order and
    the N outcome under the other."""
    sel = solvers.selective_rationalizability(bribe, bribe_delta)
    sdr = solvers.strong_delta_rationalizability(bribe, bribe_delta)
    assert sel.survivors.is_empty()
    assert not sdr.survivors.is_empty()


def test_cleo_nw_unique_prediction(cleo, cleo_nw, cleo_base):
    tr = solvers.selective_rationalizability(cleo, cleo_nw, base=cleo_base)
    assert names(tr.survivors, "Ann") == ["N.D", "N.U"]
    assert names(tr.survivors, "Bob") == ["W.L", "W.R"]
    assert names(tr.survivors, "Cleo") == ["O.M1", "O.M2"]
    assert [leaf.name for leaf in tr.outcomes] == ["O/N/W"]


def test_cleo_se_not_unique(cleo, cleo_se, cleo_base):
    tr = solvers.selective_rationalizability(cleo, cleo_se, base=cleo_base)
    assert not tr.survivors.is_empty()
    assert names(tr.survivors, "Cleo") == ["I.M2", "O.M1", "O.M2"]
    outs = {leaf.name for leaf in tr.outcomes}
    assert "O/S/E" in outs
    assert len(outs) > 1


def test_contradictory_restrictions_empty_not_crash(bribe, bribe_base):
    """The player's first failed query finds the empty clause polytope. Under
    selective and no-s3, which start at the base fixed point, a strong-belief
    obligation can empty an allowed set first; the note and the reasons are
    the same."""
    text = (
        "player Ann\n"
        "  at ann_root: P[Bob = R] >= 2/3\n"
        "  at ann_root: P[Bob = A] >= 2/3\n"
    )
    delta = dsl.parse_restrictions(text, bribe)
    tr = solvers.strong_delta_rationalizability(bribe, delta)
    assert names(tr.survivors, "Bob") == ["A", "R"]
    assert tr.eliminated[1][("Ann", "N.P")] == (
        "restriction clauses at ann_root admit no belief"
    )
    runs = [
        tr,
        solvers.selective_rationalizability(bribe, delta, base=bribe_base),
        solvers.solve_without_s3(bribe, delta, base=bribe_base),
    ]
    for run in runs:
        assert names(run.rounds[1], "Ann") == []
        assert run.notes == [
            "EmptyPolytope: restrictions at ann_root leave Ann no belief; "
            "all strategies of Ann eliminated in round 1"
        ]
        ann = {s for (p, s) in run.eliminated[1] if p == "Ann"}
        assert ann == set(names(run.rounds[0], "Ann"))
        for s in ann:
            assert run.eliminated[1][("Ann", s)] == (
                "restriction clauses at ann_root admit no belief"
            )


# -- membership variant and preconditions ---------------------------------------


def test_no_s3_matches_selective_on_fixtures(cleo, cleo_nw, cleo_se, cleo_base):
    for delta in (cleo_nw, cleo_se):
        sel = solvers.selective_rationalizability(cleo, delta, base=cleo_base)
        ns3 = solvers.solve_without_s3(cleo, delta, base=cleo_base)
        assert sel.survivors == ns3.survivors
        assert sel.rounds[1:] == ns3.rounds[1:]


def test_rationalizable_restriction_predicate(cleo, cleo_nw, cleo_se, exit_game):
    assert solvers.is_rationalizable_restriction(cleo, cleo_nw)
    assert solvers.is_rationalizable_restriction(cleo, cleo_se)
    assert solvers.is_rationalizable_restriction(cleo, None)
    dead = dsl.parse_restrictions("player Bob\n  at b: P[Ann = R] = 1\n", exit_game)
    assert not solvers.is_rationalizable_restriction(exit_game, dead)


def test_exit_game_fixed_point(exit_game):
    tr = solvers.rationalizability(exit_game)
    assert names(tr.survivors, "Ann") == ["L"]
    assert names(tr.survivors, "Bob") == ["u"]


def test_no_s3_precondition_violated(exit_game):
    dead = dsl.parse_restrictions("player Bob\n  at b: P[Ann = R] = 1\n", exit_game)
    with pytest.raises(solvers.PreconditionViolated):
        solvers.solve_without_s3(exit_game, dead)


def test_selective_still_defined_at_dead_infoset(exit_game):
    # The full procedure handles the same restriction the membership variant
    # must refuse: the clause only binds off the rationalizable path.
    dead = dsl.parse_restrictions("player Bob\n  at b: P[Ann = R] = 1\n", exit_game)
    tr = solvers.selective_rationalizability(exit_game, dead)
    assert names(tr.survivors, "Ann") == ["L"]
    assert names(tr.survivors, "Bob") == ["u"]


# -- restriction closure ----------------------------------------------------------


def test_rationalize_restrictions_zeta_equal(cleo, cleo_nw, cleo_se, cleo_base):
    for delta in (cleo_nw, cleo_se):
        sel = solvers.selective_rationalizability(cleo, delta, base=cleo_base)
        impl = solvers.rationalize_restrictions(cleo, delta, base=cleo_base)
        again = solvers.generalized_solve(
            solvers.ProcedureSpec(cleo, "closure", restrictions=impl)
        )
        assert again.survivors == sel.survivors
        assert {l.name for l in again.outcomes} == {l.name for l in sel.outcomes}


def test_rationalize_refuses_empty_run(bribe, bribe_delta):
    with pytest.raises(solvers.PreconditionViolated):
        solvers.rationalize_restrictions(bribe, bribe_delta)


def test_closure_contains_run_witnesses(cleo, cleo_nw, cleo_base):
    sel = solvers.selective_rationalizability(cleo, cleo_nw, base=cleo_base)
    impl = solvers.rationalize_restrictions(cleo, cleo_nw, base=cleo_base)
    for p in cleo.players:
        for s in sel.survivors.strategies(p):
            assert impl.contains(p, sel.witnesses[(p, s.name)])


def test_closure_reads_the_runs_obligation_tower(
    bribe, bribe_delta, bribe_base, cleo, cleo_nw, cleo_base
):
    """The closure's bar obligations are every obligation the selective run
    asked in any round. Bribe's run is empty, which rationalize_restrictions
    refuses, so its closure is built directly."""
    sel = solvers.selective_rationalizability(cleo, cleo_nw, base=cleo_base)
    cases = [
        (sel, solvers.rationalize_restrictions(cleo, cleo_nw, base=cleo_base)),
    ]
    sel = solvers.selective_rationalizability(bribe, bribe_delta, base=bribe_base)
    cases.append(
        (sel, solvers.ImplicitRestrictions(bribe, bribe_delta, bribe_base, sel))
    )
    for run, impl in cases:
        assert len(run.mandates) > 1
        for p in run.game.players:
            asked = {
                it.key() for n in run.mandates for it in run.mandates[n][p]
            }
            assert {it.key() for it in impl.bar_mandates[p]} == asked
        assert any(impl.bar_mandates[p] for p in run.game.players)


# -- splice property ---------------------------------------------------------------


def test_composition_property_on_fixtures(bribe, bribe_delta, cleo, cleo_nw, cleo_se, cleo_base, bribe_base):
    runs = [
        (bribe, solvers.strong_delta_rationalizability(bribe, bribe_delta), bribe_base),
        (cleo, solvers.selective_rationalizability(cleo, cleo_nw, base=cleo_base), cleo_base),
        (cleo, solvers.selective_rationalizability(cleo, cleo_se, base=cleo_base), cleo_base),
    ]
    for game, trace, base in runs:
        assert solvers.check_composition_lemma(game, trace, base) == []


# -- kernel toggles -----------------------------------------------------------------


def test_correlated_equals_independent_two_players(bribe):
    ind = solvers.rationalizability(bribe)
    cor = solvers.rationalizability(bribe, correlated=True)
    assert ind.rounds == cor.rounds


def test_correlated_never_smaller(cleo, cleo_nw, cleo_base):
    """Joint obligations activate less often, so they eliminate no more."""
    spec = solvers.ProcedureSpec(
        cleo,
        "selective",
        start=cleo_base.survivors,
        restrictions=cleo_nw,
        gate_rounds=cleo_base.rounds,
        correlated=True,
    )
    cor = solvers.generalized_solve(spec)
    ind = solvers.selective_rationalizability(cleo, cleo_nw, base=cleo_base)
    for p in cleo.players:
        ind_set = set(names(ind.survivors, p))
        cor_set = set(names(cor.survivors, p))
        assert ind_set <= cor_set


def test_explain_off_generic_reason(bribe):
    tr = solvers.rationalizability(bribe, explain=False)
    assert tr.eliminated[1][("Ann", "B.P")] == "no admissible belief system"
    assert tr.survivors == solvers.rationalizability(bribe).survivors
    # Explanations share the solve's memo; they must not change its answers.
    game = randgen.random_game(1)
    off = solvers.rationalizability(game, explain=False)
    on = solvers.rationalizability(game)
    assert off.eliminated
    assert on.rounds == off.rounds
    assert {k: w.table for k, w in on.witnesses.items()} == {
        k: w.table for k, w in off.witnesses.items()
    }


def test_trace_records_the_restrictions(bribe, bribe_delta):
    assert solvers.rationalizability(bribe).restrictions is None
    tr = solvers.strong_delta_rationalizability(bribe, bribe_delta)
    assert tr.restrictions is bribe_delta


def test_no_query_is_asked_twice(bribe, bribe_delta, monkeypatch):
    """Within one solve each (player, plan, obligations, restrictions on or
    off) is asked once: realization-equivalent strategies share one query,
    here Ann's N.P and N.I, and so do the re-queries behind the reasons."""
    asked = []
    query = beliefs.exists_admissible_cps

    def recording(game, player, strategy, mandates=(), restrictions=None, keys=None):
        assert keys == frozenset(it.key() for it in mandates)
        asked.append((
            player,
            game.payoff_table().plans(player)[strategy.index],
            keys,
            restrictions is None,
        ))
        return query(game, player, strategy, mandates, restrictions, keys=keys)

    monkeypatch.setattr(beliefs, "exists_admissible_cps", recording)
    for solve in (
        lambda: solvers.rationalizability(bribe, explain=True),
        lambda: solvers.strong_delta_rationalizability(bribe, bribe_delta, explain=True),
    ):
        asked.clear()
        tr = solve()
        assert tr.eliminated
        assert asked
        assert len(asked) == len(set(asked))
        assert tr.witnesses.get(("Ann", "N.P")) is tr.witnesses.get(("Ann", "N.I"))


def test_trace_records_the_queried_mandates(cleo, cleo_nw, cleo_base, monkeypatch):
    """trace.mandates holds, per round and player, the obligation list that
    the solve's queries carried (explanations off, so no other lists). The
    random three-player game is one where joint obligations differ from
    per-opponent ones in 7 player-rounds; on cleo they are all vacuous."""
    asked = set()
    query = beliefs.exists_admissible_cps

    def recording(game, player, strategy, mandates=(), restrictions=None, keys=None):
        asked.add((player, frozenset(it.key() for it in mandates)))
        return query(game, player, strategy, mandates, restrictions, keys=keys)

    monkeypatch.setattr(beliefs, "exists_admissible_cps", recording)
    three = randgen.random_game(36, max_strategies=6)
    for solve in (
        lambda: solvers.selective_rationalizability(
            cleo, cleo_nw, base=cleo_base, explain=False
        ),
        lambda: solvers.rationalizability(three, correlated=True, explain=False),
    ):
        asked.clear()
        tr = solve()
        assert sorted(tr.mandates) == list(range(1, len(tr.rounds)))
        recorded = {
            (player, frozenset(it.key() for it in tr.mandates[n][player]))
            for n in tr.mandates
            for player in tr.game.players
            if tr.rounds[n - 1].strategies(player)
        }
        assert asked and recorded == asked


def _reference_tower(game, player, rounds, correlated, prefix=""):
    """Round obligations rebuilt from scratch with plain sets: strong belief
    in each round's non-full opponent sets (jointly when correlated), active
    where the target combos meet an infoset's event, first key kept.
    Returns [(label, key)]."""
    sp = beliefs.space_for(game, player)
    out, seen = [], set()
    for q, comp in enumerate(rounds):
        opps = [
            j for j in game.players
            if j != player and len(comp.strategies(j)) < len(game.strategies(j))
        ]
        if correlated:
            wanted = [("round-%d survivors (joint)" % q, opps)] if opps else []
        else:
            wanted = [("round-%d survivors of %s" % (q, j), [j]) for j in opps]
        for label, targets in wanted:
            inside = {
                t for t, combo in enumerate(sp.combos)
                if all(
                    combo[sp.opp_pos[j]] in comp.strategies(j) for j in targets
                )
            }
            key = tuple(sorted(
                (h, sum(1 << t for t in sp.event[h] & inside))
                for h in sp.infosets
                if sp.event[h] & inside
            ))
            if key not in seen:
                seen.add(key)
                out.append((prefix + label, key))
    return out


def test_round_obligations_match_a_from_scratch_tower():
    """Each round's recorded list equals the tower of every earlier round
    plus the gate, rebuilt from scratch: same labels, keys and order. Random
    two- and three-player games, per opponent and correlated, with and
    without the base run as a gate."""
    players_seen = set()
    extended = 0
    for seed in range(12):
        game = randgen.random_game(seed, max_strategies=6)
        players_seen.add(len(game.players))
        base = solvers.rationalizability(game, explain=False)
        for correlated in (False, True):
            for gate in (None, base.rounds):
                spec = solvers.ProcedureSpec(
                    game,
                    "generalized",
                    gate_rounds=gate,
                    correlated=correlated,
                    explain=False,
                )
                tr = solvers.generalized_solve(spec)
                for n, lists in tr.mandates.items():
                    for player in game.players:
                        want = _reference_tower(
                            game, player, tr.rounds[:n], correlated
                        ) + _reference_tower(
                            game, player, gate or (), correlated, "base "
                        )
                        got = [(it.label, it.key()) for it in lists[player]]
                        assert got == want
                        if n > 1 and len(got) > len(tr.mandates[n - 1][player]):
                            extended += 1
    assert players_seen == {2, 3}
    assert extended > 0
