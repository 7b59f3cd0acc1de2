"""Conditional belief systems: structure, validity, and admissibility queries.

Numeric expectations (thresholds like 2/3 on the bribe game) were derived by
hand from the payoff tables and are asserted exactly.
"""

from fractions import Fraction

import pytest

from fisolve import beliefs, dsl, lp, solvers

from conftest import TANGLE


def strat(game, player, name):
    for s in game.strategies(player):
        if s.name == name:
            return s
    raise KeyError(name)


# -- space structure ---------------------------------------------------------


def test_bribe_space_events(bribe):
    sp = beliefs.space_for(bribe, "Ann")
    assert sp.opponents == ("Bob",)
    assert len(sp.combos) == 2
    assert sp.event["ann_root"] == frozenset({0, 1})
    assert sp.event["ann_after_ba"] == frozenset({1})
    # The smaller event's parent is the root event.
    g_after = sp.group_of["ann_after_ba"]
    g_root = sp.group_of["ann_root"]
    assert sp.parent[g_after] == g_root
    assert sp.parent[g_root] is None
    assert sp.combo_label(1) == "Bob=A"


def test_cleo_space_two_roots(cleo):
    sp = beliefs.space_for(cleo, "Ann")
    assert sp.opponents == ("Bob", "Cleo")
    assert len(sp.combos) == 16
    # Opting out and opting in generate disjoint events: two forest roots.
    assert sp.event["ann_after_o"].isdisjoint(sp.event["ann_after_i"])
    for h in ("ann_after_o", "ann_after_i"):
        assert sp.parent[sp.group_of[h]] is None


def test_cleo_own_space_shares_one_group(cleo):
    # Cleo alone decides whether her matrix choice is reached, so both of her
    # infosets condition on the full opponent set and share a group.
    sp = beliefs.space_for(cleo, "Cleo")
    assert sp.group_of["cleo_root"] == sp.group_of["cleo_matrix"]
    assert len(sp.groups) == 1


def test_space_is_cached(bribe):
    assert beliefs.space_for(bribe, "Ann") is beliefs.space_for(bribe, "Ann")


def test_non_forest_events_rejected():
    game = dsl.parse_game(TANGLE)
    with pytest.raises(beliefs.UnsupportedBeliefStructure):
        beliefs.space_for(game, "Ann")


# -- building and validating systems -----------------------------------------


def test_point_cps_and_validity(bribe):
    bob_a = strat(bribe, "Bob", "A")
    cps = beliefs.point_cps(
        bribe, "Ann", {"ann_root": (bob_a,), "ann_after_ba": (bob_a,)}
    )
    assert beliefs.is_valid_cps(bribe, "Ann", cps)
    assert cps.prob("ann_root", 1) == 1
    assert cps.as_labels()["ann_root"] == {"Bob=A": Fraction(1)}


def test_point_cps_outside_event_rejected(bribe):
    bob_r = strat(bribe, "Bob", "R")
    with pytest.raises(beliefs.DomainMismatch):
        beliefs.point_cps(
            bribe, "Ann", {"ann_root": (bob_r,), "ann_after_ba": (bob_r,)}
        )


def test_lexicographic_cps_always_valid(bribe, cleo):
    for game, player in ((bribe, "Ann"), (bribe, "Bob"), (cleo, "Ann"), (cleo, "Cleo")):
        sp = beliefs.space_for(game, player)
        for first in range(len(sp.combos)):
            cps = beliefs.lexicographic_cps(game, player, [first])
            assert beliefs.is_valid_cps(game, player, cps)


def test_surprise_reset_is_valid(bribe):
    # Mass 1 on R at the root, then full revision to A once Bob accepts.
    cps = beliefs.cps_from_table(
        bribe, "Ann", {"ann_root": {0: 1}, "ann_after_ba": {1: 1}}
    )
    assert beliefs.is_valid_cps(bribe, "Ann", cps)


def test_mass_outside_an_event_is_reported(bribe):
    """A system with mass outside a conditioning event is invalid, with a
    reason, not an error: Bob's R does not reach ann_after_ba."""
    cps = beliefs.cps_from_table(
        bribe, "Ann", {"ann_root": {0: 1}, "ann_after_ba": {0: 1}}
    )
    assert not beliefs.is_valid_cps(bribe, "Ann", cps)
    reason = beliefs.explain_invalid_cps(bribe, "Ann", cps)
    assert reason == "mass outside conditioning event at ann_after_ba"


def test_chain_rule_inheritance(bribe):
    # Positive mass on the sub-event forces Bayes: 1 * (1/3) == p_root(A).
    good = beliefs.cps_from_table(
        bribe,
        "Ann",
        {
            "ann_root": {0: Fraction(2, 3), 1: Fraction(1, 3)},
            "ann_after_ba": {1: 1},
        },
    )
    assert beliefs.explain_invalid_cps(bribe, "Ann", good) is None


def test_equal_events_must_agree(cleo):
    rows = {"cleo_root": {0: 1}, "cleo_matrix": {1: 1}}
    cps = beliefs.cps_from_table(cleo, "Cleo", rows)
    reason = beliefs.explain_invalid_cps(cleo, "Cleo", cps)
    assert reason is not None and "chain rule" in reason


def test_invalid_mass_reported(bribe):
    cps = beliefs.cps_from_table(
        bribe, "Ann", {"ann_root": {0: Fraction(1, 2)}, "ann_after_ba": {1: 1}}
    )
    assert "sums to" in beliefs.explain_invalid_cps(bribe, "Ann", cps)


# -- obligations ---------------------------------------------------------------


def test_strong_belief_mandate_activation(bribe):
    bob_r = strat(bribe, "Bob", "R")
    bob_a = strat(bribe, "Bob", "A")
    m_r = beliefs.strong_belief_mandate(bribe, "Ann", "bob rejects", "Bob", [bob_r])
    # R never reaches Ann's second infoset, so the obligation is inactive there.
    assert set(m_r.allowed) == {"ann_root"}
    assert m_r.allowed["ann_root"] == frozenset({0})
    m_a = beliefs.strong_belief_mandate(bribe, "Ann", "bob accepts", "Bob", [bob_a])
    assert set(m_a.allowed) == {"ann_root", "ann_after_ba"}


def test_strongly_believes(bribe):
    bob_a = strat(bribe, "Bob", "A")
    on_a = beliefs.point_cps(
        bribe, "Ann", {"ann_root": (bob_a,), "ann_after_ba": (bob_a,)}
    )
    assert beliefs.strongly_believes(bribe, "Ann", on_a, "Bob", [bob_a])
    reset = beliefs.cps_from_table(
        bribe, "Ann", {"ann_root": {0: 1}, "ann_after_ba": {1: 1}}
    )
    assert not beliefs.strongly_believes(bribe, "Ann", reset, "Bob", [bob_a])


def test_sequential_best_reply(bribe):
    bob_a = strat(bribe, "Bob", "A")
    on_a = beliefs.point_cps(
        bribe, "Ann", {"ann_root": (bob_a,), "ann_after_ba": (bob_a,)}
    )
    assert beliefs.sequential_best_reply(bribe, "Ann", strat(bribe, "Ann", "B.I"), on_a)
    # Pulling out pays -1 where following through pays 1.
    assert not beliefs.sequential_best_reply(
        bribe, "Ann", strat(bribe, "Ann", "B.P"), on_a
    )


def test_best_replies_under_rejection(bribe):
    reset = beliefs.cps_from_table(
        bribe, "Ann", {"ann_root": {0: 1}, "ann_after_ba": {1: 1}}
    )
    assert [s.name for s in beliefs.best_replies(bribe, "Ann", reset)] == [
        "N.P",
        "N.I",
    ]


# -- admissibility queries -------------------------------------------------------


def test_never_optimal_strategy_has_no_witness(bribe):
    assert (
        beliefs.exists_admissible_cps(bribe, "Ann", strat(bribe, "Ann", "B.P"))
        is None
    )


def test_witness_respects_mandates(bribe):
    bob_a = strat(bribe, "Bob", "A")
    item = beliefs.strong_belief_mandate(bribe, "Ann", "sb A", "Bob", [bob_a])
    cps = beliefs.exists_admissible_cps(
        bribe, "Ann", strat(bribe, "Ann", "B.I"), [item]
    )
    assert cps is not None
    assert beliefs.is_valid_cps(bribe, "Ann", cps)
    assert beliefs.strongly_believes(bribe, "Ann", cps, item)
    assert beliefs.sequential_best_reply(
        bribe, "Ann", strat(bribe, "Ann", "B.I"), cps
    )
    # The same mandate kills N.P: believing in acceptance makes bribing strictly
    # better than staying out.
    assert (
        beliefs.exists_admissible_cps(bribe, "Ann", strat(bribe, "Ann", "N.P"), [item])
        is None
    )


def test_witness_respects_restrictions(bribe, bribe_delta):
    # Point restriction on R keeps N optimal and blocks B.I.
    assert (
        beliefs.exists_admissible_cps(
            bribe, "Ann", strat(bribe, "Ann", "N.P"), (), bribe_delta
        )
        is not None
    )
    assert (
        beliefs.exists_admissible_cps(
            bribe, "Ann", strat(bribe, "Ann", "B.I"), (), bribe_delta
        )
        is None
    )


def _count_lp_calls(monkeypatch):
    """Record every lp.solve and lp.positive_max call from now on."""
    calls = []

    def counting(name):
        inner = getattr(lp, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        return wrapped

    for name in ("solve", "positive_max"):
        monkeypatch.setattr(lp, name, counting(name))
    return calls


def test_point_path_query_solves_no_lp(bribe, bribe_delta, monkeypatch):
    """The empty-polytope check runs only when a query fails, so a
    restricted query that a point system settles runs no LP at all."""
    calls = _count_lp_calls(monkeypatch)
    cps = beliefs.exists_admissible_cps(
        bribe, "Ann", strat(bribe, "Ann", "N.P"), (), bribe_delta
    )
    assert cps is not None
    assert calls == []


def test_dominated_query_solves_no_lp(bribe, monkeypatch):
    """B.P loses to B.I wherever ann_after_ba is reached; under strong
    belief in Bob = A, N.P loses to B.I at the root. Both are refuted by
    pure conditional dominance, before any LP."""
    bob_a = strat(bribe, "Bob", "A")
    sb_a = beliefs.strong_belief_mandate(bribe, "Ann", "sb A", "Bob", [bob_a])
    calls = _count_lp_calls(monkeypatch)
    assert beliefs.exists_admissible_cps(bribe, "Ann", strat(bribe, "Ann", "B.P")) is None
    assert (
        beliefs.exists_admissible_cps(bribe, "Ann", strat(bribe, "Ann", "N.P"), [sb_a])
        is None
    )
    assert calls == []


def test_decision_path_counts(bribe):
    """Each query is counted once, by the step that settled it."""
    b_i = strat(bribe, "Ann", "B.I")

    def capped(cap):
        return dsl.parse_restrictions(
            "player Ann\n  at ann_root: P[Bob = A] <= %s\n" % cap, bribe
        )

    # Strong belief in Bob = A where a clause puts no mass on A: the allowed
    # sets at the root are disjoint, although the clause alone is satisfiable.
    bob_a = strat(bribe, "Bob", "A")
    sb_a = beliefs.strong_belief_mandate(bribe, "Ann", "sb A", "Bob", [bob_a])
    no_a = dsl.parse_restrictions("player Ann\n  at ann_root: P[Bob = A] = 0\n", bribe)
    beliefs.reset_counts()
    assert beliefs.exists_admissible_cps(bribe, "Ann", b_i, [sb_a], no_a) is None
    assert beliefs.COUNTS == dict(dict.fromkeys(beliefs.COUNTS, 0), empty=1)

    cases = [
        (strat(bribe, "Ann", "B.P"), None, "dominated"),
        (strat(bribe, "Ann", "N.P"), None, "point"),
        (b_i, capped("2/3"), "patterns_kept"),
        (b_i, capped("665/1000"), "patterns_refuted"),
    ]
    for s, rest, path in cases:
        beliefs.reset_counts()
        cps = beliefs.exists_admissible_cps(bribe, "Ann", s, (), rest)
        assert (cps is not None) == (path in ("point", "patterns_kept"))
        assert beliefs.COUNTS == dict(dict.fromkeys(beliefs.COUNTS, 0), **{path: 1})
    beliefs.reset_counts()
    solvers.rationalizability(bribe)
    assert beliefs.COUNTS["dominated"] > 0
    assert beliefs.COUNTS["point"] > 0


def test_bribe_threshold_is_exact(bribe):
    """B.I needs P(A) >= 2/3 at the root; a cap just below that blocks it,
    also 1/1500000 below."""
    for cap, kept in (("2/3", True), ("665/1000", False), ("666666/1000000", False)):
        rest = dsl.parse_restrictions(
            "player Ann\n  at ann_root: P[Bob = A] <= %s\n" % cap, bribe
        )
        cps = beliefs.exists_admissible_cps(
            bribe, "Ann", strat(bribe, "Ann", "B.I"), (), rest
        )
        assert (cps is not None) == kept


def test_pattern_lps_get_each_row_once(bribe, monkeypatch):
    """`_solve_one` hands the simplex every distinct row once and no row
    without coefficients that holds outright (0 >= 0, 0 <= 0, 0 = 0), and the
    bribe threshold keeps its exact answers. Row by row, B.I's programs
    here repeat rows, and some rows lose every coefficient to the columns a
    pattern zeroes."""
    handed = []
    positive_max = lp.positive_max

    def recording(num_vars, objective, rows):
        handed.append(rows)
        return positive_max(num_vars, objective, rows)

    monkeypatch.setattr(lp, "positive_max", recording)
    test_bribe_threshold_is_exact(bribe)
    assert handed
    for rows in handed:
        marks = [(tuple(sorted(r.items())), op, rhs) for r, op, rhs in rows]
        assert len(set(marks)) == len(marks)
        assert all(r for r, _, _ in rows)


def _tamper_pattern_witnesses(monkeypatch, tamper):
    """Hand every system list the pattern LPs find through `tamper`."""
    solve_one = beliefs._solve_one

    def tampered(*args):
        found = solve_one(*args)
        return None if found is None else tamper(found)

    monkeypatch.setattr(beliefs, "_solve_one", tampered)


def test_verifier_rejects_a_witness_that_is_not_optimal(bribe, monkeypatch):
    """B.I's threshold query under the cap 2/3 is kept by the pattern LPs.
    Mass 1 on R at the root meets the cap, but there N beats B.I."""
    on_r = beliefs.cps_from_table(
        bribe, "Ann", {"ann_root": {0: 1}, "ann_after_ba": {1: 1}}
    )
    _tamper_pattern_witnesses(monkeypatch, lambda found: [on_r])
    cap = dsl.parse_restrictions("player Ann\n  at ann_root: P[Bob = A] <= 2/3\n", bribe)
    with pytest.raises(AssertionError, match="not optimal for B.I"):
        beliefs.exists_admissible_cps(bribe, "Ann", strat(bribe, "Ann", "B.I"), (), cap)


def test_verifier_rejects_a_witness_that_breaks_a_mandate(bribe, monkeypatch):
    """mu's system, mass on A at the root, handed to bar, which must
    strongly believe R."""
    sb_r = beliefs.strong_belief_mandate(bribe, "Ann", "sb R", "Bob", [strat(bribe, "Bob", "R")])
    sb_a = beliefs.strong_belief_mandate(bribe, "Ann", "sb A", "Bob", [strat(bribe, "Bob", "A")])
    _tamper_pattern_witnesses(monkeypatch, lambda found: [found[0], found[0]])
    with pytest.raises(AssertionError, match="violates its obligations"):
        beliefs.coupled_admissible_pair(
            bribe, "Ann", strat(bribe, "Ann", "B.I"), [sb_a], [sb_r], None, ()
        )


def test_verifier_rejects_slots_that_disagree(bribe, monkeypatch):
    """The slots agree everywhere, and bar's clause P(A) >= 1/3 leaves no
    point system for N.P, so the pattern LPs decide. Moving bar's root mass
    onto A keeps every obligation of bar but breaks the agreement."""
    on_a = beliefs.cps_from_table(
        bribe, "Ann", {"ann_root": {1: 1}, "ann_after_ba": {1: 1}}
    )
    _tamper_pattern_witnesses(monkeypatch, lambda found: [found[0], on_a])
    floor = dsl.parse_restrictions("player Ann\n  at ann_root: P[Bob = A] >= 1/3\n", bribe)
    with pytest.raises(AssertionError, match="agreement violated at ann_root"):
        beliefs.coupled_admissible_pair(
            bribe,
            "Ann",
            strat(bribe, "Ann", "N.P"),
            (),
            (),
            floor,
            ("ann_root", "ann_after_ba"),
        )


def test_contradictory_clauses_raise_empty_polytope(bribe):
    text = (
        "player Ann\n"
        "  at ann_root: P[Bob = R] >= 2/3\n"
        "  at ann_root: P[Bob = A] >= 2/3\n"
    )
    delta = dsl.parse_restrictions(text, bribe)
    assert beliefs.empty_restriction_infosets(
        bribe, "Ann", delta.clauses_for("Ann")
    ) == ["ann_root"]
    with pytest.raises(beliefs.EmptyPolytope):
        beliefs.exists_admissible_cps(
            bribe, "Ann", strat(bribe, "Ann", "N.P"), (), delta
        )


def test_empty_polytope_check_runs_once_per_clause_map(bribe, monkeypatch):
    """After a failed restricted query the clause polytopes are checked once
    per player and clause map: a second failing query runs no lp.feasible,
    and an empty polytope is still reported at the same infoset."""
    game = dsl.parse_game(dsl.serialize_game(bribe))  # cold belief spaces
    report = dsl.parse_restrictions(
        "player Ann\n"
        "  at ann_root: P[Bob @ bob_after_b = R] = 1\n"
        "  at ann_root: P[Bob = R] >= 1/2\n",
        game,
    )
    contradictory = dsl.parse_restrictions(
        "player Ann\n"
        "  at ann_root: P[Bob = R] >= 2/3\n"
        "  at ann_root: P[Bob = A] >= 2/3\n",
        game,
    )
    feasible = []
    inner = lp.feasible
    monkeypatch.setattr(
        lp, "feasible", lambda *args: feasible.append(args) or inner(*args)
    )
    for name in ("B.I", "B.P"):
        s = strat(game, "Ann", name)
        assert beliefs.exists_admissible_cps(game, "Ann", s, (), report) is None
        assert len(feasible) == 1
    for name in ("N.P", "B.I"):
        with pytest.raises(beliefs.EmptyPolytope) as raised:
            beliefs.exists_admissible_cps(
                game, "Ann", strat(game, "Ann", name), (), contradictory
            )
        assert raised.value.infoset == "ann_root"
        assert len(feasible) == 2


# -- coupled queries ----------------------------------------------------------


def test_coupled_pair_merged_fast_path(bribe):
    bob_a = strat(bribe, "Bob", "A")
    item = beliefs.strong_belief_mandate(bribe, "Ann", "sb A", "Bob", [bob_a])
    pair = beliefs.coupled_admissible_pair(
        bribe,
        "Ann",
        strat(bribe, "Ann", "B.I"),
        [item],
        [item],
        None,
        ("ann_root", "ann_after_ba"),
    )
    assert pair is not None
    mu, bar = pair
    assert mu.table == bar.table


def test_coupled_pair_agreement_binds(bribe):
    bob_r = strat(bribe, "Bob", "R")
    bob_a = strat(bribe, "Bob", "A")
    sb_r = beliefs.strong_belief_mandate(bribe, "Ann", "sb R", "Bob", [bob_r])
    sb_a = beliefs.strong_belief_mandate(bribe, "Ann", "sb A", "Bob", [bob_a])
    # Without agreement the two slots can split: mu on R, bar on A.
    pair = beliefs.coupled_admissible_pair(
        bribe, "Ann", strat(bribe, "Ann", "N.P"), [sb_r], [sb_a], None, ()
    )
    assert pair is not None
    mu, bar = pair
    assert mu.prob("ann_root", 0) == 1
    assert bar.prob("ann_root", 1) == 1
    # Forcing agreement at the root makes the slots contradictory.
    assert (
        beliefs.coupled_admissible_pair(
            bribe,
            "Ann",
            strat(bribe, "Ann", "N.P"),
            [sb_r],
            [sb_a],
            None,
            ("ann_root", "ann_after_ba"),
        )
        is None
    )


def test_agreement_must_be_upward_closed(bribe):
    """Agreement on ann_after_ba but not on its parent event is refused
    before any early exit: where the pattern search runs (N.P under sb R /
    sb A), where a point system exists (N.P, B.I) and where dominance
    refutes (B.P)."""

    def sb(name):
        return beliefs.strong_belief_mandate(
            bribe, "Ann", "sb " + name, "Bob", [strat(bribe, "Bob", name)]
        )

    for ann, mu, bar in (
        ("N.P", "R", "A"),
        ("N.P", "R", "R"),
        ("B.I", "A", "A"),
        ("B.P", "A", "A"),
    ):
        with pytest.raises(beliefs.UnsupportedBeliefStructure):
            beliefs.coupled_admissible_pair(
                bribe,
                "Ann",
                strat(bribe, "Ann", ann),
                [sb(mu)],
                [sb(bar)],
                None,
                ("ann_after_ba",),
            )


def test_agreement_closure_membership(bribe, bribe_delta):
    bob_r = strat(bribe, "Bob", "R")
    bob_a = strat(bribe, "Bob", "A")
    on_r = beliefs.cps_from_table(
        bribe, "Ann", {"ann_root": {0: 1}, "ann_after_ba": {1: 1}}
    )
    on_a = beliefs.point_cps(
        bribe, "Ann", {"ann_root": (bob_a,), "ann_after_ba": (bob_a,)}
    )
    assert beliefs.cps_in_agreement_closure(
        bribe, "Ann", on_r, (), bribe_delta, ("ann_root",)
    )
    assert not beliefs.cps_in_agreement_closure(
        bribe, "Ann", on_a, (), bribe_delta, ("ann_root",)
    )
    # With an empty agreement set every system is in the closure.
    assert beliefs.cps_in_agreement_closure(
        bribe, "Ann", on_a, (), bribe_delta, ()
    )


def test_coupled_pair_diverged_parents(bribe, monkeypatch):
    """No agreement, so each slot restarts its own root block and the child
    event sees two different parent blocks. mu (B.I, strong belief in A)
    must inherit at the child; bar (strong belief in R) puts zero mass on it
    and restarts there."""
    bob_r = strat(bribe, "Bob", "R")
    bob_a = strat(bribe, "Bob", "A")
    sb_r = beliefs.strong_belief_mandate(bribe, "Ann", "sb R", "Bob", [bob_r])
    sb_a = beliefs.strong_belief_mandate(bribe, "Ann", "sb A", "Bob", [bob_a])
    sp = beliefs.space_for(bribe, "Ann")
    root = sp.group_of["ann_root"]
    child = sp.group_of["ann_after_ba"]
    patterns = []
    solve_one = beliefs._solve_one

    def recording(space, bundles, strategy_index, block_of, fresh, zero_rows, eps_rows):
        patterns.append(list(fresh))
        return solve_one(space, bundles, strategy_index, block_of, fresh, zero_rows, eps_rows)

    monkeypatch.setattr(beliefs, "_solve_one", recording)
    pair = beliefs.coupled_admissible_pair(
        bribe, "Ann", strat(bribe, "Ann", "B.I"), [sb_a], [sb_r], None, ()
    )
    assert pair is not None
    mu, bar = pair
    assert mu.prob("ann_root", 1) == 1
    assert mu.prob("ann_after_ba", 1) == 1
    assert bar.prob("ann_root", 0) == 1
    assert bar.prob("ann_after_ba", 1) == 1
    # Both inherit (refuted), then mu inherits while bar restarts.
    assert patterns == [
        [(0, root), (1, root)],
        [(0, root), (1, root), (1, child)],
    ]
    # B.I is never optimal under strong belief in R, whatever bar does.
    assert (
        beliefs.coupled_admissible_pair(
            bribe, "Ann", strat(bribe, "Ann", "B.I"), [sb_r], [sb_a], None, ()
        )
        is None
    )


def test_agreement_closure_mixed_conditional(bribe, monkeypatch):
    """A non-point conditional on an agreement event is pinned weight by
    weight, so no point system can serve it and the pattern LP decides.
    The closure caps P(A) at 1/2 at the root; mu puts 1/3 or 2/3 there."""
    cap = dsl.parse_restrictions(
        "player Ann\n  at ann_root: P[Bob = A] <= 1/2\n", bribe
    )
    calls = []
    positive_max = lp.positive_max

    def counting(*args):
        calls.append(args)
        return positive_max(*args)

    monkeypatch.setattr(lp, "positive_max", counting)
    agreement = ("ann_root", "ann_after_ba")
    for p_a, member in ((Fraction(1, 3), True), (Fraction(2, 3), False)):
        mu = beliefs.cps_from_table(
            bribe,
            "Ann",
            {"ann_root": {0: 1 - p_a, 1: p_a}, "ann_after_ba": {1: 1}},
        )
        assert beliefs.is_valid_cps(bribe, "Ann", mu)
        del calls[:]
        assert (
            beliefs.cps_in_agreement_closure(bribe, "Ann", mu, (), cap, agreement)
            is member
        )
        assert calls
