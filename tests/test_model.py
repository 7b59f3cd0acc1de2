"""Structural invariants of the game model, frozen against the bundled games.

The reachability and predecessor values here were derived by hand from the
two game files and are asserted exactly.
"""

import math
from fractions import Fraction
from itertools import product

import pytest

from fisolve import beliefs, dsl, randgen, stability
from fisolve.model import (
    DanglingNode,
    DecisionNode,
    GameTree,
    InfoSet,
    Leaf,
    MalformedInfoSet,
    PerfectRecallViolation,
    ProfileSet,
    compatible_infosets,
)


def names(strats):
    return [s.name for s in strats]


def test_bribe_strategy_enumeration(bribe):
    assert names(bribe.strategies("Ann")) == ["N.P", "N.I", "B.P", "B.I"]
    assert names(bribe.strategies("Bob")) == ["R", "A"]
    for i, s in enumerate(bribe.strategies("Ann")):
        assert s.index == i


def test_cleo_strategy_enumeration(cleo):
    assert names(cleo.strategies("Ann")) == ["N.U", "N.D", "S.U", "S.D"]
    assert names(cleo.strategies("Bob")) == ["W.L", "W.R", "E.L", "E.R"]
    assert names(cleo.strategies("Cleo")) == ["O.M1", "O.M2", "I.M1", "I.M2"]


def test_bribe_reaching(bribe):
    # Only bribing strategies of Ann let Bob move at all.
    assert names(bribe.strategies_reaching("Ann", "bob_after_b")) == ["B.P", "B.I"]
    # Ann's second infoset needs Bob to accept.
    assert names(bribe.strategies_reaching("Bob", "ann_after_ba")) == ["A"]
    assert names(bribe.strategies_reaching("Ann", "ann_after_ba")) == ["B.P", "B.I"]
    # Root is reached by everything.
    assert len(bribe.strategies_reaching("Ann", "ann_root")) == 4
    assert len(bribe.strategies_reaching("Bob", "ann_root")) == 2


def test_cleo_reaching(cleo):
    assert names(cleo.strategies_reaching("Cleo", "ann_after_i")) == ["I.M1", "I.M2"]
    assert names(cleo.strategies_reaching("Cleo", "bob_after_o")) == ["O.M1", "O.M2"]
    # Ann's own inner choice is off-path for reaching Bob's pooled infoset,
    # so every Ann strategy is consistent with it.
    assert len(cleo.strategies_reaching("Ann", "bob_after_i")) == 4


def test_compatible_infosets_dead_branch(bribe):
    non_bribers = [s for s in bribe.strategies("Ann") if s.name.startswith("N")]
    assert compatible_infosets(bribe, "Bob", {"Ann": non_bribers}) == []
    briber = [s for s in bribe.strategies("Ann") if s.name == "B.I"]
    assert compatible_infosets(bribe, "Bob", {"Ann": briber}) == ["bob_after_b"]


def test_compatible_infosets_cleo(cleo):
    opts_out = [s for s in cleo.strategies("Cleo") if s.name.startswith("O")]
    assert compatible_infosets(cleo, "Bob", {"Cleo": opts_out}) == ["bob_after_o"]
    assert compatible_infosets(cleo, "Ann", {"Cleo": opts_out}) == ["ann_after_o"]
    # The restricted player's own component counts as well: no O strategy
    # reaches Cleo's matrix choice.
    assert compatible_infosets(cleo, "Cleo", {"Cleo": opts_out}) == ["cleo_root"]
    assert compatible_infosets(cleo, "Cleo", {}) == ["cleo_root", "cleo_matrix"]


def test_immediate_predecessor(bribe, cleo):
    assert bribe.immediate_predecessor("ann_root") is None
    assert bribe.immediate_predecessor("bob_after_b") is None
    assert bribe.immediate_predecessor("ann_after_ba") == "ann_root"
    assert cleo.immediate_predecessor("cleo_matrix") == "cleo_root"
    assert cleo.immediate_predecessor("ann_after_i") is None


def test_own_history(bribe, cleo):
    assert bribe.own_history("ann_after_ba") == (("ann_root", 1),)
    assert cleo.own_history("cleo_matrix") == (("cleo_root", 1),)
    assert cleo.own_history("bob_after_i") == ()


def test_outcome_and_payoff(bribe, cleo):
    by_name = {s.name: s for s in bribe.strategies("Ann")}
    bob = {s.name: s for s in bribe.strategies("Bob")}
    leaf = bribe.outcome({"Ann": by_name["B.I"], "Bob": bob["A"]})
    assert leaf.name == "B/A/I"
    assert leaf.payoffs == (Fraction(1), Fraction(1))
    assert bribe.payoff("Bob", {"Ann": by_name["N.P"], "Bob": bob["R"]}) == 0

    ann = {s.name: s for s in cleo.strategies("Ann")}
    cbob = {s.name: s for s in cleo.strategies("Bob")}
    cc = {s.name: s for s in cleo.strategies("Cleo")}
    leaf = cleo.outcome({"Ann": ann["S.D"], "Bob": cbob["E.R"], "Cleo": cc["O.M1"]})
    assert leaf.name == "O/S/E"
    assert leaf.payoffs == (Fraction(2), Fraction(2), Fraction(4))


# The decimal-payoff game of test_dsl.py: one leaf worth 18/5.
DECIMAL = "game d\nplayers A\ntree\n  node r owner A\n    x -> leaf (3.6)\n"


def test_payoff_table_matches_the_tree_walk(bribe, cleo):
    """The payoff table is read by the belief engine and the oracle alike,
    so it is checked here against the independent walk `GameTree.payoff`
    at every profile and for every player, together with the belief space
    view, the float normal form, and the table's denominator."""
    games = [bribe, cleo, dsl.parse_game(DECIMAL)]
    games += [randgen.random_game(k, max_strategies=6) for k in range(1, 21)]
    assert games[2].payoff_table().denominators == [5]
    for game in games:
        table = game.payoff_table()
        tensors = stability.normal_form(game).tensors
        profiles = list(product(*(game.strategies(p) for p in game.players)))
        for k, p in enumerate(game.players):
            L = table.denominators[k]
            assert L == math.lcm(*(leaf.payoffs[k].denominator for leaf in game.leaves.values()))
            for combo in profiles:
                idx = tuple(s.index for s in combo)
                exact = game.payoff(p, combo)
                assert Fraction(table.numerators[k][table.leaf_of[idx]], L) == exact
                assert tensors[p][idx] == float(exact)
            sp = beliefs.space_for(game, p)
            for s in game.strategies(p):
                for t, opp in enumerate(sp.combos):
                    prof = dict({q.player: q for q in opp}, **{p: s})
                    assert Fraction(sp.numerators[s.index][t], L) == game.payoff(p, prof)


def test_profile_set_canonical_order(bribe):
    reversed_ann = list(reversed(bribe.strategies("Ann")))
    ps = ProfileSet(bribe, {"Ann": reversed_ann})
    assert names(ps.strategies("Ann")) == ["N.P", "N.I", "B.P", "B.I"]
    assert ps == ProfileSet.full(bribe)


def test_profile_set_empty_and_outcomes(bribe):
    ps = ProfileSet(bribe, {"Ann": []})
    assert ps.is_empty()
    assert list(ps.profiles()) == []
    assert ps.outcomes() == []

    full = ProfileSet.full(bribe)
    assert not full.is_empty()
    # First-reached order, no duplicates.
    outs = [leaf.name for leaf in full.outcomes()]
    assert outs == ["N", "B/R", "B/A/P", "B/A/I"]


def test_perfect_recall_violation():
    text = """
game forgetful
players A B
tree
  node r owner A
    x -> node m1 owner A
      c -> leaf (0, 0)
      d -> leaf (1, 0)
    y -> node m2 owner A
      c -> leaf (0, 0)
      d -> leaf (2, 0)
infosets
  second: A { m1 m2 }
"""
    with pytest.raises(PerfectRecallViolation):
        dsl.parse_game(text)


def test_infoset_pooling_across_action_lists():
    nodes = {
        "r": DecisionNode("r", "A", ("x", "y"), ("m", "L1")),
        "m": DecisionNode("m", "B", ("c",), ("L2",)),
    }
    leaves = {
        "L1": Leaf("L1", (Fraction(0), Fraction(0))),
        "L2": Leaf("L2", (Fraction(1), Fraction(0))),
    }
    infosets = {
        "h": InfoSet("h", "B", ("r", "m"), ("x", "y")),
        "hr": InfoSet("hr", "A", ("r",), ("x", "y")),
    }
    game = GameTree("bad", ("A", "B"), "r", nodes, leaves, infosets, ["hr", "h"])
    with pytest.raises(MalformedInfoSet):
        game.validate()


def test_dangling_child():
    nodes = {"r": DecisionNode("r", "A", ("x",), ("nowhere",))}
    infosets = {"r": InfoSet("r", "A", ("r",), ("x",))}
    game = GameTree("bad", ("A",), "r", nodes, {}, infosets, ["r"])
    with pytest.raises(DanglingNode):
        game.validate()


def test_plans_group_realization_equivalent_strategies(bribe, cleo):
    """A plan is a class of strategies that reach the same leaf against every
    opponent profile, named by its lowest index. Checked against the tree
    walk `GameTree.outcome`, and on the fixtures by name."""
    plan_names = {}
    for game, player in ((bribe, "Ann"), (cleo, "Cleo")):
        plans = game.payoff_table().plans(player)
        ss = game.strategies(player)
        plan_names[player] = sorted(
            {tuple(s.name for s in ss if plans[s.index] == rep) for rep in plans}
        )
    assert ("N.P", "N.I") in plan_names["Ann"]
    assert ("O.M1", "O.M2") in plan_names["Cleo"]
    assert len(plan_names["Ann"]) == 3 and len(plan_names["Cleo"]) == 3

    for game in [bribe, cleo] + [randgen.random_game(k, max_strategies=6) for k in range(1, 11)]:
        for p in game.players:
            plans = game.payoff_table().plans(p)
            others = list(product(*(game.strategies(q) for q in game.players if q != p)))
            ss = game.strategies(p)
            reached = {
                s.index: [
                    game.outcome(dict({q.player: q for q in opp}, **{p: s})).name
                    for opp in others
                ]
                for s in ss
            }
            for s in ss:
                same = [t.index for t in ss if reached[t.index] == reached[s.index]]
                assert plans[s.index] == min(same)
