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
    ModelError,
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
    """The payoff table is read by the belief engine, the oracle and the lab
    alike, so it is checked here against the independent walk `GameTree.payoff`
    at every profile and for every player: its rows, its leaf positions, the
    belief space view, the float normal form, and the table's denominator."""
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
            rows, positions = table.rows(p), table.positions(p)
            sp = beliefs.space_for(game, p)
            combo_index = {opp: t for t, opp in enumerate(sp.combos)}
            for combo in profiles:
                own = combo[k].index
                t = combo_index[combo[:k] + combo[k + 1:]]
                exact = game.payoff(p, combo)
                assert Fraction(rows[own][t], L) == exact
                assert Fraction(sp.numerators[own][t], L) == exact
                assert table.leaves[positions[own][t]] == game.outcome(combo)
                assert tensors[p][tuple(s.index for s in combo)] == float(exact)


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


# -- validate(): one case per error ---------------------------------------------


def _base_tree():
    """A valid two-player tree: A moves at r (x to B's m, y to a leaf), then
    B at m. Each case below edits one part of it."""
    nodes = {
        "r": DecisionNode("r", "A", ("x", "y"), ("m", "L1")),
        "m": DecisionNode("m", "B", ("c", "d"), ("L2", "L3")),
    }
    leaves = {
        n: Leaf(n, (Fraction(k), Fraction(0))) for k, n in enumerate(("L1", "L2", "L3"))
    }
    infosets = {
        "hr": InfoSet("hr", "A", ("r",), ("x", "y")),
        "hm": InfoSet("hm", "B", ("m",), ("c", "d")),
    }
    return {"players": ("A", "B"), "root": "r", "nodes": nodes, "leaves": leaves,
            "infosets": infosets, "order": ["hr", "hm"]}


def _node(t, name, **kw):
    n = t["nodes"][name]
    fields = {"name": n.name, "owner": n.owner, "actions": n.actions, "children": n.children}
    t["nodes"][name] = DecisionNode(**dict(fields, **kw))


def _cycle(t):
    # a and b reference each other: every name but the root is referenced
    # once, yet neither is reachable from the root.
    for name, child in (("a", "b"), ("b", "a")):
        t["nodes"][name] = DecisionNode(name, "A", ("z",), (child,))
        t["infosets"][name] = InfoSet(name, "A", (name,), ("z",))
        t["order"].append(name)


def _recall_tree(t):
    # A forgets at the pooled set {p, q} whether it chose x or y at r.
    t["nodes"] = {
        "r": DecisionNode("r", "A", ("x", "y"), ("p", "q")),
        "p": DecisionNode("p", "A", ("c", "d"), ("L1", "L2")),
        "q": DecisionNode("q", "A", ("c", "d"), ("L3", "L4")),
    }
    t["leaves"]["L4"] = Leaf("L4", (Fraction(0), Fraction(0)))
    t["infosets"] = {
        "hr": InfoSet("hr", "A", ("r",), ("x", "y")),
        "hpq": InfoSet("hpq", "A", ("p", "q"), ("c", "d")),
    }
    t["order"] = ["hr", "hpq"]


VALIDATE_CASES = [
    ("no players", lambda t: t.update(players=()), ModelError, "game has no players"),
    ("duplicate players", lambda t: t.update(players=("A", "A")),
     ModelError, "duplicate player names"),
    ("root not a node", lambda t: t.update(root="L1"),
     DanglingNode, "root 'L1' is not a decision node"),
    ("node and leaf share a name",
     lambda t: t["leaves"].update(m=Leaf("m", (Fraction(0), Fraction(0)))),
     ModelError, "a name is used for both a node and a leaf"),
    ("unknown owner", lambda t: _node(t, "m", owner="C"),
     ModelError, "node 'm' owned by unknown player 'C'"),
    ("no actions", lambda t: _node(t, "m", actions=(), children=()),
     MalformedInfoSet, "node 'm' has no actions"),
    ("repeated action", lambda t: _node(t, "m", actions=("c", "c")),
     MalformedInfoSet, "node 'm' repeats an action label"),
    ("actions and children differ", lambda t: _node(t, "m", children=("L2",)),
     ModelError, "node 'm' actions/children mismatch"),
    ("dangling child", lambda t: _node(t, "m", children=("L2", "nowhere")),
     DanglingNode, "node 'm' references unknown child 'nowhere'"),
    ("child referenced twice", lambda t: _node(t, "m", children=("L2", "L2")),
     DanglingNode, "child 'L2' referenced twice"),
    ("unreachable leaf",
     lambda t: t["leaves"].update(L9=Leaf("L9", (Fraction(0), Fraction(0)))),
     DanglingNode, "node 'L9' is unreachable"),
    ("root as a child", lambda t: _node(t, "m", children=("L2", "r")),
     DanglingNode, "root 'r' appears as a child"),
    ("cycle off the root", _cycle, DanglingNode, "node 'a' is unreachable"),
    ("payoff arity", lambda t: t["leaves"].update(L2=Leaf("L2", (Fraction(1),))),
     ModelError, "leaf 'L2' has 1 payoffs for 2 players"),
    ("infoset of an unknown player",
     lambda t: t["infosets"].update(hm=InfoSet("hm", "C", ("m",), ("c", "d"))),
     MalformedInfoSet, "infoset 'hm' owned by unknown player"),
    ("empty infoset", lambda t: t["infosets"].update(hm=InfoSet("hm", "B", (), ("c", "d"))),
     MalformedInfoSet, "infoset 'hm' is empty"),
    ("infoset lists an unknown node",
     lambda t: t["infosets"].update(hm=InfoSet("hm", "B", ("m", "zz"), ("c", "d"))),
     MalformedInfoSet, "infoset 'hm' lists unknown node 'zz'"),
    ("infoset pools another player's node",
     lambda t: t["infosets"].update(hm=InfoSet("hm", "A", ("m",), ("c", "d"))),
     MalformedInfoSet, "infoset 'hm' pools node 'm' of another player"),
    ("infoset action list differs",
     lambda t: t["infosets"].update(hm=InfoSet("hm", "B", ("m",), ("c", "e"))),
     MalformedInfoSet, "infoset 'hm' pools nodes with different action lists"),
    ("node listed twice in one infoset",
     lambda t: t["infosets"].update(hm=InfoSet("hm", "B", ("m", "m"), ("c", "d"))),
     MalformedInfoSet, "node 'm' is in two infosets"),
    ("node in two infosets",
     lambda t: (t["infosets"].update(h2=InfoSet("h2", "B", ("m",), ("c", "d"))),
                t["order"].append("h2")),
     MalformedInfoSet, "node 'm' is in two infosets"),
    ("node in no infoset", lambda t: (t["infosets"].pop("hm"), t["order"].remove("hm")),
     MalformedInfoSet, "decision node 'm' belongs to no infoset"),
    ("recall violation", _recall_tree,
     PerfectRecallViolation, "infoset 'hpq' pools nodes with different own histories"),
]


@pytest.mark.parametrize(
    "edit, error, message", [c[1:] for c in VALIDATE_CASES], ids=[c[0] for c in VALIDATE_CASES]
)
def test_validate_rejects(edit, error, message):
    t = _base_tree()
    GameTree("ok", t["players"], t["root"], t["nodes"], t["leaves"], t["infosets"],
             t["order"]).validate()
    edit(t)
    game = GameTree("bad", t["players"], t["root"], t["nodes"], t["leaves"], t["infosets"],
                    t["order"])
    with pytest.raises(ModelError) as exc:
        game.validate()
    assert type(exc.value) is error
    assert str(exc.value) == message


# -- reach sets against a walk of every profile ------------------------------------


def _profile_walk_reach(game):
    """For every infoset h and player p: the strategies of p, and the
    opponent combos (flat index, the other players in player order,
    rightmost fastest), that occur in some full profile whose play passes
    through a node of h. Plain walks from the root, one per profile."""
    pos = {h: game.player_infosets[game.infosets[h].owner].index(h) for h in game.infosets}
    of_node = {nn: h for h, info in game.infosets.items() for nn in info.nodes}
    own = {h: {p: set() for p in game.players} for h in game.infosets}
    joint = {h: {p: set() for p in game.players} for h in game.infosets}
    sizes = [len(game.strategies(p)) for p in game.players]
    for profile in product(*(game.strategies(p) for p in game.players)):
        flat = {}
        for k, p in enumerate(game.players):
            t = 0
            for j, s in enumerate(profile):
                if j != k:
                    t = t * sizes[j] + s.index
            flat[p] = t
        by_player = {s.player: s for s in profile}
        cur = game.root
        while cur in game.nodes:
            h = of_node[cur]
            for k, p in enumerate(game.players):
                own[h][p].add(profile[k].index)
                joint[h][p].add(flat[p])
            node = game.nodes[cur]
            cur = node.children[by_player[node.owner].choices[pos[h]]]
    return own, joint


def test_reach_sets_match_a_profile_walk():
    """strategies_reaching, joint_reaching and the belief space's event
    masks and alternatives, against the walk of every profile, over random
    games of 2 and 3 players in each generator shape."""
    shapes = {"n0": "tree", "br": "block", "root": "block-tree"}
    seen = set()
    for seed in range(40):
        game = randgen.random_game(seed, max_strategies=6)
        seen.add((len(game.players), shapes[game.root]))
        own, joint = _profile_walk_reach(game)
        for h in game.infoset_order:
            for p in game.players:
                assert [s.index for s in game.strategies_reaching(p, h)] == sorted(own[h][p])
                assert game.joint_reaching(p, h) == sorted(joint[h][p])
        for p in game.players:
            sp = beliefs.space_for(game, p)
            for h in game.player_infosets[p]:
                assert sp.event_mask[h] == sum(1 << t for t in joint[h][p])
                assert sp.alts[h] == tuple(sorted(own[h][p]))
    assert seen == {(n, shape) for n in (2, 3) for shape in shapes.values()}
