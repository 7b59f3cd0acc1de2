"""Parser and serializer tests for the game and restriction formats."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fisolve import beliefs, dsl, randgen, solvers

from conftest import TANGLE


MINI = """
# one-shot matching game
game mini
players A B
tree
  node root owner A
    l -> node br owner B
      x -> leaf (1, 0)
      y -> leaf (0, 1)
    r -> leaf (1/2, 1/2)
"""


def test_parse_minimal_game():
    g = dsl.parse_game(MINI)
    assert g.name == "mini"
    assert g.players == ("A", "B")
    # Unlisted decision nodes become singleton infosets named after the node.
    assert g.infoset_order == ["root", "br"]
    assert g.leaves["l/x"].payoffs == (Fraction(1), Fraction(0))
    assert g.leaves["r"].payoffs == (Fraction(1, 2), Fraction(1, 2))


def test_game_round_trip(bribe, cleo):
    for g in (bribe, cleo):
        again = dsl.parse_game(dsl.serialize_game(g))
        assert again == g
        # Idempotent: serializing the reparse gives identical text.
        assert dsl.serialize_game(again) == dsl.serialize_game(g)


def test_random_games_round_trip():
    for seed in range(25):
        g = randgen.random_game(seed)
        assert dsl.parse_game(dsl.serialize_game(g)) == g


def test_decimal_payoffs_are_exact():
    g = dsl.parse_game(
        "game d\nplayers A\ntree\n  node r owner A\n    x -> leaf (3.6)\n"
    )
    assert g.leaves["x"].payoffs[0] == Fraction(18, 5)


REPEATS = """game rep
players A B
tree
  node root owner A
    l -> node br owner B
      x -> leaf (1/2, 0.5)
      y -> leaf (2/4, 1/2)
    r -> leaf (1/2,1/2)
"""


def test_repeated_payoff_literals():
    """Repeated and respelled literals parse to the same exact values and
    serialize to the same bytes; a bad literal after good repeats of its
    neighbours is reported on its own line."""
    g = dsl.parse_game(REPEATS)
    assert {leaf.payoffs for leaf in g.leaves.values()} == {(Fraction(1, 2),) * 2}
    assert dsl.serialize_game(g) == (
        "game rep\nplayers A B\ntree\n  node root owner A\n"
        "    l -> node br owner B\n      x -> leaf (1/2, 1/2)\n"
        "      y -> leaf (1/2, 1/2)\n    r -> leaf (1/2, 1/2)\n"
    )
    for bad, line in (("(2/4, 1/2)", 7), ("(1/2,1/2)", 8)):
        with pytest.raises(dsl.DslSyntaxError) as exc:
            dsl.parse_game(REPEATS.replace(bad, "(1/2, 1/0)"))
        assert exc.value.line == line
        assert "bad rational literal" in str(exc.value)


def test_duplicate_player_rejected():
    with pytest.raises(dsl.DslSyntaxError):
        dsl.parse_game("game g\nplayers A A\ntree\n  node r owner A\n    x -> leaf (1, 1)\n")


def test_unknown_owner_rejected():
    with pytest.raises(dsl.UnknownIdentifier):
        dsl.parse_game("game g\nplayers A\ntree\n  node r owner Z\n    x -> leaf (1)\n")


def test_payoff_arity_checked():
    with pytest.raises(dsl.ArityMismatch) as exc:
        dsl.parse_game(MINI.replace("(1, 0)", "(1, 0, 3)"))
    assert exc.value.line is not None


def test_tabs_rejected():
    with pytest.raises(dsl.DslSyntaxError):
        dsl.parse_game("game g\nplayers A\ntree\n\tnode r owner A\n\t\tx -> leaf (1)\n")


def test_duplicate_action_rejected():
    bad = """
game g
players A
tree
  node r owner A
    x -> leaf (1)
    x -> leaf (2)
"""
    with pytest.raises(dsl.DslSyntaxError):
        dsl.parse_game(bad)


def test_infoset_unknown_node():
    bad = MINI + "infosets\n  h: B { nope }\n"
    with pytest.raises(dsl.UnknownIdentifier):
        dsl.parse_game(bad)


def test_repeated_infoset_name_reported_at_its_line():
    text = (
        "game g\nplayers A B\ntree\n  node root owner A\n"
        "    l -> node b1 owner B\n      x -> leaf (1, 0)\n      y -> leaf (0, 1)\n"
        "    r -> node b2 owner B\n      x -> leaf (0, 1)\n      y -> leaf (1, 0)\n"
        "infosets\n  h: B { b1 }\n  h: B { b2 }\n"
    )
    with pytest.raises(dsl.DslSyntaxError) as exc:
        dsl.parse_game(text)
    assert exc.value.line == 13
    assert "infoset 'h' declared twice" in str(exc.value)
    # One declaration of each name still pools the nodes as before.
    g = dsl.parse_game(text.replace("h: B { b2 }", "k: B { b2 }"))
    assert g.infosets["h"].nodes == ("b1",) and g.infosets["k"].nodes == ("b2",)


# -- restrictions ----------------------------------------------------------


def test_parse_point_restriction(bribe):
    text = "player Ann\n  at ann_root: P[Bob = R] = 1\n"
    delta = dsl.parse_restrictions(text, bribe)
    clauses = delta.clauses_for("Ann")
    assert list(clauses) == ["ann_root"]
    cl = clauses["ann_root"][0]
    assert cl.op == "="
    assert cl.rhs == 1
    assert delta.clauses_for("Bob") == {}


def test_parse_linear_combination(cleo):
    text = (
        "restrictions for cleo\n"
        "player Cleo\n"
        "  at cleo_root: 2*P[Ann @ ann_after_o = N] - P[Bob @ bob_after_o = W] <= 3/2\n"
    )
    delta = dsl.parse_restrictions(text, cleo)
    cl = delta.clauses_for("Cleo")["cleo_root"][0]
    assert [c for c, _ in cl.terms] == [Fraction(2), Fraction(-1)]


def test_reach_sugar_expands_to_opponent_path(cleo):
    text = "player Cleo\n  at cleo_root: P[reach(O/N/W)] = 1\n"
    delta = dsl.parse_restrictions(text, cleo)
    cl = delta.clauses_for("Cleo")["cleo_root"][0]
    atoms = cl.terms[0][1].atoms
    # Own step (O at the root) is dropped; Ann's N and Bob's W remain.
    assert sorted(a[1] for a in atoms) == ["Ann", "Bob"]


def test_restriction_about_self_rejected(bribe):
    with pytest.raises(dsl.DslSyntaxError):
        dsl.parse_restrictions("player Ann\n  at ann_root: P[Ann = N.P] = 1\n", bribe)


def test_restriction_unknown_infoset(bribe):
    with pytest.raises(dsl.UnknownInfoset):
        dsl.parse_restrictions("player Ann\n  at bob_after_b: P[Bob = R] = 1\n", bribe)


def test_restriction_unknown_strategy(bribe):
    with pytest.raises(dsl.UnknownIdentifier):
        dsl.parse_restrictions("player Ann\n  at ann_root: P[Bob = Q] = 1\n", bribe)


def test_infeasible_clause_rejected(bribe):
    with pytest.raises(dsl.InfeasibleClause):
        dsl.parse_restrictions("player Ann\n  at ann_root: P[Bob = R] = 2\n", bribe)
    with pytest.raises(dsl.InfeasibleClause):
        dsl.parse_restrictions("player Ann\n  at ann_root: P[Bob = R] >= 3/2\n", bribe)


def test_restrictions_on_a_non_forest_game_rejected_at_parse():
    # The parser checks each clause with the solver's polytope check, which
    # builds the player's belief space and so refuses the structure at once.
    game = dsl.parse_game(TANGLE)
    with pytest.raises(beliefs.UnsupportedBeliefStructure):
        dsl.parse_restrictions("player Ann\n  at g: P[Bob = b2] <= 1/2\n", game)


def test_wrong_game_header(bribe):
    with pytest.raises(dsl.UnknownIdentifier):
        dsl.parse_restrictions("restrictions for other\nplayer Ann\n", bribe)


def test_restriction_fixture_sources(bribe, bribe_delta):
    clauses = bribe_delta.clauses_for("Ann")
    assert list(clauses) == ["ann_root"]
    assert [cl.source for cl in clauses["ann_root"]] == ["P[Bob @ bob_after_b = R] = 1"]


# -- solution serialization --------------------------------------------------


def test_serialize_solution_schema(bribe):
    trace = solvers.rationalizability(bribe)
    doc = json.loads(dsl.serialize_solution(trace))
    assert doc["schema"] == "fisolve.trace/1"
    assert doc["game"] == "bribe"
    assert doc["procedure"] == "rationalizability"
    assert doc["fixed_point_round"] == 3
    assert doc["rounds"][-1] == {"Ann": ["B.I"], "Bob": ["A"]}
    assert doc["outcomes"] == [
        {"leaf": "B/A/I", "payoffs": {"Ann": "1", "Bob": "1"}}
    ]
    assert doc["empty"] is False
    assert {e["strategy"] for e in doc["eliminations"]} == {"B.P", "R", "N.P", "N.I"}
    # Witness beliefs are exact rational strings keyed by opponent labels.
    assert doc["witnesses"]["Ann"]["B.I"]["ann_root"] == {"Bob=A": "1"}


def test_serialize_solution_deterministic(bribe):
    a = dsl.serialize_solution(solvers.rationalizability(bribe))
    b = dsl.serialize_solution(solvers.rationalizability(bribe))
    assert a == b


def test_serialize_solution_empty_run(bribe, bribe_delta):
    trace = solvers.selective_rationalizability(bribe, bribe_delta)
    doc = json.loads(dsl.serialize_solution(trace))
    assert doc["empty"] is True
    assert doc["outcomes"] == []
    assert doc["base"]["procedure"] == "rationalizability"
    assert doc["base"]["fixed_point_round"] == 3
    assert "Ann" not in doc["witnesses"]


json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(json_docs)
@example({"\u00e9t\u00e9 \"q\"\n": ["\u2603\t\\", {}, [], None, True, False, -7, 2**70],
          "": {"\x00\x1f\u2028": [[{}], "\ud83c\udf0d"]}})
def test_to_json_matches_json_dumps(doc):
    """The trace emitter writes the bytes of json.dumps(sort_keys, indent=2)."""
    assert dsl.to_json(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "doc", [1.5, Fraction(1, 2), ("a",), {1: "a"}, {"a": [1, {"b": 0.0}]}, {("k",): 1}]
)
def test_to_json_refuses_other_types(doc):
    with pytest.raises(TypeError):
        dsl.to_json(doc)
