"""Grid-search cross-validation of the belief-feasibility engine.

The oracle shares no code with the pattern/LP search: it enumerates
conditional tables over a rational grid and checks the chain rule literally.
"""

import pytest

from fisolve import beliefs, dsl, oracle, solvers


def strat(game, player, name):
    for s in game.strategies(player):
        if s.name == name:
            return s
    raise KeyError(name)


def test_grid_steps():
    # Denominators that are not divisors of a larger listed one.
    assert oracle.grid_steps(1) == [1]
    assert oracle.grid_steps(2) == [2]
    assert oracle.grid_steps(4) == [3, 4]
    assert oracle.grid_steps(6) == [4, 5, 6]
    assert oracle.grid_steps(12) == [7, 8, 9, 10, 11, 12]


def test_oracle_finds_witness(bribe):
    cps = oracle.oracle_cps_search(bribe, "Ann", strat(bribe, "Ann", "B.I"))
    assert cps is not None
    assert beliefs.is_valid_cps(bribe, "Ann", cps)
    assert beliefs.sequential_best_reply(
        bribe, "Ann", strat(bribe, "Ann", "B.I"), cps
    )


def test_oracle_rejects_dominated(bribe):
    assert oracle.oracle_cps_search(bribe, "Ann", strat(bribe, "Ann", "B.P")) is None


def test_oracle_respects_mandates_and_restrictions(bribe, bribe_delta):
    bob_a = strat(bribe, "Bob", "A")
    item = beliefs.strong_belief_mandate(bribe, "Ann", "sb A", "Bob", [bob_a])
    assert (
        oracle.oracle_cps_search(bribe, "Ann", strat(bribe, "Ann", "N.P"), [item])
        is None
    )
    assert (
        oracle.oracle_cps_search(
            bribe, "Ann", strat(bribe, "Ann", "N.P"), (), bribe_delta
        )
        is not None
    )
    assert (
        oracle.oracle_cps_search(
            bribe, "Ann", strat(bribe, "Ann", "B.I"), (), bribe_delta
        )
        is None
    )


def test_concordance_bribe_unconstrained(bribe):
    for player in bribe.players:
        for s in bribe.strategies(player):
            verdict = oracle.concordance_verdict(bribe, player, s)
            assert verdict in ("agree-witness", "agree-none")


def test_concordance_with_restrictions(bribe, bribe_delta):
    for s in bribe.strategies("Ann"):
        verdict = oracle.concordance_verdict(
            bribe, "Ann", s, restrictions=bribe_delta
        )
        assert verdict in ("agree-witness", "agree-none")


def test_concordance_under_mandates(bribe):
    bob_a = strat(bribe, "Bob", "A")
    item = beliefs.strong_belief_mandate(bribe, "Ann", "sb A", "Bob", [bob_a])
    assert (
        oracle.concordance_verdict(bribe, "Ann", strat(bribe, "Ann", "B.I"), [item])
        == "agree-witness"
    )
    assert (
        oracle.concordance_verdict(bribe, "Ann", strat(bribe, "Ann", "N.P"), [item])
        == "agree-none"
    )


def test_concordance_cleo_low_denominator(cleo):
    """Even the coarse half-integer grid certifies the full Cleo strategy set."""
    for s in cleo.strategies("Cleo"):
        assert (
            oracle.concordance_verdict(cleo, "Cleo", s, denominator=2)
            == "agree-witness"
        )


def test_grid_too_coarse_is_possible(bribe):
    """A threshold needing thirds is invisible on the D=2 grid.

    B.I is optimal only where P(A) >= 2/3; capping P(A) at 2/3 leaves exactly
    one admissible point, which the engine finds and the halves grid cannot.
    """
    pin = dsl.parse_restrictions(
        "player Ann\n  at ann_root: P[Bob = A] <= 2/3\n", bribe
    )
    verdict = oracle.concordance_verdict(
        bribe, "Ann", strat(bribe, "Ann", "B.I"), (), pin, denominator=2
    )
    assert verdict == "grid-too-coarse"
    # The default denominator includes thirds and settles it.
    assert (
        oracle.concordance_verdict(
            bribe, "Ann", strat(bribe, "Ann", "B.I"), (), pin, denominator=4
        )
        == "agree-witness"
    )


def test_equality_clause_on_the_threshold(bribe):
    """An equality clause leaves a single point, so the oracle must check
    it exactly. B.I is optimal at ann_root iff P(A) >= 2/3: pinned at 2/3
    it survives on the D=4 grid only; pinned at 1/3 it has no witness."""
    b_i = strat(bribe, "Ann", "B.I")

    def verdict(text, denominator):
        pin = dsl.parse_restrictions("player Ann\n  at ann_root: %s\n" % text, bribe)
        return oracle.concordance_verdict(bribe, "Ann", b_i, (), pin, denominator)

    assert verdict("P[Bob = A] = 2/3", 4) == "agree-witness"
    assert verdict("P[Bob = A] = 2/3", 2) == "grid-too-coarse"
    assert verdict("P[Bob = A] = 1/3", 4) == "agree-none"


def test_contradictory_restrictions_agree_none(bribe):
    text = (
        "player Ann\n"
        "  at ann_root: P[Bob = R] >= 2/3\n"
        "  at ann_root: P[Bob = A] >= 2/3\n"
    )
    delta = dsl.parse_restrictions(text, bribe)
    # The engine raises EmptyPolytope; the verdict treats that as "no witness"
    # and the oracle grid confirms.
    assert (
        oracle.concordance_verdict(
            bribe, "Ann", strat(bribe, "Ann", "N.P"), (), delta
        )
        == "agree-none"
    )


def test_full_round_replay_agrees(bribe, cleo, cleo_nw, cleo_base):
    """Every keep/eliminate decision of two full runs, re-asked on the grid
    with the obligations each round's queries carried."""
    count = 0
    for game, delta, trace in (
        (bribe, None, solvers.rationalizability(bribe)),
        (cleo, cleo_nw, solvers.selective_rationalizability(cleo, cleo_nw, base=cleo_base)),
    ):
        for n in range(1, len(trace.rounds)):
            for player in game.players:
                for s in trace.rounds[n - 1].strategies(player):
                    verdict = oracle.concordance_verdict(
                        game, player, s, trace.mandates[n][player], delta
                    )
                    assert verdict in ("agree-witness", "agree-none")
                    count += 1
    assert count > 30
