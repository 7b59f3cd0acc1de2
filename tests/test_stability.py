"""Normal-form reduction, equilibrium checks and the perturbation lab."""

import json
import math

import numpy as np
import pytest

from fisolve.stability import (
    MixedStrategy,
    PerturbationSpec,
    SearchBudgetExceeded,
    StabilityError,
    expected_utility,
    find_equilibrium_near,
    is_nash,
    normal_form,
    perturb_game,
    pure_values,
    run_scenario,
)


W = 1 - 1 / math.sqrt(2)


def mix(game, player, weights):
    return MixedStrategy(game, player, weights)


@pytest.fixture(scope="module")
def nf(cleo):
    return normal_form(cleo)


@pytest.fixture(scope="module")
def sigma(cleo):
    return {
        "Ann": mix(cleo, "Ann", {"N.U": W, "N.D": 1 - W}),
        "Bob": mix(cleo, "Bob", {"W.L": W, "W.R": 1 - W}),
        "Cleo": mix(cleo, "Cleo", {"O.M1": 1}),
    }


@pytest.fixture(scope="module")
def sigma_prime(cleo):
    return {
        "Ann": mix(cleo, "Ann", {"N.U": 1 / 3, "N.D": 2 / 3}),
        "Bob": mix(cleo, "Bob", {"W.L": 1 / 3, "W.R": 2 / 3}),
        "Cleo": mix(cleo, "Cleo", {"O.M1": 1}),
    }


def test_mixed_strategy_validation(bribe):
    m = mix(bribe, "Ann", {"B.I": 0.25, "N.P": 0.75})
    assert m.weight("B.I") == 0.25
    assert m.as_dict() == {"N.P": 0.75, "B.I": 0.25}
    with pytest.raises(StabilityError):
        mix(bribe, "Ann", {"Z": 1})
    with pytest.raises(StabilityError):
        mix(bribe, "Ann", {"B.I": 0.5})
    with pytest.raises(StabilityError):
        mix(bribe, "Ann", {"B.I": 1.5, "N.P": -0.5})


def test_normal_form_matches_leaf_payoffs(bribe):
    nfb = normal_form(bribe)
    prof = {
        "Ann": mix(bribe, "Ann", {"B.I": 1}),
        "Bob": mix(bribe, "Bob", {"A": 1}),
    }
    assert expected_utility(nfb, prof, "Ann") == 1.0
    assert expected_utility(nfb, prof, "Bob") == 1.0
    vals = pure_values(nfb, prof, "Ann")
    assert list(map(float, vals)) == [0.0, 0.0, -1.0, 1.0]
    ok, regrets = is_nash(nfb, prof)
    assert ok and regrets == {"Ann": 0.0, "Bob": 0.0}


def test_bribe_bribing_profile_not_nash_when_rejected(bribe):
    nfb = normal_form(bribe)
    prof = {
        "Ann": mix(bribe, "Ann", {"B.I": 1}),
        "Bob": mix(bribe, "Bob", {"R": 1}),
    }
    ok, regrets = is_nash(nfb, prof)
    assert not ok
    # Staying out pays 0 and the rejected bribe costs 2.
    assert regrets["Ann"] == 2.0


def test_sigma_is_nash_with_cleo_indifferent_to_matrix_one(nf, sigma):
    ok, regrets = is_nash(nf, sigma, tol=1e-9)
    assert ok
    assert max(regrets.values()) < 1e-9
    vals = dict(zip(["O.M1", "O.M2", "I.M1", "I.M2"], pure_values(nf, sigma, "Cleo")))
    assert abs(vals["O.M1"] - 3.6) < 1e-12
    assert abs(vals["I.M1"] - 3.6) < 1e-9
    assert vals["I.M2"] < 3.6 - 1e-3


def test_sigma_prime_is_nash_with_cleo_indifferent_to_matrix_two(nf, sigma_prime):
    ok, _ = is_nash(nf, sigma_prime, tol=1e-9)
    assert ok
    vals = dict(
        zip(["O.M1", "O.M2", "I.M1", "I.M2"], pure_values(nf, sigma_prime, "Cleo"))
    )
    assert abs(vals["I.M2"] - 3.6) < 1e-9
    assert abs(vals["I.M1"] - 107 / 30) < 1e-9


def uniform_tremble(game):
    out = {}
    for p in game.players:
        n = len(game.strategies(p))
        out[p] = mix(game, p, {s.name: 1.0 / n for s in game.strategies(p)})
    return out


def test_zero_delta_keeps_game(nf, cleo):
    spec = PerturbationSpec(uniform_tremble(cleo), 0.0)
    pert = perturb_game(nf, spec)
    for p in nf.players:
        assert np.allclose(pert.tensors[p], nf.tensors[p], atol=0)


def test_perturbation_commutes_with_mixing(nf, cleo):
    """Trembling the pure strategies then mixing equals mixing then trembling."""
    rng = np.random.default_rng(7)
    spec = PerturbationSpec(uniform_tremble(cleo), {"Ann": 0.2, "Bob": 0.05, "Cleo": 0.5})
    pert = perturb_game(nf, spec)
    for _ in range(20):
        prof = {}
        pushed = {}
        for p in nf.players:
            raw = rng.random(4)
            raw /= raw.sum()
            names = [s.name for s in cleo.strategies(p)]
            prof[p] = mix(cleo, p, dict(zip(names, raw)))
            d = spec.deltas[p]
            target = spec.sigma_tilde[p].vector
            mat = (1 - d) * np.eye(4) + d * np.tile(target, (4, 1))
            pushed[p] = mix(cleo, p, dict(zip(names, mat.T @ raw)))
        for p in nf.players:
            a = expected_utility(pert, prof, p)
            b = expected_utility(nf, pushed, p)
            assert abs(a - b) < 1e-12


def test_tremble_target_must_be_completely_mixed(cleo):
    bad = uniform_tremble(cleo)
    bad["Cleo"] = mix(cleo, "Cleo", {"O.M1": 1})
    with pytest.raises(StabilityError):
        PerturbationSpec(bad, 1e-3)


def test_delta_bounded_by_delta0(cleo):
    with pytest.raises(StabilityError):
        PerturbationSpec(uniform_tremble(cleo), 0.01, delta0=0.001)


def test_perturbed_equilibrium_near_sigma(nf, cleo, sigma):
    spec = PerturbationSpec(uniform_tremble(cleo), 1e-3)
    pert = perturb_game(nf, spec)
    found = find_equilibrium_near(pert, sigma, epsilon=1e-2)
    assert found is not None
    ok, regrets = is_nash(pert, found, tol=1e-9)
    assert ok, regrets
    for p in nf.players:
        gap = np.max(np.abs(found[p].vector - sigma[p].vector))
        assert gap <= 1e-2


def test_search_budget_guard(nf, sigma):
    with pytest.raises(SearchBudgetExceeded):
        find_equilibrium_near(nf, sigma, epsilon=1e-2, budget=1)


def test_scenario_rejects_unknown_check(cleo):
    doc = {"profiles": {}, "checks": [{"check": "subgame-perfect"}]}
    with pytest.raises(StabilityError):
        run_scenario(cleo, json.loads(json.dumps(doc)))
