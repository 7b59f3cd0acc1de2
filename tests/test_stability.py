"""Normal-form reduction, equilibrium checks and the perturbation lab."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fisolve import dsl, randgen, stability
from fisolve.stability import (
    MixedStrategy,
    PerturbationSpec,
    SearchBudgetExceeded,
    StabilityError,
    expected_utility,
    find_equilibrium_near,
    is_nash,
    normal_form,
    parse_scenario,
    perturb_game,
    pure_values,
    run_scenario,
)

from conftest import read


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
        mix(bribe, "Zed", {"B.I": 1})
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


def _reference_perturbation(nf, spec):
    """Each player's tremble matrix applied on its axis of every tensor."""
    tensors = {}
    for p in nf.players:
        t = nf.tensors[p]
        for axis, q in enumerate(nf.players):
            n = nf.shape[axis]
            d = spec.deltas.get(q, 0.0)
            mat = (1 - d) * np.eye(n) + d * np.outer(np.ones(n), spec.sigma_tilde[q].vector)
            t = np.moveaxis(np.tensordot(mat, t, axes=([1], [axis])), 0, axis)
        tensors[p] = t
    return tensors


def _random_tremble(game, rng):
    """A non-uniform completely mixed profile."""
    out = {}
    for p in game.players:
        names = [s.name for s in game.strategies(p)]
        raw = rng.random(len(names)) + 0.05
        out[p] = mix(game, p, dict(zip(names, raw / raw.sum())))
    return out


def test_perturbation_matches_the_tremble_matrices():
    """On random games of two and three players, with per-player deltas that
    include 0 and non-uniform completely mixed trembles, the perturbed tensors
    are the tremble matrices applied on every axis. A player with delta 0
    leaves their axis exact: their tremble target changes no bit."""
    rng = np.random.default_rng(11)
    counts = {2: 0, 3: 0}
    for seed in range(1, 40):
        game = randgen.random_game(seed, max_strategies=4)
        nfg = normal_form(game)
        counts[len(game.players)] += 1
        deltas = dict(zip(game.players, rng.choice([0.0, 1e-3, 0.1, 0.4], len(game.players))))
        still = game.players[seed % len(game.players)]
        deltas[still] = 0.0
        sigma_tilde = _random_tremble(game, rng)
        pert = perturb_game(nfg, PerturbationSpec(sigma_tilde, deltas))
        expected = _reference_perturbation(nfg, PerturbationSpec(sigma_tilde, deltas))
        for p in game.players:
            np.testing.assert_allclose(pert.tensors[p], expected[p], rtol=0, atol=1e-12)
        other = dict(sigma_tilde, **{still: _random_tremble(game, rng)[still]})
        again = perturb_game(nfg, PerturbationSpec(other, deltas))
        for p in game.players:
            assert np.array_equal(again.tensors[p], pert.tensors[p])
    assert counts[2] and counts[3]


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


def test_biased_tremble_refutes_every_support_near_se(nf, cleo, sigma, monkeypatch):
    """The scenario's ninth check: with Cleo trembling mostly onto I.M2, no
    support combination near the three SE profiles survives conditional
    dominance, so none reaches the root finder; sigma is still found."""
    calls = []
    real = stability.least_squares

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(stability, "least_squares", counted)
    scenario = parse_scenario(read("cleo_stability.scenario"))
    check = scenario["checks"][8]
    tremble = stability._profile_from_doc(cleo, check["tremble"])
    pert = perturb_game(nf, PerturbationSpec(tremble, check["delta"]))
    for name in ("se_low", "se_high", "se_pure"):
        target = stability._profile_from_doc(cleo, scenario["profiles"][name])
        assert find_equilibrium_near(pert, target, epsilon=1e-2) is None
    assert calls == []
    assert find_equilibrium_near(pert, sigma, epsilon=1e-2) is not None
    assert len(calls) >= 1


def test_rank_deficient_support_system_converges_fast(nf, cleo, monkeypatch):
    """The scenario's found check near sigma. With Cleo on O.M1 alone, Ann's
    and Bob's indifference rows are constant, so the support Jacobian is
    rank-deficient. Levenberg-Marquardt takes the Gauss-Newton step on such
    a system and stops within a few residual evaluations; trf scales every
    step to its trust radius, converges linearly and needed 159."""
    nfev = []
    real = stability.least_squares

    def counted(*args, **kwargs):
        sol = real(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(stability, "least_squares", counted)
    scenario = parse_scenario(read("cleo_stability.scenario"))
    check = scenario["checks"][7]
    tremble = stability._profile_from_doc(cleo, check["tremble"])
    pert = perturb_game(nf, PerturbationSpec(tremble, check["delta"]))
    target = stability._profile_from_doc(cleo, scenario["profiles"]["sigma"])
    found = find_equilibrium_near(pert, target, epsilon=1e-2)
    assert found is not None
    assert nfev and sum(nfev) <= 10


def test_box_vertices():
    """Mixes on a support within epsilon of the target: a hexagon here; empty
    when the target puts more than epsilon outside the support or the
    support cannot carry enough mass."""
    target = np.array([0.5, 0.3, 0.2, 0.0])
    got = stability._box_vertices(target, (0, 1, 2), 0.1)
    hexagon = [
        (0.4, 0.3, 0.3, 0), (0.4, 0.4, 0.2, 0), (0.5, 0.2, 0.3, 0),
        (0.5, 0.4, 0.1, 0), (0.6, 0.2, 0.2, 0), (0.6, 0.3, 0.1, 0),
    ]
    assert np.allclose(got, hexagon, atol=1e-12)
    assert len(stability._box_vertices(target, (0, 1), 0.1)) == 0
    spread = np.array([0.7, 0.1, 0.1, 0.1])
    assert len(stability._box_vertices(spread, (0,), 0.1)) == 0
    assert np.array_equal(
        stability._box_vertices(np.array([1.0, 0.0]), (0,), 0.01), [[1.0, 0.0]]
    )


def test_search_budget_guard(nf, sigma):
    with pytest.raises(SearchBudgetExceeded):
        find_equilibrium_near(nf, sigma, epsilon=1e-2, budget=1)


def test_scenario_rejects_unknown_check(cleo):
    doc = {"profiles": {}, "checks": [{"check": "subgame-perfect"}]}
    with pytest.raises(StabilityError):
        run_scenario(cleo, json.loads(json.dumps(doc)))


# -- conditional dominance never refutes a hit -------------------------------------


def _simultaneous_game(sizes, payoffs):
    """Player k picks one of sizes[k] actions without seeing the earlier
    moves; payoffs list the action profiles in lexicographic order."""
    players = ["P%d" % (k + 1) for k in range(len(sizes))]
    lines = ["game nf", "players %s" % " ".join(players), "tree", "  node n owner P1"]
    pools = [[] for _ in sizes]
    cells = iter(payoffs)

    def grow(k, name, indent):
        pad = "  " * indent
        for a in range(sizes[k]):
            label = "%s%d" % ("abc"[k], a)
            if k + 1 == len(sizes):
                leaf = ", ".join(str(v) for v in next(cells))
                lines.append("%s%s -> leaf (%s)" % (pad, label, leaf))
            else:
                child = "%s%d" % (name, a)
                pools[k + 1].append(child)
                lines.append(
                    "%s%s -> node %s owner %s" % (pad, label, child, players[k + 1])
                )
                grow(k + 1, child, indent + 1)

    grow(0, "n", 2)
    lines.append("infosets")
    for k in range(1, len(sizes)):
        lines.append("  h%d: %s { %s }" % (k, players[k], " ".join(pools[k])))
    return dsl.parse_game("\n".join(lines) + "\n")


@st.composite
def lab_games(draw):
    """A random normal form of two or three players, trembled uniformly.
    Three-player forms stop at three strategies each, so that the unpruned
    reference search stays within a second."""
    nplayers = draw(st.sampled_from((2, 3)))
    most = 4 if nplayers == 2 else 3
    sizes = [draw(st.integers(2, most)) for _ in range(nplayers)]
    cells = int(np.prod(sizes))
    payoffs = draw(
        st.lists(
            st.tuples(*[st.integers(0, 6)] * nplayers), min_size=cells, max_size=cells
        )
    )
    game = _simultaneous_game(sizes, payoffs)
    return perturb_game(game, PerturbationSpec(uniform_tremble(game), 1e-3))


@st.composite
def lab_cases(draw):
    """A trembled random normal form, a pure or mixed target, an epsilon."""
    pert = draw(lab_games())
    game = pert.game
    sizes = pert.shape
    target = {}
    for p, n in zip(game.players, sizes):
        if draw(st.booleans()):
            raw = [0] * n
            raw[draw(st.integers(0, n - 1))] = 1
        else:
            raw = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
        names = [s.name for s in game.strategies(p)]
        target[p] = mix(game, p, {a: w / sum(raw) for a, w in zip(names, raw)})
    # Most random targets are far from every equilibrium. Pulling some onto
    # or near one puts hits and near misses at the edge of the box. The
    # anchor is a root on up to three strategies each when there is one,
    # else the first hit from the uniform profile, which tries the widest
    # supports first.
    pull = draw(st.sampled_from((None, 1.0, 0.95, 0.7)))
    anchor = None
    if pull:
        uniform = uniform_tremble(game)
        support = tuple(tuple(range(min(n, 3))) for n in sizes)
        vecs = stability._vectors(pert, uniform)
        anchor = stability._solve_support(pert, support, vecs, 1e-9)
        if anchor is None:
            found = find_equilibrium_near(pert, uniform, 1.0)
            if found is not None:
                anchor = [found[p].vector for p in game.players]
    if anchor is not None:
        target = {
            p: mix(game, p, {
                s.name: pull * anchor[k][s.index] + (1 - pull) * target[p].weight(s.name)
                for s in game.strategies(p)
            })
            for k, p in enumerate(game.players)
        }
    epsilon = draw(st.sampled_from((0.01, 0.1, 0.5)))
    return pert, target, epsilon, draw(st.randoms(use_true_random=False))


def _close_root(nf, combo, vecs, epsilon):
    found = stability._solve_support(nf, combo, vecs, 1e-9)
    if found is None:
        return None
    if all(np.max(np.abs(f - v)) <= epsilon for f, v in zip(found, vecs)):
        return found
    return None


def _unpruned(nf, target, epsilon):
    """The search before refutation: only the quick reject of target mass
    above epsilon outside the support, then a root find per combination."""
    vecs = stability._vectors(nf, target)
    orders = [
        stability._support_orders(nf.shape[k], vecs[k], 3)
        for k in range(len(nf.players))
    ]
    for combo in itertools.product(*orders):
        if any(
            max((vecs[k][i] for i in range(nf.shape[k]) if i not in supp), default=0.0)
            > epsilon
            for k, supp in enumerate(combo)
        ):
            continue
        found = _close_root(nf, combo, vecs, epsilon)
        if found is not None:
            return {
                p: {s.name: float(found[k][s.index])
                    for s in nf.game.strategies(p) if found[k][s.index] > 0}
                for k, p in enumerate(nf.players)
            }
    return None


def _refuted(nf, combo, vecs, epsilon):
    boxes = [
        stability._box_vertices(vecs[k], supp, epsilon) for k, supp in enumerate(combo)
    ]
    if any(len(b) == 0 for b in boxes):
        return True
    margin = stability._dominance_margin(nf)
    return any(
        stability._dominated(nf, k, boxes, margin).intersection(supp)
        for k, supp in enumerate(combo)
    )


def test_gain_within_root_tolerance_is_not_refuted():
    """a1 beats a0 by 1e-11 everywhere, below the root finder's 1e-10
    residual tolerance, so the root finder accepts the even mix; the margin
    must keep that support."""
    tiny = "100000000001/100000000000"
    game = _simultaneous_game([2, 2], [(1, 0), (1, 0), (tiny, 0), (tiny, 0)])
    target = {"P1": mix(game, "P1", {"a0": 0.5, "a1": 0.5}),
              "P2": mix(game, "P2", {"b0": 1.0})}
    found = find_equilibrium_near(game, target, 0.1)
    assert found is not None
    assert found["P1"].as_dict() == {"a0": 0.5, "a1": 0.5}


@given(case=lab_cases())
@settings(max_examples=20, deadline=None)
def test_refutation_is_sound(case):
    """The pruned search returns what the unpruned one returns, and up to
    five sampled refuted combinations have no close root either."""
    nf, target, epsilon, rng = case
    found = find_equilibrium_near(nf, target, epsilon)
    expected = _unpruned(nf, target, epsilon)
    if expected is None:
        assert found is None
    else:
        assert {p: m.as_dict() for p, m in found.items()} == expected
    vecs = stability._vectors(nf, target)
    orders = [
        stability._support_orders(nf.shape[k], vecs[k], 3)
        for k in range(len(nf.players))
    ]
    refuted = [
        combo for combo in itertools.product(*orders)
        if _refuted(nf, combo, vecs, epsilon)
    ]
    for combo in rng.sample(refuted, min(5, len(refuted))):
        assert _close_root(nf, combo, vecs, epsilon) is None


# -- the root finder's support system ----------------------------------------------


def _reference_residual(nf, supports, z):
    """The support conditions row by row, from pure_values."""
    vecs, rows, at = [], [], 0
    for n, supp in zip(nf.shape, supports):
        v = np.zeros(n)
        v[list(supp)] = z[at : at + len(supp)]
        vecs.append(v)
        at += len(supp)
    profile = dict(zip(nf.players, vecs))
    for k, (p, supp) in enumerate(zip(nf.players, supports)):
        w = vecs[k][list(supp)]
        values = pure_values(nf, profile, p)
        rows.append(w.sum() - 1.0)
        rows.extend(np.minimum(w, 0.0))
        rows.extend(values[i] - values[supp[0]] for i in supp[1:])
        least = min(values[i] for i in supp)
        rows.extend(max(0.0, values[i] - least) for i in range(nf.shape[k]) if i not in supp)
    return np.array(rows), [pure_values(nf, profile, p) for p in nf.players]


@given(nf=lab_games(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_support_jacobian_matches_central_differences(nf, data):
    """At a point inside the support simplex, away from the kinks of the
    min and max rows, the residual has the reference rows in their order
    and the analytic Jacobian matches central differences. The residual is
    linear in each single weight there, so only rounding separates them."""
    supports = tuple(
        tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 3)))))
        for n in nf.shape
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    z = np.concatenate([rng.dirichlet(np.ones(len(s))) for s in supports])
    expected, values = _reference_residual(nf, supports, z)
    for supp, v in zip(supports, values):
        inside = np.sort(v[list(supp)])
        gaps = [abs(v[i] - inside[0]) for i in range(len(v)) if i not in supp]
        gaps += list(inside[1:2] - inside[0])
        assume(all(g > 1e-4 for g in gaps))
    residual, jacobian = stability._support_system(nf, supports)
    assert np.allclose(residual(z), expected, rtol=0, atol=1e-12)
    analytic = jacobian(z)
    h = 1e-6
    central = np.stack(
        [(residual(z + h * e) - residual(z - h * e)) / (2 * h) for e in np.eye(len(z))],
        axis=1,
    )
    np.testing.assert_allclose(analytic, central, rtol=1e-6, atol=1e-8)
    assert np.array_equal(stability._support_system(nf, supports)[1](z), analytic)


def test_exact_start_makes_no_least_squares_call(monkeypatch):
    """A strict pure equilibrium as the target solves its own support with
    residual exactly 0, so the search accepts it without least_squares.
    From that start least_squares returns the start itself after one
    residual evaluation and no Jacobian, so the profile is the same."""
    game = _simultaneous_game([2, 2], [(3, 3), (0, 5), (5, 0), (1, 1)])
    pert = perturb_game(game, PerturbationSpec(uniform_tremble(game), 1e-3))
    target = {"P1": mix(game, "P1", {"a1": 1}), "P2": mix(game, "P2", {"b1": 1})}
    calls = []
    real = stability.least_squares

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(stability, "least_squares", counted)
    found = find_equilibrium_near(pert, target, epsilon=1e-2)
    assert calls == []
    assert {p: m.as_dict() for p, m in found.items()} == {
        "P1": {"a1": 1.0}, "P2": {"b1": 1.0}
    }
    residual, jacobian = stability._support_system(pert, ((1,), (1,)))
    start = np.ones(2)
    assert not np.any(residual(start))
    jacobians = []

    def counted_jacobian(z):
        jacobians.append(1)
        return jacobian(z)

    sol = real(residual, start, counted_jacobian)
    assert np.array_equal(sol.x, start)
    assert sol.nfev == 1
    assert jacobians == []


def test_least_squares_stops_within_its_budget():
    """exp(-x) has no root. Each Gauss-Newton step adds 1 to x and lowers
    the residual by the factor e, so only the budget of 100 (n + 1) residual
    evaluations stops the search, long before the residual underflows."""
    sol = stability.least_squares(
        lambda x: np.exp(-x), np.zeros(2), lambda x: -np.diag(np.exp(-x))
    )
    assert sol.nfev == 300
    assert np.allclose(sol.x, 299.0)


def test_least_squares_damps_an_overshooting_step():
    """From x = 2 the Gauss-Newton step on arctan lands near -3.5, where the
    residual is larger. That step is rejected and lam grows until a step
    lowers the residual, so the search still reaches the root at 0."""
    sol = stability.least_squares(
        np.arctan, np.array([2.0]), lambda x: np.diag(1 / (1 + x * x))
    )
    assert abs(sol.x[0]) < 1e-12
    assert sol.nfev < 50


def _lab_game(game_id):
    game = randgen.random_game(game_id, max_strategies=4)
    return perturb_game(game, PerturbationSpec(uniform_tremble(game), 1e-3))


def test_least_squares_agrees_with_scipy_lm():
    """On every support system of at most two strategies per player of a few
    trembled random games, from seeded Dirichlet starts, least_squares
    reaches the root tolerance exactly where scipy's MINPACK
    Levenberg-Marquardt does. scipy is a test dependency only."""
    from scipy.optimize import least_squares as minpack

    roots = systems = 0
    for game_id in (2, 6, 9, 10, 13):
        nf = _lab_game(game_id)
        rng = np.random.default_rng(game_id)
        per_player = [
            [c for size in (1, 2) for c in itertools.combinations(range(n), size)]
            for n in nf.shape
        ]
        for combo in itertools.product(*per_player):
            residual, jacobian = stability._support_system(nf, combo)
            start = np.concatenate([rng.dirichlet(np.ones(len(s))) for s in combo])
            ours = stability.least_squares(residual, start, jacobian).x
            theirs = minpack(
                residual, start, jac=jacobian, method="lm",
                xtol=1e-14, ftol=1e-14, gtol=1e-14,
            ).x
            hits = [
                float(np.max(np.abs(residual(x)))) <= stability._RESIDUAL_TOL
                for x in (ours, theirs)
            ]
            assert hits[0] == hits[1], (game_id, combo, start)
            systems += 1
            roots += hits[0]
    assert systems > 200 and roots >= 5
