"""End-to-end acceptance checks.

One test per criterion, each with its own wall-clock budget, printed as a
single PASS line (pytest -v adds the per-test verdict). Criteria 7 and 8
share one randomly generated corpus, built once and cached at module scope.
"""

import time
from fractions import Fraction

from fisolve import beliefs, dsl, oracle, randgen, solvers, stability

from conftest import read


_CACHE = {}


def _timed(label, budget, t0):
    dt = time.perf_counter() - t0
    assert dt < budget, "%s took %.1fs, budget %.0fs" % (label, dt, budget)
    print("PASS %s (%.2fs)" % (label, dt))


def names(pset, player):
    return sorted(s.name for s in pset.strategies(player))


def outcome_names(trace):
    return {leaf.name for leaf in trace.outcomes}


def test_01_bribe_unique_rationalizable_outcome(bribe):
    t0 = time.perf_counter()
    tr = solvers.rationalizability(bribe)
    assert names(tr.survivors, "Ann") == ["B.I"]
    assert names(tr.survivors, "Bob") == ["A"]
    assert len(tr.outcomes) == 1
    leaf = tr.outcomes[0]
    assert leaf.payoffs == (Fraction(1), Fraction(1))
    _timed("01 bribe rationalizability picks the kept bribe", 1.0, t0)


def test_02_bribe_selective_empties_in_one_round(bribe, bribe_delta):
    t0 = time.perf_counter()
    tr = solvers.selective_rationalizability(bribe, bribe_delta)
    assert tr.survivors.is_empty()
    assert names(tr.rounds[1], "Ann") == []
    assert tr.fixed_point_round == 1
    _timed("02 bribe selective with the rejection forecast is empty", 1.0, t0)


def test_03_bribe_strong_delta_predicts_staying_out(bribe, bribe_delta):
    t0 = time.perf_counter()
    tr = solvers.strong_delta_rationalizability(bribe, bribe_delta)
    assert outcome_names(tr) == {"N"}
    _timed("03 bribe strong-delta with the same forecast keeps N", 1.0, t0)


def test_04_cleo_everything_survives(cleo):
    t0 = time.perf_counter()
    tr = solvers.rationalizability(cleo)
    for p in ("Ann", "Bob", "Cleo"):
        assert len(tr.survivors.strategies(p)) == 4
    _timed("04 cleo rationalizability keeps all 4x4x4", 5.0, t0)


def test_05_cleo_nw_forecast_unique_outcome(cleo, cleo_nw):
    t0 = time.perf_counter()
    base = solvers.rationalizability(cleo)
    tr = solvers.selective_rationalizability(cleo, cleo_nw, base=base)
    assert not tr.survivors.is_empty()
    assert outcome_names(tr) == {"O/N/W"}
    _timed("05 cleo selective under the (N,W) forecast is exactly O/N/W", 10.0, t0)


def test_06_cleo_se_forecast_not_unique(cleo, cleo_se):
    t0 = time.perf_counter()
    base = solvers.rationalizability(cleo)
    tr = solvers.selective_rationalizability(cleo, cleo_se, base=base)
    assert not tr.survivors.is_empty()
    outs = outcome_names(tr)
    assert "O/S/E" in outs
    assert len(outs) > 1
    _timed("06 cleo selective under the (S,E) path forecast stays coarse", 10.0, t0)


def _corpus():
    """Random games with rationalizable point restrictions, plus fixtures."""
    if "corpus" in _CACHE:
        return _CACHE["corpus"]
    bribe = dsl.parse_game(read("bribe.game"))
    cleo = dsl.parse_game(read("cleo.game"))
    fixtures = [
        (bribe, dsl.parse_restrictions(read("bribe_report.beliefs"), bribe)),
        (cleo, dsl.parse_restrictions(read("cleo_nw.beliefs"), cleo)),
        (cleo, dsl.parse_restrictions(read("cleo_se_path.beliefs"), cleo)),
    ]
    instances = []
    for game, delta in fixtures:
        base = solvers.rationalizability(game)
        assert solvers.is_rationalizable_restriction(game, delta, base=base)
        instances.append((game, base, delta))
    seed = 0
    random_count = 0
    while random_count < 200:
        assert seed < 2000, "generator starved: %d instances" % random_count
        game = randgen.random_game(seed)
        base = solvers.rationalizability(game)
        delta = randgen.random_point_restrictions(10000 + seed, game, base)
        seed += 1
        if delta is None:
            continue
        if not solvers.is_rationalizable_restriction(game, delta, base=base):
            continue
        instances.append((game, base, delta))
        random_count += 1
    _CACHE["corpus"] = instances
    return instances


def test_07_membership_variant_equals_selective_everywhere():
    t0 = time.perf_counter()
    corpus = _corpus()
    selective_runs = []
    mismatches = 0
    for game, base, delta in corpus:
        sel = solvers.selective_rationalizability(game, delta, base=base)
        ns3 = solvers.solve_without_s3(game, delta, base=base)
        if sel.rounds != ns3.rounds:
            mismatches += 1
        selective_runs.append((game, base, delta, sel))
    _CACHE["selective_runs"] = selective_runs
    assert mismatches == 0
    assert len(corpus) >= 203
    _timed(
        "07 no-third-condition variant matches selective on %d instances"
        % len(corpus),
        300.0,
        t0,
    )


def test_08_rationalized_restrictions_preserve_outcomes():
    t0 = time.perf_counter()
    if "selective_runs" not in _CACHE:
        _CACHE["selective_runs"] = [
            (g, b, d, solvers.selective_rationalizability(g, d, base=b))
            for g, b, d in _corpus()
        ]
    mismatches = 0
    checked = 0
    for game, base, delta, sel in _CACHE["selective_runs"]:
        if sel.survivors.is_empty():
            continue
        impl = solvers.rationalize_restrictions(game, delta, base=base)
        again = solvers.generalized_solve(
            solvers.ProcedureSpec(game, "closure", restrictions=impl)
        )
        checked += 1
        if outcome_names(again) != outcome_names(sel):
            mismatches += 1
    assert mismatches == 0
    assert checked > 0
    _timed(
        "08 restriction closure reproduces outcomes on %d nonempty runs"
        % checked,
        300.0,
        t0,
    )


def test_09_splice_property_exhaustive(bribe, bribe_delta, cleo, cleo_nw, cleo_se):
    t0 = time.perf_counter()
    bribe_base = solvers.rationalizability(bribe)
    cleo_base = solvers.rationalizability(cleo)
    runs = [
        (bribe, solvers.strong_delta_rationalizability(bribe, bribe_delta), bribe_base),
        (bribe, solvers.selective_rationalizability(bribe, bribe_delta), bribe_base),
        (cleo, solvers.selective_rationalizability(cleo, cleo_nw, base=cleo_base), cleo_base),
        (cleo, solvers.selective_rationalizability(cleo, cleo_se, base=cleo_base), cleo_base),
    ]
    violations = []
    for game, trace, base in runs:
        violations.extend(solvers.check_composition_lemma(game, trace, base))
    assert violations == []
    _timed("09 splice property holds on every fixture run", 60.0, t0)


def test_10_grid_oracle_concordance(bribe, bribe_delta, cleo, cleo_nw):
    t0 = time.perf_counter()
    bribe_base = solvers.rationalizability(bribe)
    cleo_base = solvers.rationalizability(cleo)
    runs = [
        (bribe, None, bribe_base),
        (bribe, bribe_delta, solvers.strong_delta_rationalizability(bribe, bribe_delta)),
        (bribe, bribe_delta, solvers.selective_rationalizability(bribe, bribe_delta)),
        (cleo, None, cleo_base),
        (cleo, cleo_nw, solvers.selective_rationalizability(cleo, cleo_nw, base=cleo_base)),
    ]
    queries = 0
    off_grid = 0
    for game, delta, trace in runs:
        gate_rounds = trace.base.rounds if trace.base is not None else None
        # One extra pass re-asks the queries that confirmed the fixed point.
        for n in range(1, len(trace.rounds) + 1):
            history = trace.rounds[:n]
            for player in game.players:
                mandates = solvers._round_mandates(game, player, history, False)
                if gate_rounds:
                    mandates = mandates + solvers._gate_mandates(
                        game, player, gate_rounds, False
                    )
                for s in trace.rounds[n - 1].strategies(player):
                    verdict = oracle.concordance_verdict(
                        game, player, s, mandates, delta, denominator=4
                    )
                    if verdict == "grid-too-coarse":
                        off_grid += 1
                    else:
                        assert verdict in ("agree-witness", "agree-none")
                    queries += 1
    assert off_grid == 0
    assert queries >= 60
    _timed("10 grid oracle agrees on %d solver queries" % queries, 300.0, t0)


def test_11_stability_scenario(cleo):
    t0 = time.perf_counter()
    scenario = stability.parse_scenario(read("cleo_stability.scenario"))
    rows = stability.run_scenario(cleo, scenario)
    failed = [(d, detail) for d, passed, detail in rows if not passed]
    assert failed == []
    assert len(rows) == 9
    for description, _passed, detail in rows:
        assert isinstance(description, str) and isinstance(detail, str)
    _timed("11 stability scenario passes %d/%d checks" % (len(rows), len(rows)), 10.0, t0)


def test_12_deep_centipede_stops_at_the_root():
    """An 18-node generic centipede gives each player 512 strategies in 10
    plans. Only the immediate stop survives, and the witness of every
    surviving plan is a valid system under which it is a sequential best
    reply (its members share that witness; see the plan property tests)."""
    t0 = time.perf_counter()
    game = randgen.centipede(18)
    tr = solvers.rationalizability(game)
    assert [(leaf.name, leaf.payoffs) for leaf in tr.outcomes] == [("s", (2, 0))]
    for p in game.players:
        plans = game.payoff_table().plans(p)
        assert (len(plans), len(set(plans))) == (512, 10)
        for s in tr.survivors.strategies(p):
            if plans[s.index] == s.index:
                cps = tr.witnesses[(p, s.name)]
                assert beliefs.is_valid_cps(game, p, cps)
                assert beliefs.sequential_best_reply(game, p, s, cps)
    _timed("12 deep centipede keeps only the stop at the root", 2.0, t0)
