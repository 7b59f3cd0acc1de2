"""The command line front end, run in-process.

main() returns the exit code; argparse-level usage errors raise SystemExit.
"""

import json
import os
import subprocess
import sys

import pytest

from fisolve import cli, oracle

from conftest import GAMES, ROOT, TANGLE


BRIBE = str(GAMES / "bribe.game")
CLEO = str(GAMES / "cleo.game")
BRIBE_DELTA = str(GAMES / "bribe_report.beliefs")
CLEO_NW = str(GAMES / "cleo_nw.beliefs")
SCENARIO = str(GAMES / "cleo_stability.scenario")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rationalizability_human_report(capsys):
    code, out, err = run(capsys, "--game", BRIBE, "--procedure", "rationalizability")
    assert code == 0 and err == ""
    assert "procedure rationalizability on game bribe" in out
    assert "fixed point at round 3" in out
    assert "eliminated Ann B.P: no belief system makes this strategy sequentially optimal" in out
    assert "B/A/I (Ann=1, Bob=1)" in out


def test_readme_quick_start_is_the_cli_output(capsys):
    """The README's quick-start transcript is what the command prints."""
    readme = (ROOT / "README.md").read_text()
    command = "fisolve --game games/bribe.game --procedure rationalizability\n```\n\n```\n"
    start = readme.index(command) + len(command)
    code, out, err = run(capsys, "--game", BRIBE, "--procedure", "rationalizability")
    assert code == 0 and err == ""
    assert out == readme[start : readme.index("```", start)]


def test_selective_empty_is_a_result_not_an_error(capsys):
    code, out, _ = run(
        capsys,
        "--game", BRIBE,
        "--procedure", "selective",
        "--restrictions", BRIBE_DELTA,
    )
    assert code == 0
    assert "solution set empty after round 1" in out


def test_strong_delta_keeps_the_outside_option(capsys):
    code, out, _ = run(
        capsys,
        "--game", BRIBE,
        "--procedure", "strong-delta",
        "--restrictions", BRIBE_DELTA,
    )
    assert code == 0
    assert "outcomes:" in out
    assert "N (Ann=0" in out
    assert "B/A/I" not in out


def test_structured_output_is_byte_stable(capsys):
    argv = (
        "--game", CLEO,
        "--procedure", "selective",
        "--restrictions", CLEO_NW,
        "--format", "structured",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "fisolve.trace/1"
    assert doc["procedure"] == "selective"
    assert doc["empty"] is False
    assert [o["leaf"] for o in doc["outcomes"]] == ["O/N/W"]
    assert doc["base"]["procedure"] == "rationalizability"


def test_compare_selective_with_membership_variant(capsys):
    code, out, _ = run(
        capsys,
        "--game", CLEO,
        "--compare", "selective,no-s3",
        "--restrictions", CLEO_NW,
    )
    assert code == 0
    assert "identical at every round" in out
    assert "identical outcome sets" in out


def test_compare_reports_disjoint_predictions(capsys):
    code, out, _ = run(
        capsys,
        "--game", BRIBE,
        "--compare", "selective,strong-delta",
        "--restrictions", BRIBE_DELTA,
    )
    assert code == 0
    assert "selective: solution set empty after round 1" in out
    assert "outcome sets are disjoint" in out


def test_compare_unrestricted_selective_collapses(capsys, tmp_path):
    """With no binding clause the two procedures end in the same place.

    The round ladders still differ textually: selective restarts from the
    base fixed point, so only the final sets and outcomes are compared.
    """
    trivial = tmp_path / "none.beliefs"
    trivial.write_text("player Ann\n")
    code, out, _ = run(
        capsys,
        "--game", BRIBE,
        "--compare", "selective,rationalizability",
        "--restrictions", str(trivial),
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome_relation"] == "equal"
    finals = [r["rounds"][-1] for r in doc["runs"]]
    assert finals[0] == finals[1]


def test_compare_reports_refinement(capsys):
    code, out, _ = run(
        capsys,
        "--game", CLEO,
        "--compare", "selective,rationalizability",
        "--restrictions", CLEO_NW,
    )
    assert code == 0
    assert "every outcome of the first appears under the second" in out


def test_oracle_check_agrees_on_fixture(capsys):
    code, out, _ = run(
        capsys,
        "--game", BRIBE,
        "--procedure", "strong-delta",
        "--restrictions", BRIBE_DELTA,
        "--oracle-check", "4",
    )
    assert code == 0
    assert "0 below grid resolution" in out
    assert "oracle check (denominator 4)" in out


def test_oracle_check_structured_counts(capsys):
    code, out, _ = run(
        capsys,
        "--game", BRIBE,
        "--procedure", "rationalizability",
        "--format", "structured",
        "--oracle-check", "4",
    )
    assert code == 0
    report = json.loads(out)["oracle_check"]
    assert report["grid_too_coarse"] == 0
    assert report["queries"] == report["agree_witness"] + report["agree_none"]
    assert report["queries"] > 0


def test_oracle_replay_asks_the_solves_restrictions(capsys):
    """Rationalizability ignores --restrictions, so the replay must too."""
    reports = []
    for extra in ([], ["--restrictions", BRIBE_DELTA]):
        code, out, _ = run(
            capsys,
            "--game", BRIBE,
            "--procedure", "rationalizability",
            "--format", "structured",
            "--oracle-check", "4",
            *extra,
        )
        assert code == 0
        reports.append(json.loads(out)["oracle_check"])
    assert reports[0] == reports[1]
    assert (reports[0]["agree_witness"], reports[0]["agree_none"]) == (13, 4)


SIGMA = {
    "Ann": {"N.U": "1 - 1/sqrt(2)", "N.D": "1/sqrt(2)"},
    "Bob": {"W.L": "1 - 1/sqrt(2)", "W.R": "1/sqrt(2)"},
    "Cleo": {"O.M1": 1},
}


def test_stability_scenario_passes(capsys):
    code, out, _ = run(capsys, "--game", CLEO, "--stability-scenario", SCENARIO)
    assert code == 0
    assert "9/9 checks passed" in out
    assert "FAIL" not in out
    assert "se_pure:none (every support <= 3 refuted)" in out
    code, out, _ = run(
        capsys, "--game", CLEO, "--stability-scenario", SCENARIO,
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "fisolve.stability/1" and doc["all_passed"] is True
    assert [c["detail"] for c in doc["checks"]][7] == "sigma:hit"


def test_stability_failing_check_exits_one(capsys, tmp_path):
    doc = {
        "profiles": {"sigma": SIGMA},
        "checks": [
            {"check": "indifference", "profile": "sigma", "player": "Cleo",
             "between": ["O.M1", "I.M2"], "tol": 1e-9}
        ],
    }
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "--game", CLEO, "--stability-scenario", str(path))
    assert code == 1
    assert "FAIL" in out
    assert "0/1 checks passed" in out


def _scenario_doc_error(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--game", CLEO, "--stability-scenario", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


def _scenario_error(capsys, tmp_path, check, message, profiles=None):
    profiles = {"sigma": SIGMA} if profiles is None else profiles
    _scenario_doc_error(capsys, tmp_path, {"profiles": profiles, "checks": [check]}, message)


def test_stability_scenario_rejects_unknown_expect(capsys, tmp_path):
    bundled = json.loads((GAMES / "cleo_stability.scenario").read_text())
    check = dict(bundled["checks"][7], expect="nothing")
    _scenario_error(capsys, tmp_path, check, "expect must be")


def test_stability_scenario_rejects_unknown_profile(capsys, tmp_path):
    check = {"check": "nash", "profile": "sigma_star", "tol": 1e-9}
    _scenario_error(capsys, tmp_path, check, "unknown profile 'sigma_star'")


def test_stability_scenario_rejects_missing_field(capsys, tmp_path):
    check = {"check": "indifference", "profile": "sigma", "tol": 1e-9}
    _scenario_error(capsys, tmp_path, check, "indifference check lacks player, between")


def test_stability_scenario_rejects_unknown_strategy(capsys, tmp_path):
    check = {"check": "indifference", "profile": "sigma", "player": "Cleo",
             "between": ["O.M1", "I.M3"], "tol": 1e-9}
    _scenario_error(capsys, tmp_path, check, "Cleo has no strategy named I.M3")


def test_stability_scenario_rejects_profile_without_a_player(capsys, tmp_path):
    partial = {p: w for p, w in SIGMA.items() if p != "Cleo"}
    check = {"check": "nash", "profile": "partial", "tol": 1e-9}
    _scenario_error(
        capsys, tmp_path, check, "profile 'partial' has no mix for Cleo",
        profiles={"sigma": SIGMA, "partial": partial},
    )


def test_stability_scenario_rejects_tremble_without_a_player(capsys, tmp_path):
    bundled = json.loads((GAMES / "cleo_stability.scenario").read_text())
    check = dict(bundled["checks"][7])
    check["tremble"] = {p: w for p, w in check["tremble"].items() if p != "Bob"}
    _scenario_error(capsys, tmp_path, check, "tremble has no mix for Bob")


@pytest.mark.parametrize("weight, message", [
    ("1/0", "cannot evaluate '1/0': float division by zero"),
    ("sqrt(0-1)", "cannot evaluate 'sqrt(0-1)': math domain error"),
    ("9e999 * 0", "a weight of Cleo is not a finite number"),
])
def test_stability_scenario_rejects_a_weight_without_a_finite_value(capsys, tmp_path, weight, message):
    bad = dict(SIGMA, Cleo={"O.M1": weight})
    check = {"check": "nash", "profile": "sigma", "tol": 1e-9}
    _scenario_error(capsys, tmp_path, check, message, profiles={"sigma": SIGMA, "bad": bad})


def test_stability_scenario_rejects_indifference_between_three(capsys, tmp_path):
    check = {"check": "indifference", "profile": "sigma", "player": "Cleo",
             "between": ["O.M1", "I.M1", "I.M2"], "tol": 1e-9}
    _scenario_error(capsys, tmp_path, check, "between wants two strategy names")


@pytest.mark.parametrize("field", ["delta", "epsilon", "tol"])
def test_stability_scenario_rejects_a_non_numeric_field(capsys, tmp_path, field):
    bundled = json.loads((GAMES / "cleo_stability.scenario").read_text())
    check = bundled["checks"][0] if field == "tol" else bundled["checks"][7]
    check = dict(check, **{field: "small"})
    message = "%s of a %s check is not a number: 'small'" % (field, check["check"])
    _scenario_error(capsys, tmp_path, check, message, profiles=bundled["profiles"])


def test_stability_scenario_must_be_an_object(capsys, tmp_path):
    _scenario_doc_error(capsys, tmp_path, [SIGMA], "the scenario is not a JSON object")


@pytest.mark.parametrize("doc, message", [
    ({"profiles": [SIGMA]}, "profiles is not a JSON object"),
    ({"profiles": {"sigma": 1}}, "a profile is not a JSON object"),
    ({"profiles": {"sigma": dict(SIGMA, Ann=1)}}, "the mix of Ann is not a JSON object"),
    ({"checks": {"check": "nash"}}, "checks is not a JSON array"),
    ({"checks": [1]}, "a check is not a JSON object"),
    ({"profiles": {"sigma": SIGMA}, "checks": [{
        "check": "perturbed-equilibrium", "targets": 1, "tremble": SIGMA,
        "delta": 0.001, "epsilon": 0.01, "expect": "found"}]},
     "targets is not a JSON array"),
])
def test_stability_scenario_parts_have_their_json_kinds(capsys, tmp_path, doc, message):
    _scenario_doc_error(capsys, tmp_path, doc, message)


# -- error paths -----------------------------------------------------------------


def test_usage_errors_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--game", BRIBE])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["--game", BRIBE, "--procedure", "selective"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([
            "--game", BRIBE,
            "--procedure", "rationalizability",
            "--compare", "selective,no-s3",
        ])
    assert exc.value.code == 2
    capsys.readouterr()


def test_correlated_refused_where_ignored(capsys):
    """Only rationalizability and generalized take joint obligations."""
    for procedure in ("strong-delta", "selective", "no-s3"):
        for mode in (
            ["--procedure", procedure],
            ["--compare", "rationalizability," + procedure],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(
                    ["--game", BRIBE, "--restrictions", BRIBE_DELTA, "--correlated"]
                    + mode
                )
            assert exc.value.code == 2
            assert "--correlated does not apply to" in capsys.readouterr().err
    for procedure in ("rationalizability", "generalized"):
        code, _, _ = run(
            capsys, "--game", BRIBE, "--restrictions", BRIBE_DELTA,
            "--procedure", procedure, "--correlated",
        )
        assert code == 0


def _refused(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--game", BRIBE] + argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_oracle_check_refused_with_compare(capsys):
    _refused(
        capsys,
        ["--compare", "rationalizability,generalized", "--oracle-check", "4"],
        "--oracle-check needs --procedure",
    )


def test_oracle_check_refused_with_stability_scenario(capsys):
    _refused(
        capsys,
        ["--stability-scenario", SCENARIO, "--oracle-check", "4"],
        "--oracle-check needs --procedure",
    )


def test_oracle_check_refuses_an_empty_grid(capsys):
    for denominator in ("0", "-3"):
        _refused(
            capsys,
            ["--procedure", "rationalizability", "--oracle-check", denominator],
            "--oracle-check needs a denominator of at least 1",
        )


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "--game", "/no/such.game", "--procedure", "rationalizability")
    assert code == 2
    assert "error:" in err


def test_bad_game_text_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("game broken\nplayers A B\ntree\n  node r owner A\n    x -> leaf (1)\n")
    code, _, err = run(capsys, "--game", str(bad), "--procedure", "rationalizability")
    assert code == 2
    assert "error:" in err


def test_node_listed_twice_exits_two(capsys, tmp_path):
    bad = tmp_path / "twice.game"
    bad.write_text(
        "game twice\nplayers A B\ntree\n  node r owner A\n"
        "    x -> node m1 owner B\n      c -> leaf (0, 0)\n      d -> leaf (1, 0)\n"
        "    y -> node m2 owner B\n      c -> leaf (0, 1)\n      d -> leaf (2, 0)\n"
        "infosets\n  h: B { m1 m1 m2 }\n"
    )
    code, out, err = run(capsys, "--game", str(bad), "--procedure", "rationalizability")
    assert code == 2
    assert out == ""
    assert "line 12: infoset 'h' lists node 'm1' twice" in err


def test_unsupported_belief_structure_exits_three(capsys, tmp_path):
    # Ann's third infoset conditions on an event with two incomparable
    # strict supersets, which the surprise-order engine refuses.
    tangle = tmp_path / "tangle.game"
    tangle.write_text(TANGLE)
    code, _, err = run(capsys, "--game", str(tangle), "--procedure", "rationalizability")
    assert code == 3
    assert "error:" in err


def test_perfect_recall_violation_exits_three(capsys, tmp_path):
    # At the pooled second move, A no longer knows whether x or y was played.
    forgetful = tmp_path / "forgetful.game"
    forgetful.write_text(
        "game forgetful\n"
        "players A B\n"
        "tree\n"
        "  node r owner A\n"
        "    x -> node m1 owner A\n"
        "      c -> leaf (0, 0)\n"
        "      d -> leaf (1, 0)\n"
        "    y -> node m2 owner A\n"
        "      c -> leaf (0, 0)\n"
        "      d -> leaf (2, 0)\n"
        "infosets\n"
        "  second: A { m1 m2 }\n"
    )
    code, out, err = run(capsys, "--game", str(forgetful), "--procedure", "rationalizability")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scenario_that_is_not_json_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_text("checks: none\n")
    code, out, err = run(capsys, "--game", CLEO, "--stability-scenario", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: Expecting value")
    assert "Traceback" not in err and err.count("\n") == 1


def test_dead_infoset_restriction_exits_four(capsys, tmp_path):
    game = tmp_path / "exit.game"
    game.write_text(
        "game exit\n"
        "players Ann Bob\n"
        "tree\n"
        "  node root owner Ann\n"
        "    L -> leaf (1, 0)\n"
        "    R -> node b owner Bob\n"
        "      u -> leaf (0, 1)\n"
        "      d -> leaf (0, 0)\n"
    )
    delta = tmp_path / "dead.beliefs"
    delta.write_text("player Bob\n  at b: P[Ann = R] = 1\n")
    code, _, err = run(
        capsys,
        "--game", str(game),
        "--procedure", "no-s3",
        "--restrictions", str(delta),
    )
    assert code == 4
    assert "error:" in err


def test_oracle_disagreement_exits_five(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise oracle.OracleSoundnessFailure("planted disagreement")

    monkeypatch.setattr(oracle, "concordance_verdict", explode)
    code, _, err = run(
        capsys,
        "--game", BRIBE,
        "--procedure", "rationalizability",
        "--oracle-check", "2",
    )
    assert code == 5
    assert "planted disagreement" in err


# Whether any scipy module is loaded after each step of a fresh process in
# which importing scipy fails.
COLD_START = """
import contextlib, io, json, sys

sys.modules["scipy"] = None

def scipy_loaded():
    return any(
        module is not None and name.split(".")[0] == "scipy"
        for name, module in sys.modules.items()
    )

import fisolve

steps = {"import fisolve": scipy_loaded()}
from fisolve import cli, randgen, solvers
with contextlib.redirect_stdout(io.StringIO()):
    steps["selective code"] = cli.main([
        "--game", %(bribe)r, "--procedure", "selective",
        "--restrictions", %(delta)r, "--oracle-check", "2",
        "--format", "structured",
    ])
    steps["cli selective"] = scipy_loaded()
    solvers.rationalizability(randgen.random_game(1))
    steps["random game"] = scipy_loaded()
    steps["scenario code"] = cli.main(
        ["--game", %(cleo)r, "--stability-scenario", %(scenario)r]
    )
    steps["scenario"] = scipy_loaded()
print(json.dumps(steps))
""" % {"bribe": BRIBE, "delta": BRIBE_DELTA, "cleo": CLEO, "scenario": SCENARIO}


def test_processes_run_every_step_with_scipy_blocked():
    """Solver, oracle and CLI solve runs, and the stability scenario with its
    root finds, all succeed in a process where importing scipy fails, and
    none loads a scipy module. This needs a fresh interpreter, since this
    process may hold scipy already."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import fisolve": False,
        "selective code": 0,
        "cli selective": False,
        "random game": False,
        "scenario code": 0,
        "scenario": False,
    }


def test_stability_scenario_without_numpy_exits_two():
    """In a process where importing numpy fails, the stability scenario ends
    with exit 2 and a one-line error naming numpy, not with a traceback and
    the exit code of failing checks."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    script = (
        'import sys; sys.modules["numpy"] = None; from fisolve import cli; '
        "sys.exit(cli.main(%r))" % (["--game", CLEO, "--stability-scenario", SCENARIO],)
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: --stability-scenario needs numpy")
    assert len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr


# Whether numpy is loaded after each step of a fresh process in which
# importing numpy fails.
NUMPY_BLOCKED = """
import contextlib, io, json, sys

sys.modules["numpy"] = None

def numpy_loaded():
    return any(
        module is not None and name.split(".")[0] == "numpy"
        for name, module in sys.modules.items()
    )

import fisolve

steps = {"import fisolve": numpy_loaded()}
from fisolve import cli, randgen, solvers
with contextlib.redirect_stdout(io.StringIO()):
    steps["selective code"] = cli.main([
        "--game", %(bribe)r, "--procedure", "selective",
        "--restrictions", %(delta)r, "--oracle-check", "2",
        "--format", "structured",
    ])
    steps["cli selective"] = numpy_loaded()
    steps["compare code"] = cli.main([
        "--game", %(bribe)r, "--compare", "selective,strong-delta",
        "--restrictions", %(delta)r, "--format", "structured",
    ])
    steps["cli compare"] = numpy_loaded()
solvers.rationalizability(randgen.random_game(1))
steps["random game"] = numpy_loaded()
print(json.dumps(steps))
""" % {"bribe": BRIBE, "delta": BRIBE_DELTA}


def test_exact_runs_need_no_numpy():
    """Importing fisolve, CLI selective (with the oracle replay) and compare
    runs, and a random-game solve all succeed in a process where importing
    numpy fails: only the equilibrium lab needs numpy. This needs a fresh
    interpreter, since this process holds numpy already."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import fisolve": False,
        "selective code": 0,
        "cli selective": False,
        "compare code": 0,
        "cli compare": False,
        "random game": False,
    }


def test_lab_names_load_on_first_use():
    """The package's lab names resolve to the lab module's own objects."""
    import fisolve
    from fisolve import stability

    assert fisolve.MixedStrategy is stability.MixedStrategy
    assert fisolve.run_scenario is stability.run_scenario
    with pytest.raises(AttributeError):
        fisolve.no_such_name
