"""Golden outputs: witnesses, eliminations and their order, pinned.

The other tests check properties of a solve (valid witnesses, invariants
between procedures, oracle concordance); these pin its exact output, so a
change to the engine that picks a different but equally valid witness, or
words a reason differently, shows up here. The digests and the fixture
files under `golden/` were written by the engine before its belief kernel
moved to bitmasks, the `--compare` file before the solve carried its
obligation lists from round to round, and the closure and correlated
digests and the no-s3 files before the kernel's prepared queries stopped
carrying the strategy; regenerate them only for a deliberate change of
output.
"""

import hashlib
import pathlib

import pytest

from fisolve import cli, dsl, randgen, solvers

from conftest import GAMES

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

RATIONALIZABILITY_IDS = range(150)
RATIONALIZABILITY_SHA256 = (
    "b71bcbb2ab772000445ec6e53dfc8eadb1d37011148f95511963555eed006f18"
)
RESTRICTED_IDS = range(100)
RESTRICTED_SHA256 = (
    "ec26d0b226f22ddd297201c22c5345ed13f85297c2886386d5c3b00b25282d7a"
)
CLOSURE_SHA256 = (
    "575e2a38b76978da042dc4410283bf2a0ce0fe42f7bb45fae8a0c0d2fd6b4304"
)
CORRELATED_SHA256 = (
    "b44a42b1c48701bb8a69628fde4e13a4f030c139301962e23f7c4ea0ca20507c"
)


def _sha256(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def rationalizability_texts():
    for i in RATIONALIZABILITY_IDS:
        yield dsl.serialize_solution(solvers.rationalizability(randgen.random_game(i)))


def restricted_texts():
    """Selective and strong-delta under random point restrictions."""
    for i in RESTRICTED_IDS:
        game = randgen.random_game(i, max_strategies=8)
        base = solvers.rationalizability(game)
        delta = randgen.random_point_restrictions(i + 1, game, base)
        if delta is None:
            continue
        yield dsl.serialize_solution(
            solvers.selective_rationalizability(game, delta, base=base)
        )
        yield dsl.serialize_solution(solvers.strong_delta_rationalizability(game, delta))


def closure_texts():
    """The restriction closure of every nonempty selective run of the
    restricted draws: the coupled two-system queries."""
    for i in RESTRICTED_IDS:
        game = randgen.random_game(i, max_strategies=8)
        base = solvers.rationalizability(game)
        delta = randgen.random_point_restrictions(i + 1, game, base)
        if delta is None:
            continue
        if solvers.selective_rationalizability(game, delta, base=base).survivors.is_empty():
            continue
        implicit = solvers.rationalize_restrictions(game, delta, base=base)
        yield dsl.serialize_solution(
            solvers.generalized_solve(
                solvers.ProcedureSpec(game, "closure", restrictions=implicit)
            )
        )


def correlated_texts():
    for i in RATIONALIZABILITY_IDS:
        game = randgen.random_game(i)
        yield dsl.serialize_solution(solvers.rationalizability(game, correlated=True))


def test_rationalizability_outputs_are_pinned():
    assert _sha256(rationalizability_texts()) == RATIONALIZABILITY_SHA256


def test_restricted_outputs_are_pinned():
    assert _sha256(restricted_texts()) == RESTRICTED_SHA256


def test_closure_outputs_are_pinned():
    assert _sha256(closure_texts()) == CLOSURE_SHA256


def test_correlated_outputs_are_pinned():
    assert _sha256(correlated_texts()) == CORRELATED_SHA256


def golden_runs():
    """(name, argv) per line of golden/runs.txt, which CI also reads."""
    runs = []
    for line in (GOLDEN / "runs.txt").read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, game, procedure, restrictions = line.split()
        argv = ["--game", str(GAMES / game), "--procedure", procedure]
        if restrictions != "-":
            argv += ["--restrictions", str(GAMES / restrictions)]
        runs.append((name, argv + ["--format", "structured"]))
    return runs


@pytest.mark.parametrize("name, argv", golden_runs(), ids=[n for n, _ in golden_runs()])
def test_fixture_structured_output_is_pinned(capsys, name, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / (name + ".json")).read_text()


def test_compare_structured_output_is_pinned(capsys):
    """The --compare document, pinned in the same way (CI cmps it too)."""
    argv = [
        "--game", str(GAMES / "bribe.game"),
        "--compare", "selective,strong-delta",
        "--restrictions", str(GAMES / "bribe_report.beliefs"),
        "--format", "structured",
    ]
    assert cli.main(argv) == 0
    golden = GOLDEN / "bribe_compare_selective_strong-delta.json"
    assert capsys.readouterr().out == golden.read_text()
