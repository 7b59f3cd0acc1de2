import pathlib

import pytest

from fisolve import dsl, solvers

ROOT = pathlib.Path(__file__).resolve().parent.parent
GAMES = ROOT / "games"


def read(name):
    return (GAMES / name).read_text()


# A game whose conditioning events do not form a forest under inclusion:
# Ann's last infoset is reachable under Bob's b2 only, with two incomparable
# minimal supersets {b1,b2} and {b2,b3}.
TANGLE = """
game tangle
players Ann Bob
tree
  node root owner Bob
    b1 -> node g1 owner Ann
      x -> node h1a owner Ann
        u -> leaf (1, 0)
        v -> leaf (0, 0)
      y -> leaf (0, 0)
    b2 -> node g2 owner Ann
      x -> node h1b owner Ann
        u -> node h0a owner Ann
          p -> leaf (1, 0)
          q -> leaf (0, 0)
        v -> leaf (0, 0)
      y -> node h2a owner Ann
        c -> leaf (0, 0)
        d -> leaf (1, 0)
    b3 -> node g3 owner Ann
      x -> leaf (0, 0)
      y -> node h2b owner Ann
        c -> leaf (1, 0)
        d -> leaf (0, 0)
infosets
  g: Ann { g1 g2 g3 }
  h1: Ann { h1a h1b }
  h2: Ann { h2a h2b }
"""


@pytest.fixture(scope="session")
def bribe():
    return dsl.parse_game(read("bribe.game"))


@pytest.fixture(scope="session")
def cleo():
    return dsl.parse_game(read("cleo.game"))


@pytest.fixture(scope="session")
def bribe_delta(bribe):
    return dsl.parse_restrictions(read("bribe_report.beliefs"), bribe)


@pytest.fixture(scope="session")
def cleo_nw(cleo):
    return dsl.parse_restrictions(read("cleo_nw.beliefs"), cleo)


@pytest.fixture(scope="session")
def cleo_se(cleo):
    return dsl.parse_restrictions(read("cleo_se_path.beliefs"), cleo)


@pytest.fixture(scope="session")
def bribe_base(bribe):
    return solvers.rationalizability(bribe)


@pytest.fixture(scope="session")
def cleo_base(cleo):
    return solvers.rationalizability(cleo)


def names(pset, player):
    return sorted(s.name for s in pset.strategies(player))
