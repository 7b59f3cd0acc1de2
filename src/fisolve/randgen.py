"""Seeded generation of small games and point belief restrictions.

Used by the property suites that compare solution procedures on corpora too
large to derive by hand. Every generated game is plain text fed through the
normal parser, so it passes exactly the same validation as a hand-written
one. Generation is deterministic in the seed.

Shapes stay inside the supported belief-structure family: perfect
information trees, one-shot simultaneous blocks, and a block followed by
perfect information continuations. Strategy counts are capped per player.
"""

import random
from fractions import Fraction
from itertools import product

from . import dsl
from .dsl import Event, LinearClause, RestrictionProfile
from .model import compatible_infosets

PLAYERS = ("P1", "P2", "P3")
ACTIONS = "abcd"


class _Node:
    __slots__ = ("name", "owner", "kids")

    def __init__(self, name, owner):
        self.name = name
        self.owner = owner
        self.kids = []  # (action label, _Node or payoff string)


def _render(out, node, indent):
    out.append("%snode %s owner %s" % ("  " * indent, node.name, node.owner))
    _render_actions(out, node, indent + 1)


def _render_actions(out, node, indent):
    pad = "  " * indent
    for label, child in node.kids:
        if isinstance(child, _Node):
            out.append(
                "%s%s -> node %s owner %s" % (pad, label, child.name, child.owner)
            )
            _render_actions(out, child, indent + 1)
        else:
            out.append("%s%s -> leaf %s" % (pad, label, child))


def _text(players, root, pooled):
    out = ["game rand", "players %s" % " ".join(players), "tree"]
    _render(out, root, 1)
    if pooled:
        out.append("infosets")
        for name, owner, nodes in pooled:
            out.append("  %s: %s { %s }" % (name, owner, " ".join(nodes)))
    return "\n".join(out) + "\n"


def random_game(seed, max_players=3, max_strategies=12):
    rng = random.Random(seed)
    nplayers = rng.randint(2, max_players)
    shape = rng.choice(("tree", "tree", "block", "block-tree"))
    if shape == "tree":
        text = _tree_game(rng, nplayers, max_strategies)
    elif shape == "block":
        text = _block_game(rng, nplayers)
    else:
        text = _block_tree_game(rng, nplayers, max_strategies)
    return dsl.parse_game(text)


def _payoff(rng, nplayers):
    return "(%s)" % ",".join(str(rng.randint(0, 6)) for _ in range(nplayers))


def _tree_game(rng, nplayers, max_strategies):
    """Perfect information: every decision node is its own infoset."""
    players = list(PLAYERS[:nplayers])
    counts = {p: 1 for p in players}
    seq = [0]

    def build(depth):
        k = rng.randint(2, 3)
        ok = [p for p in players if counts[p] * k <= max_strategies]
        if not ok:
            k = 2
            ok = [p for p in players if counts[p] * k <= max_strategies]
        if not ok:
            return None
        owner = rng.choice(ok)
        counts[owner] *= k
        node = _Node("n%d" % seq[0], owner)
        seq[0] += 1
        for idx in range(k):
            child = None
            if depth < 3 and rng.random() > (0.3 + 0.2 * depth):
                child = build(depth + 1)
            if child is None:
                child = _payoff(rng, nplayers)
            node.kids.append((ACTIONS[idx], child))
        return node

    root = build(0)
    return _text(players, root, [])


def _block_game(rng, nplayers):
    """All players move once, later movers not observing earlier choices."""
    players = list(PLAYERS[:nplayers])
    ks = [rng.randint(2, 3) for _ in players]
    pooled_nodes = {p: [] for p in players[1:]}

    def build(i, prefix):
        node = _Node("b%s" % (prefix or "r"), players[i])
        if i > 0:
            pooled_nodes[players[i]].append(node.name)
        for idx in range(ks[i]):
            label = ACTIONS[idx]
            if i + 1 < len(players):
                node.kids.append((label, build(i + 1, prefix + label)))
            else:
                node.kids.append((label, _payoff(rng, nplayers)))
        return node

    root = build(0, "")
    pooled = [
        ("stage_%s" % p, p, pooled_nodes[p]) for p in players[1:]
    ]
    return _text(players, root, pooled)


def _block_tree_game(rng, nplayers, max_strategies):
    """Two-player simultaneous block, then perfect info continuations."""
    players = list(PLAYERS[:nplayers])
    k1 = rng.randint(2, 3)
    k2 = rng.randint(2, 3)
    counts = {p: 1 for p in players}
    counts[players[0]] = k1
    counts[players[1]] = k2
    seq = [0]

    def continuation(depth):
        ok = [p for p in players if counts[p] * 2 <= max_strategies]
        if not ok or depth >= 2 or rng.random() < 0.5:
            return None
        owner = rng.choice(ok)
        counts[owner] *= 2
        node = _Node("c%d" % seq[0], owner)
        seq[0] += 1
        for idx in range(2):
            child = continuation(depth + 1)
            if child is None:
                child = _payoff(rng, nplayers)
            node.kids.append((ACTIONS[idx], child))
        return node

    root = _Node("root", players[0])
    stage_nodes = []
    for i in range(k1):
        mid = _Node("s%d" % i, players[1])
        stage_nodes.append(mid.name)
        for j in range(k2):
            child = continuation(0)
            if child is None:
                child = _payoff(rng, nplayers)
            mid.kids.append((ACTIONS[j], child))
        root.kids.append((ACTIONS[i], mid))
    pooled = [("stage_%s" % players[1], players[1], stage_nodes)]
    return _text(players, root, pooled)


def centipede(n):
    """A two-player centipede of n nodes, P1 moving at the even ones. At
    node k the mover stops (s), which gives them k + 2 and the other k, or
    continues (c); continuing at the last node pays as a stop at node n
    would. Payoffs are generic, so the rationalizable outcome is the
    backward-induction one, the stop at the root (Battigalli 1997)."""
    def stop(k):
        return "(%d,%d)" % ((k + 2, k) if k % 2 == 0 else (k, k + 2))

    nodes = [_Node("n%d" % k, PLAYERS[k % 2]) for k in range(n)]
    for k, node in enumerate(nodes):
        node.kids.append(("s", stop(k)))
        node.kids.append(("c", nodes[k + 1] if k + 1 < n else stop(n)))
    return dsl.parse_game(_text(PLAYERS[:2], nodes[0], []))


def random_point_restrictions(seed, game, base):
    """Point restrictions at infosets the base fixed point keeps reachable.

    base: a finished rationalizability trace for the game. Each clause pins
    one player's conditional, at one alive infoset, to a single opponent
    profile from the conditioning event; profiles whose components all
    survive the base run are preferred. Returns a RestrictionProfile, or
    None when the draw produces no clauses.
    """
    rng = random.Random(seed)
    fixed = {p: base.survivors.strategies(p) for p in game.players}
    surviving = {
        p: set(s.index for s in base.survivors.strategies(p))
        for p in game.players
    }
    clauses = []
    for player in game.players:
        if rng.random() < 0.4:
            continue
        alive = compatible_infosets(game, player, fixed)
        if not alive:
            continue
        picks = rng.sample(alive, min(len(alive), rng.randint(1, 2)))
        opponents = [p for p in game.players if p != player]
        everyone = list(product(*(game.strategies(j) for j in opponents)))
        for infoset in picks:
            combos = [everyone[t] for t in game.joint_reaching(player, infoset)]
            good = [
                c
                for c in combos
                if all(s.index in surviving[s.player] for s in c)
            ]
            pool = good if good and rng.random() < 0.75 else combos
            combo = pool[rng.randrange(len(pool))]
            atoms = tuple(("strategy", s.player, 0, s.index) for s in combo)
            label = ", ".join(
                "%s = %s" % (j, s.name) for j, s in zip(opponents, combo)
            )
            clauses.append(
                LinearClause(
                    player,
                    infoset,
                    ((Fraction(1), Event(atoms)),),
                    "=",
                    Fraction(1),
                    "P[%s] = 1" % label,
                )
            )
    if not clauses:
        return None
    return RestrictionProfile(game, clauses)
