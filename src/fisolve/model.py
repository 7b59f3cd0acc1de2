"""Finite extensive-form games with perfect recall.

The model is deliberately plain: named decision nodes and leaves, information
sets grouping decision nodes, exact rational payoffs, and full strategies (one
action per information set of the owner, including sets the strategy itself
makes unreachable). There are no chance moves.

Strategy and profile orderings everywhere follow declaration order: players in
the order of the players list, information sets in declaration order, actions
in the order they appear at their node. All derived enumerations (strategy
lists, opponent profile lists) are products in that order with the rightmost
coordinate varying fastest, so output is reproducible byte for byte.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np


class ModelError(Exception):
    """Base class for game-construction and validation failures."""


class DanglingNode(ModelError):
    """A child reference points nowhere, or part of the tree is unreachable."""


class MalformedInfoSet(ModelError):
    """Owner or action lists are inconsistent inside one information set."""


class PerfectRecallViolation(ModelError):
    """An information set pools nodes with different own histories."""


@dataclass(frozen=True)
class Leaf:
    name: str
    payoffs: tuple  # Fraction per player, aligned with GameTree.players


@dataclass(frozen=True)
class DecisionNode:
    name: str
    owner: str
    actions: tuple  # action labels
    children: tuple  # child node/leaf names, parallel to actions


@dataclass(frozen=True)
class InfoSet:
    name: str
    owner: str
    nodes: tuple  # decision node names
    actions: tuple


@dataclass(frozen=True)
class Strategy:
    """A full strategy: one action index per information set of the player."""

    player: str
    choices: tuple  # action indices aligned with the player's infoset list
    name: str
    index: int  # position in the canonical strategy list


class GameTree:
    def __init__(self, name, players, root, nodes, leaves, infosets, infoset_order):
        self.name = name
        self.players = tuple(players)
        self.root = root
        self.nodes = dict(nodes)
        self.leaves = dict(leaves)
        self.infosets = dict(infosets)
        self.infoset_order = list(infoset_order)
        self._derived = None

    # -- structural identity (used by DSL round-trip tests) ------------------

    def _key(self):
        return (
            self.name,
            self.players,
            self.root,
            tuple(sorted(self.nodes.items(), key=lambda kv: kv[0])),
            tuple(sorted(self.leaves.items(), key=lambda kv: kv[0])),
            tuple((n, self.infosets[n]) for n in self.infoset_order),
        )

    def __eq__(self, other):
        return isinstance(other, GameTree) and self._key() == other._key()

    def __hash__(self):
        return hash((self.name, self.players, self.root))

    # -- validation -----------------------------------------------------------

    def validate(self):
        """Check tree structure, information sets, payoffs, perfect recall.

        Raises DanglingNode / MalformedInfoSet / PerfectRecallViolation.
        Returns self so calls can be chained.
        """
        if not self.players:
            raise ModelError("game has no players")
        if len(set(self.players)) != len(self.players):
            raise ModelError("duplicate player names")
        if self.root not in self.nodes:
            raise DanglingNode("root %r is not a decision node" % (self.root,))

        all_names = set(self.nodes) | set(self.leaves)
        if len(all_names) != len(self.nodes) + len(self.leaves):
            raise ModelError("a name is used for both a node and a leaf")

        referenced = {}
        for node in self.nodes.values():
            if node.owner not in self.players:
                raise ModelError("node %r owned by unknown player %r" % (node.name, node.owner))
            if not node.actions:
                raise MalformedInfoSet("node %r has no actions" % (node.name,))
            if len(node.actions) != len(set(node.actions)):
                raise MalformedInfoSet("node %r repeats an action label" % (node.name,))
            if len(node.actions) != len(node.children):
                raise ModelError("node %r actions/children mismatch" % (node.name,))
            for child in node.children:
                if child not in all_names:
                    raise DanglingNode("node %r references unknown child %r" % (node.name, child))
                if child in referenced:
                    raise DanglingNode("child %r referenced twice" % (child,))
                referenced[child] = node.name
        if self.root in referenced:
            raise DanglingNode("root %r appears as a child" % (self.root,))
        for name in all_names:
            if name != self.root and name not in referenced:
                raise DanglingNode("node %r is unreachable" % (name,))

        for leaf in self.leaves.values():
            if len(leaf.payoffs) != len(self.players):
                raise ModelError(
                    "leaf %r has %d payoffs for %d players"
                    % (leaf.name, len(leaf.payoffs), len(self.players))
                )

        seen_nodes = {}
        for isname in self.infoset_order:
            h = self.infosets[isname]
            if h.owner not in self.players:
                raise MalformedInfoSet("infoset %r owned by unknown player" % (isname,))
            if not h.nodes:
                raise MalformedInfoSet("infoset %r is empty" % (isname,))
            for nn in h.nodes:
                node = self.nodes.get(nn)
                if node is None:
                    raise MalformedInfoSet("infoset %r lists unknown node %r" % (isname, nn))
                if node.owner != h.owner:
                    raise MalformedInfoSet(
                        "infoset %r pools node %r of another player" % (isname, nn)
                    )
                if node.actions != h.actions:
                    raise MalformedInfoSet(
                        "infoset %r pools nodes with different action lists" % (isname,)
                    )
                if nn in seen_nodes:
                    raise MalformedInfoSet("node %r is in two infosets" % (nn,))
                seen_nodes[nn] = isname
        for nn in self.nodes:
            if nn not in seen_nodes:
                raise MalformedInfoSet("decision node %r belongs to no infoset" % (nn,))

        self._derived = None
        d = self._ensure_derived(check_recall=True)
        return self

    # -- derived structure ------------------------------------------------------

    def _ensure_derived(self, check_recall=False):
        if self._derived is not None and not check_recall:
            return self._derived

        infoset_of_node = {}
        for isname in self.infoset_order:
            for nn in self.infosets[isname].nodes:
                infoset_of_node[nn] = isname

        player_infosets = {p: [] for p in self.players}
        for isname in self.infoset_order:
            player_infosets[self.infosets[isname].owner].append(isname)

        strategies = {}
        for p in self.players:
            hs = player_infosets[p]
            strategies[p] = []
            ranges = [range(len(self.infosets[h].actions)) for h in hs]
            for idx, choices in enumerate(product(*ranges)):
                label = ".".join(
                    self.infosets[h].actions[c] for h, c in zip(hs, choices)
                ) or "(idle)"
                strategies[p].append(Strategy(p, tuple(choices), label, idx))

        infoset_pos = {}
        for p, hs in player_infosets.items():
            for k, isname in enumerate(hs):
                infoset_pos[isname] = k

        # One walk from the root. Per node and leaf: its path, as (decision
        # node, action index) pairs, and each player's strategy indices
        # consistent with it (in player order).
        paths, consistent = {}, {}
        stack = [(self.root, (), tuple(range(len(strategies[p])) for p in self.players))]
        while stack:
            name, path, sets = stack.pop()
            paths[name], consistent[name] = path, sets
            node = self.nodes.get(name)
            if node is None:
                continue
            k = self.players.index(node.owner)
            pos = infoset_pos[infoset_of_node[name]]
            for ai, child in enumerate(node.children):
                mine = [i for i in sets[k] if strategies[node.owner][i].choices[pos] == ai]
                stack.append((child, path + ((name, ai),), sets[:k] + (mine,) + sets[k + 1:]))

        # Own history of a node: the player's (infoset, action index) pairs
        # strictly before it. Perfect recall: constant across an infoset.
        own_history = {}
        for isname in self.infoset_order:
            h = self.infosets[isname]
            seqs = set()
            for nn in h.nodes:
                seq = tuple(
                    (infoset_of_node[step_node], ai)
                    for step_node, ai in paths[nn]
                    if self.nodes[step_node].owner == h.owner
                )
                seqs.add(seq)
            if check_recall and len(seqs) > 1:
                raise PerfectRecallViolation(
                    "infoset %r pools nodes with different own histories" % (isname,)
                )
            own_history[isname] = next(iter(seqs))
            if check_recall:
                for hh, _ai in own_history[isname]:
                    if hh == isname:
                        raise PerfectRecallViolation(
                            "infoset %r occurs twice on one path" % (isname,)
                        )

        self._derived = {
            "infoset_of_node": infoset_of_node,
            "paths": paths,
            "own_history": own_history,
            "player_infosets": player_infosets,
            "infoset_pos": infoset_pos,
            "strategies": strategies,
            "consistent": consistent,
            "reach_cache": {},
            "joint_cache": {},
        }
        return self._derived

    @property
    def player_infosets(self):
        return self._ensure_derived()["player_infosets"]

    def strategies(self, player):
        return self._ensure_derived()["strategies"][player]

    def infoset_of_node(self, node_name):
        return self._ensure_derived()["infoset_of_node"][node_name]

    def own_history(self, infoset_name):
        """The (infoset, action index) pairs of the owner before this set."""
        return self._ensure_derived()["own_history"][infoset_name]

    # -- play -------------------------------------------------------------------

    def profile_from(self, mapping):
        """Normalize {player: Strategy} to a tuple in player order."""
        return tuple(mapping[p] for p in self.players)

    def outcome(self, profile):
        """The leaf reached by a full strategy profile."""
        if isinstance(profile, dict):
            profile = self.profile_from(profile)
        by_player = {s.player: s for s in profile}
        d = self._ensure_derived()
        cur = self.root
        while cur in self.nodes:
            node = self.nodes[cur]
            s = by_player[node.owner]
            pos = d["infoset_pos"][d["infoset_of_node"][cur]]
            cur = node.children[s.choices[pos]]
        return self.leaves[cur]

    def payoff(self, player, profile):
        leaf = self.outcome(profile)
        return leaf.payoffs[self.players.index(player)]

    def payoff_table(self):
        """The exact payoffs of every strategy profile (a PayoffTable),
        built on first use and cached."""
        d = self._ensure_derived()
        if "payoff_table" not in d:
            d["payoff_table"] = PayoffTable(self)
        return d["payoff_table"]

    # -- reachability -------------------------------------------------------------

    def strategies_reaching(self, player, infoset_name):
        """Strategies of the player consistent with some node of the infoset."""
        d = self._ensure_derived()
        key = (player, infoset_name)
        if key not in d["reach_cache"]:
            k = self.players.index(player)
            nodes = self.infosets[infoset_name].nodes
            keep = set().union(*(d["consistent"][nn][k] for nn in nodes))
            d["reach_cache"][key] = [s for s in d["strategies"][player] if s.index in keep]
        return d["reach_cache"][key]

    def joint_reaching(self, player, infoset_name):
        """Opponent profiles that allow some node of the infoset to be
        reached, as ascending flat indices into the product of the other
        players' strategy lists (in player order, rightmost fastest)."""
        d = self._ensure_derived()
        key = (player, infoset_name)
        if key not in d["joint_cache"]:
            opp = [k for k, p in enumerate(self.players) if p != player]
            parts = []
            for nn in self.infosets[infoset_name].nodes:
                flat = [0]
                for k in opp:
                    size = len(d["strategies"][self.players[k]])
                    flat = [f * size + i for f in flat for i in d["consistent"][nn][k]]
                parts.append(flat)
            d["joint_cache"][key] = parts[0] if len(parts) == 1 else sorted(set().union(*parts))
        return d["joint_cache"][key]

    def immediate_predecessor(self, infoset_name):
        """The owner's closest preceding infoset, or None."""
        hist = self.own_history(infoset_name)
        return hist[-1][0] if hist else None


class PayoffTable:
    """Exact payoffs of every strategy profile, read off the tree walk.

    `leaf_of` holds per profile (one axis per player, in player order) the
    position in `leaves` of the leaf it reaches: each leaf is scattered over
    the product of the strategy sets consistent with it. Player k's payoff
    there is `numerators[k][leaf] / denominators[k]`: Python ints over one
    common denominator L, the lcm of k's leaf denominators. Python ints,
    because a fixed-width wrap would flip a sign.
    """

    def __init__(self, game):
        d = game._ensure_derived()
        self.players = game.players
        self.leaves = tuple(game.leaves.values())
        self.leaf_of = np.empty([len(d["strategies"][p]) for p in self.players], dtype=np.intp)
        for n, leaf in enumerate(self.leaves):
            self.leaf_of[np.ix_(*d["consistent"][leaf.name])] = n
        columns = list(zip(*(leaf.payoffs for leaf in self.leaves)))
        self.denominators = [math.lcm(*(v.denominator for v in col)) for col in columns]
        self.numerators = [
            [v.numerator * (L // v.denominator) for v in col]
            for col, L in zip(columns, self.denominators)
        ]

    def _own_major(self, k):
        """Leaf positions per (own strategy of player k, opponent combo),
        the combos in canonical order (the other players in player order,
        rightmost fastest)."""
        return np.moveaxis(self.leaf_of, k, 0).reshape(self.leaf_of.shape[k], -1)

    def rows(self, player):
        """The player's numerators as one list per own strategy, over the
        opponent combos in canonical order."""
        k = self.players.index(player)
        nums = self.numerators[k]
        return [[nums[n] for n in row] for row in self._own_major(k).tolist()]

    def ranks(self, player):
        """The player's payoffs as dense ranks, an array shaped like
        rows(player): equal payoffs share a rank and a larger payoff has a
        larger rank. The exact comparisons are those of one sort of the
        distinct Python-int numerators; the ranks are below the number of
        leaves, so no fixed-width wrap can reach them."""
        k = self.players.index(player)
        nums = self.numerators[k]
        rank_of = {v: r for r, v in enumerate(sorted(set(nums)))}
        ranks = np.array([rank_of[v] for v in nums], dtype=np.intp)
        return ranks[self._own_major(k)]

    def plans(self, player):
        """The player's plans (reduced strategies): plans[s] is the lowest
        index of a strategy realization equivalent to strategy s, one whose
        leaf against every opponent combo is the one s reaches."""
        first = {}
        rows = self._own_major(self.players.index(player))
        return tuple(first.setdefault(row.tobytes(), s) for s, row in enumerate(rows))


def compatible_infosets(game, player, restriction):
    """Infosets of the player at which the restricted product set is alive.

    restriction: {player: iterable of Strategy} for any subset of players.
    An infoset qualifies iff every restricted player has at least one listed
    strategy that allows the set to be reached.
    """
    out = []
    for isname in game.player_infosets[player]:
        ok = True
        for j, allowed in restriction.items():
            allowed = set(allowed)
            if not allowed.intersection(game.strategies_reaching(j, isname)):
                ok = False
                break
        if ok:
            out.append(isname)
    return out


class ProfileSet:
    """A product set of strategies, one component set per player.

    Components keep canonical order (subsequences of the full strategy lists),
    so iteration and serialization are deterministic.
    """

    def __init__(self, game, per_player):
        self.game = game
        self.per_player = {}
        for p in game.players:
            chosen = per_player.get(p, game.strategies(p))
            keep = set(s.index for s in chosen)
            self.per_player[p] = tuple(
                s for s in game.strategies(p) if s.index in keep
            )

    @classmethod
    def full(cls, game):
        return cls(game, {})

    def strategies(self, player):
        return self.per_player[player]

    def is_empty(self):
        return any(not v for v in self.per_player.values())

    def profiles(self):
        if self.is_empty():
            return
        for combo in product(*(self.per_player[p] for p in self.game.players)):
            yield combo

    def outcomes(self):
        """Leaves induced by the product set, in first-reached order."""
        table = self.game.payoff_table()
        idx = [[s.index for s in self.per_player[p]] for p in self.game.players]
        reached = table.leaf_of[np.ix_(*idx)].ravel().tolist()
        return [table.leaves[n] for n in dict.fromkeys(reached)]

    def __eq__(self, other):
        return (
            isinstance(other, ProfileSet)
            and self.game is other.game
            and {p: tuple(s.index for s in v) for p, v in self.per_player.items()}
            == {p: tuple(s.index for s in v) for p, v in other.per_player.items()}
        )

    def __repr__(self):
        parts = ", ".join(
            "%s:{%s}" % (p, ",".join(s.name for s in v))
            for p, v in self.per_player.items()
        )
        return "ProfileSet(%s)" % parts
