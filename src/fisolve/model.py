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

Everything derived from a tree comes from one walk from the root
(`GameTree._derive`; `validate` runs it with its checks on). A set of one
player's strategies is a Python int with bit i for strategy i, the
representation the belief kernel uses for opponent combos. The walk carries
each player's consistent strategies per node, decision node or leaf, as
such masks. The reach sets of an information set are the OR of its nodes'
masks, and its conditioning event for a player, the opponent combos that
allow it, is the OR over its nodes of the product of the opponents' masks
(`opponent_combos`). A leaf is reached by exactly the profiles in the
product of its masks, so the payoff table is those masks: plans, payoff rows
and the outcomes of a product set are read off them.

The records (Leaf, DecisionNode, InfoSet, Strategy) are named tuples:
immutable, compared by value, and cheap to build, since every parse builds
one per leaf, node, set and strategy.
"""

import math
from functools import cached_property
from itertools import chain, product
from typing import NamedTuple


class ModelError(Exception):
    """Base class for game-construction and validation failures."""


class DanglingNode(ModelError):
    """A child reference points nowhere, or part of the tree is unreachable."""


class MalformedInfoSet(ModelError):
    """Owner or action lists are inconsistent inside one information set."""


class PerfectRecallViolation(ModelError):
    """An information set pools nodes with different own histories."""


class Leaf(NamedTuple):
    name: str
    payoffs: tuple  # Fraction per player, aligned with GameTree.players


class DecisionNode(NamedTuple):
    name: str
    owner: str
    actions: tuple  # action labels
    children: tuple  # child node/leaf names, parallel to actions


class InfoSet(NamedTuple):
    name: str
    owner: str
    nodes: tuple  # decision node names
    actions: tuple


class Strategy(NamedTuple):
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
        nodes, leaves = self.nodes, self.leaves
        if self.root not in nodes:
            raise DanglingNode("root %r is not a decision node" % (self.root,))
        if not nodes.keys().isdisjoint(leaves):
            raise ModelError("a name is used for both a node and a leaf")

        referenced = set()
        for node in nodes.values():
            if node.owner not in self.players:
                raise ModelError("node %r owned by unknown player %r" % (node.name, node.owner))
            if not node.actions:
                raise MalformedInfoSet("node %r has no actions" % (node.name,))
            if len(node.actions) != len(set(node.actions)):
                raise MalformedInfoSet("node %r repeats an action label" % (node.name,))
            if len(node.actions) != len(node.children):
                raise ModelError("node %r actions/children mismatch" % (node.name,))
            for child in node.children:
                if child not in nodes and child not in leaves:
                    raise DanglingNode("node %r references unknown child %r" % (node.name, child))
                if child in referenced:
                    raise DanglingNode("child %r referenced twice" % (child,))
                referenced.add(child)
        if self.root in referenced:
            raise DanglingNode("root %r appears as a child" % (self.root,))

        # Information sets, reachability, payoff arity and perfect recall are
        # checked by the derivation itself, on its one pass over each.
        self._derived = self._derive(check=True)
        return self

    # -- derived structure ------------------------------------------------------

    def _ensure_derived(self):
        if self._derived is None:
            self._derived = self._derive(check=False)
        return self._derived

    def _derive(self, check):
        """Everything read off the tree, from one walk from the root.

        A set of one player's strategies is a Python int whose bit i stands
        for strategy i. The walk carries, per node and leaf, each player's
        strategies consistent with reaching it, one such mask per player;
        at a decision node the owner's mask is cut by the mask of the
        strategies that choose each action there. `validate` passes
        check=True to raise on malformed information sets, unreachable
        nodes, payoff arity and perfect-recall violations on the way."""
        players, nodes, infosets = self.players, self.nodes, self.infosets

        infoset_of_node, infoset_pos = {}, {}
        player_infosets = {p: [] for p in players}
        for isname in self.infoset_order:
            h = infosets[isname]
            if check:
                _check_infoset(self, h, infoset_of_node)
            hs = player_infosets[h.owner]
            infoset_pos[isname] = len(hs)
            hs.append(isname)
            for nn in h.nodes:
                infoset_of_node[nn] = isname
        if check and len(infoset_of_node) != len(nodes):
            nn = next(nn for nn in nodes if nn not in infoset_of_node)
            raise MalformedInfoSet("decision node %r belongs to no infoset" % (nn,))

        # Strategies in product order, rightmost infoset fastest; so the
        # strategies choosing action a at the owner's infoset at position j
        # repeat one block of `stride` (the product of the later infosets'
        # action counts) once per period of `size * stride`.
        strategies, action_masks = {}, {}
        for p in players:
            hs = player_infosets[p]
            labels = [infosets[h].actions for h in hs]
            strategies[p] = [
                Strategy(p, choices, ".".join(names) or "(idle)", idx)
                for idx, (choices, names) in enumerate(
                    zip(product(*(range(len(a)) for a in labels)), product(*labels))
                )
            ]
            total = len(strategies[p])
            stride = total
            for h, acts in zip(hs, labels):
                period, stride = stride, stride // len(acts)
                block = ((1 << stride) - 1) * (((1 << total) - 1) // ((1 << period) - 1))
                action_masks[h] = [block << (a * stride) for a in range(len(acts))]

        # The walk, from the root; `consistent` gets every node and leaf.
        owner_pos = {p: k for k, p in enumerate(players)}
        leaves, n = self.leaves, len(players)
        paths, consistent = {}, {}
        stack = [(self.root, (), tuple((1 << len(strategies[p])) - 1 for p in players))]
        while stack:
            name, path, sets = stack.pop()
            paths[name], consistent[name] = path, sets
            node = nodes[name]
            k = owner_pos[node.owner]
            head, mine, tail = sets[:k], sets[k], sets[k + 1:]
            cuts = action_masks[infoset_of_node[name]]
            for ai, child in enumerate(node.children):
                below = head + (mine & cuts[ai],) + tail
                if child in nodes:
                    stack.append((child, path + ((name, ai),), below))
                    continue
                paths[child], consistent[child] = path + ((name, ai),), below
                if check and len(leaves[child].payoffs) != n:
                    raise ModelError(
                        "leaf %r has %d payoffs for %d players"
                        % (child, len(leaves[child].payoffs), n)
                    )
        if check and len(paths) != len(nodes) + len(leaves):
            name = next(nn for nn in chain(nodes, leaves) if nn not in paths)
            raise DanglingNode("node %r is unreachable" % (name,))

        # Own history of a node: the owner's (infoset, action index) pairs
        # strictly before it. Perfect recall: constant across an infoset.
        # Per infoset and player, the strategies reaching some node of it.
        own_history, reach = {}, {}
        for isname in self.infoset_order:
            h = infosets[isname]
            seqs = [
                tuple(
                    (infoset_of_node[step], ai)
                    for step, ai in paths[nn]
                    if nodes[step].owner == h.owner
                )
                for nn in (h.nodes if check else h.nodes[:1])
            ]
            if check and any(seq != seqs[0] for seq in seqs):
                raise PerfectRecallViolation(
                    "infoset %r pools nodes with different own histories" % (isname,)
                )
            own_history[isname] = seqs[0]
            reach[isname] = consistent[h.nodes[0]]
            for nn in h.nodes[1:]:
                reach[isname] = tuple(map(int.__or__, reach[isname], consistent[nn]))

        return {
            "infoset_of_node": infoset_of_node,
            "paths": paths,
            "own_history": own_history,
            "player_infosets": player_infosets,
            "infoset_pos": infoset_pos,
            "strategies": strategies,
            "consistent": consistent,
            "reach": reach,
            "joint_cache": {},
        }

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

    def reach_mask(self, player, infoset_name):
        """The mask of the player's strategies consistent with some node of
        the infoset (bit i for strategy i)."""
        return self._ensure_derived()["reach"][infoset_name][self.players.index(player)]

    def strategies_reaching(self, player, infoset_name):
        """Strategies of the player consistent with some node of the infoset."""
        ss = self.strategies(player)
        return [ss[i] for i in bits(self.reach_mask(player, infoset_name))]

    def joint_reaching_mask(self, player, infoset_name):
        """The opponent profiles that allow some node of the infoset to be
        reached, as a mask over the product of the other players' strategy
        lists (see `opponent_combos`): per node, the product of the
        opponents' consistent masks."""
        d = self._ensure_derived()
        key = (player, infoset_name)
        got = d["joint_cache"].get(key)
        if got is None:
            k = self.players.index(player)
            sizes = [len(d["strategies"][p]) for p in self.players]
            got = 0
            for nn in self.infosets[infoset_name].nodes:
                got |= opponent_combos(d["consistent"][nn], sizes, k)
            d["joint_cache"][key] = got
        return got

    def joint_reaching(self, player, infoset_name):
        """Opponent profiles that allow some node of the infoset to be
        reached, as ascending flat indices into the product of the other
        players' strategy lists (in player order, rightmost fastest)."""
        return bits(self.joint_reaching_mask(player, infoset_name))

    def immediate_predecessor(self, infoset_name):
        """The owner's closest preceding infoset, or None."""
        hist = self.own_history(infoset_name)
        return hist[-1][0] if hist else None


def _check_infoset(game, h, placed):
    """The checks of one information set; placed maps each node of the
    sets before it to its set."""
    if h.owner not in game.players:
        raise MalformedInfoSet("infoset %r owned by unknown player" % (h.name,))
    if not h.nodes:
        raise MalformedInfoSet("infoset %r is empty" % (h.name,))
    seen = set()
    for nn in h.nodes:
        node = game.nodes.get(nn)
        if node is None:
            raise MalformedInfoSet("infoset %r lists unknown node %r" % (h.name, nn))
        if node.owner != h.owner:
            raise MalformedInfoSet("infoset %r pools node %r of another player" % (h.name, nn))
        if node.actions != h.actions:
            raise MalformedInfoSet(
                "infoset %r pools nodes with different action lists" % (h.name,)
            )
        if nn in placed or nn in seen:
            raise MalformedInfoSet("node %r is in two infosets" % (nn,))
        seen.add(nn)


def bits(mask):
    """The indices of a mask's set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def opponent_combos(masks, sizes, k):
    """The mask of player k's opponent combos inside the product of the
    per-player strategy masks (sizes: the players' strategy counts). Combo
    t is the mixed-radix number of its components' indices, the other
    players in player order, rightmost fastest."""
    part = 1
    for j, m in enumerate(masks):
        if j == k:
            continue
        if part != 1:
            # Every combo t so far becomes the block t * size + i for i in
            # m: spread the bits, then one product.
            spread = 0
            while part:
                low = part & -part
                spread |= 1 << ((low.bit_length() - 1) * sizes[j])
                part ^= low
            part = spread
        part *= m
    return part


class PayoffTable:
    """Exact payoffs of every strategy profile, read off the tree walk.

    A leaf is reached by exactly the profiles in the product of its
    per-player masks (`masks`, aligned with `leaves`), so against one own
    strategy the leaves it reaches split the opponent combos (`cells`).
    Player k's payoff at a leaf is `numerators[k][leaf] / denominators[k]`:
    Python ints (a fixed-width wrap would flip a sign) over one common
    denominator, the lcm of k's leaf denominators, built on first use.
    """

    def __init__(self, game):
        d = game._ensure_derived()
        self.players = game.players
        self.leaves = tuple(game.leaves.values())
        self.masks = [d["consistent"][leaf.name] for leaf in self.leaves]
        self.sizes = [len(d["strategies"][p]) for p in game.players]
        self._cells = {}

    @cached_property
    def denominators(self):
        return [
            math.lcm(*(leaf.payoffs[k].denominator for leaf in self.leaves))
            for k in range(len(self.players))
        ]

    @cached_property
    def numerators(self):
        columns = zip(*(leaf.payoffs for leaf in self.leaves))
        return [
            [v.numerator * (L // v.denominator) for v in col]
            for col, L in zip(columns, self.denominators)
        ]

    def cells(self, k):
        """Per own strategy of player k, {leaf position: combo mask} over
        the leaves it reaches, in leaf order: the opponent combos against
        which it reaches each. They partition the combos. Cached."""
        got = self._cells.get(k)
        if got is None:
            got = self._cells[k] = [{} for _ in range(self.sizes[k])]
            for n, masks in enumerate(self.masks):
                combos = opponent_combos(masks, self.sizes, k)
                for s in bits(masks[k]):
                    got[s][n] = combos
        return got

    def positions(self, player):
        """Per own strategy of the player, the positions in `leaves` of the
        leaves it reaches, over the opponent combos in canonical order."""
        k = self.players.index(player)
        out = []
        for cells in self.cells(k):
            row = [0] * (math.prod(self.sizes) // self.sizes[k])
            for n, combos in cells.items():
                for t in bits(combos):
                    row[t] = n
            out.append(row)
        return out

    def rows(self, player):
        """The player's numerators, shaped like positions(player)."""
        nums = self.numerators[self.players.index(player)]
        return [[nums[n] for n in row] for row in self.positions(player)]

    def plans(self, player):
        """The player's plans (reduced strategies): plans[s] is the lowest
        index of a strategy realization equivalent to strategy s, one whose
        leaf against every opponent combo is the one s reaches: one that
        reaches the same leaves, since their cells split the combos."""
        first = {}
        return tuple(
            first.setdefault(tuple(cells), s)
            for s, cells in enumerate(self.cells(self.players.index(player)))
        )


def compatible_infosets(game, player, restriction):
    """Infosets of the player at which the restricted product set is alive.

    restriction: {player: iterable of Strategy} for any subset of players.
    An infoset qualifies iff every restricted player has at least one listed
    strategy that allows the set to be reached.
    """
    masks = {j: sum({1 << s.index for s in allowed}) for j, allowed in restriction.items()}
    return [
        h
        for h in game.player_infosets[player]
        if all(m & game.reach_mask(j, h) for j, m in masks.items())
    ]


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
        yield from product(*(self.per_player[p] for p in self.game.players))

    def outcomes(self):
        """Leaves induced by the product set, in first-reached order: the
        leaves whose masks meet every component, ordered by the first
        profile reaching each (per player, its lowest strategy there)."""
        table = self.game.payoff_table()
        parts = [sum(1 << s.index for s in self.per_player[p]) for p in self.game.players]
        first = {}
        for n, masks in enumerate(table.masks):
            meet = [m & c for m, c in zip(masks, parts)]
            if all(meet):
                first[n] = [(m & -m).bit_length() for m in meet]
        return [table.leaves[n] for n in sorted(first, key=first.get)]

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
