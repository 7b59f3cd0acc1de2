"""Text formats: game trees, belief restrictions, solution reports.

The game format is line-oriented with three sections. `tree` nests node blocks
by indentation; every decision node is `node NAME owner PLAYER` and each action
line is `LABEL -> leaf (p1, p2, ...)` or `LABEL -> node ...`. The `infosets`
section pools decision nodes; unlisted nodes become singleton sets named after
the node. Leaves are auto-named by their action path ("B/A/I").

Restriction files constrain one player's conditional beliefs at their own
information sets. Each clause is a linear (in)equality over probabilities of
opponent strategy events:

    player Ann
      at ann_root: P[Bob @ bob_after_b = R] = 1
      at ann_root: 2*P[Bob = A] + P[Bob = R] <= 3/2

Atoms inside P[...] are conjunctions: `J @ g = a` fixes opponent J's action at
J's infoset g, `J = s` fixes J's full strategy by label, and `reach(x)` is
sugar for the opponents' actions on the path to node or leaf x. Numbers are
exact rationals: integers, p/q, or decimal literals. The operators `<=`, `>=`
and `=` are the `lp` module's own, so a clause becomes a linear row
(`beliefs.clause_row`) without translation.
"""

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import beliefs
from .model import DecisionNode, GameTree, InfoSet, Leaf


class DslError(Exception):
    """Base for all parse-time failures; carries a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class DslSyntaxError(DslError):
    """Malformed line or indentation."""


class UnknownIdentifier(DslError):
    """Reference to an undeclared player, action, strategy, or node."""


class ArityMismatch(DslError):
    """Payoff tuple length does not match the player count."""


class UnknownInfoset(DslError):
    """Clause bound to a missing infoset or one the player does not own."""


class InfeasibleClause(DslError):
    """A single clause is unsatisfiable over its conditioning simplex."""


_NAME = r"[A-Za-z0-9_\-]+"
_ACTION = r"[A-Za-z0-9_+\-]+"

_RE_GAME = re.compile(r"^game\s+(%s)$" % _NAME)
_RE_PLAYERS = re.compile(r"^players\s+(.+)$")
# One match per tree line: a node declaration (groups 1-2), or an action
# line (group 3) to a leaf (group 4) or to a node (groups 5-6).
_RE_TREE_LINE = re.compile(
    r"^(?:node\s+(%s)\s+owner\s+(%s)"
    r"|(%s)\s*->\s*(?:leaf\s*\(([^)]*)\)|node\s+(%s)\s+owner\s+(%s)))$"
    % (_NAME, _NAME, _ACTION, _NAME, _NAME)
)
_RE_INFOSET = re.compile(r"^(%s)\s*:\s*(%s)\s*\{([^}]*)\}$" % (_NAME, _NAME))


def _rational(text, lineno):
    literal = text.strip()
    if literal.isdecimal():
        return Fraction(int(literal))  # the same value, without Fraction's parser
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError):
        raise DslSyntaxError("bad rational literal %r" % (text,), lineno)


def _logical_lines(text):
    """(line number, indent, stripped text) of each line that is neither
    blank nor a comment; a tab in the indentation is an error."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        body = raw.lstrip(" ")
        if body[0] == "\t":
            raise DslSyntaxError("tabs are not allowed in indentation", i)
        yield i, len(raw) - len(body), line


def parse_game(text):
    """Parse game text into a validated GameTree."""
    name = "game"
    players = None
    # Decision nodes in declaration order; None while a node's block is open.
    nodes = {}
    leaves = {}
    declared_infosets = []
    section = None

    # Stack of open node blocks: [node indent, name, owner, action path,
    # action indent (None until the first action), actions, children].
    stack = []
    # Payoff literal text -> its Fraction: leaves repeat a few values, and a
    # dict hit is far cheaper than parsing the literal again. A literal is
    # keyed as written and stripped, so " 3" and "3" parse once.
    literals = {}

    def payoff(text, lineno):
        value = literals.get(text)
        if value is None:
            key = text.strip()
            value = literals.get(key)
            if value is None:
                value = literals[key] = _rational(text, lineno)
            literals[text] = value
        return value

    def finish(frame, lineno):
        _indent, nname, owner, _path, _aindent, actions, children = frame
        if not actions:
            raise DslSyntaxError("node %r has no actions" % (nname,), lineno)
        nodes[nname] = DecisionNode(nname, owner, tuple(actions), tuple(children))

    def close_to(indent, lineno):
        while stack and stack[-1][0] >= indent:
            finish(stack.pop(), lineno)

    lines = list(_logical_lines(text))
    last_lineno = lines[-1][0] if lines else 0
    for lineno, indent, line in lines:
        if indent == 0:
            m = _RE_GAME.match(line)
            if m:
                if section is not None or players is not None:
                    raise DslSyntaxError("'game' must come first", lineno)
                name = m.group(1)
                continue
            m = _RE_PLAYERS.match(line)
            if m:
                if players is not None:
                    raise DslSyntaxError("players declared twice", lineno)
                players = tuple(m.group(1).split())
                if len(set(players)) != len(players):
                    raise DslSyntaxError("duplicate player names", lineno)
                continue
            if line == "tree":
                if players is None:
                    raise DslSyntaxError("players must be declared before tree", lineno)
                section = "tree"
                continue
            if line == "infosets":
                if section != "tree":
                    raise DslSyntaxError("infosets section must follow the tree", lineno)
                close_to(0, lineno)
                section = "infosets"
                continue
            raise DslSyntaxError("unexpected line %r" % (line,), lineno)

        if section == "tree":
            while stack and stack[-1][4] is not None and indent < stack[-1][4]:
                finish(stack.pop(), lineno)
            m = _RE_TREE_LINE.match(line)
            if m and m.group(1):
                if stack:
                    raise DslSyntaxError(
                        "nested nodes must appear after '->' on an action line", lineno
                    )
                nname, owner = m.group(1, 2)
                _declare_node(nodes, leaves, players, nname, owner, lineno)
                stack.append([indent, nname, owner, (), None, [], []])
                continue
            if not stack:
                raise DslSyntaxError("expected a node declaration", lineno)
            frame = stack[-1]
            if frame[4] is None:
                if indent <= frame[0]:
                    raise DslSyntaxError("action line must be indented past its node", lineno)
                frame[4] = indent
            elif indent != frame[4]:
                raise DslSyntaxError("inconsistent indentation", lineno)
            if not m:
                raise DslSyntaxError("cannot parse tree line %r" % (line,), lineno)

            label, payoff_text, nname, owner = m.group(3, 4, 5, 6)
            if label in frame[5]:
                raise DslSyntaxError("duplicate action %r" % (label,), lineno)
            if payoff_text is not None:
                parts = payoff_text.split(",")
                if len(parts) != len(players):
                    raise ArityMismatch(
                        "%d payoffs for %d players" % (len(parts), len(players)), lineno
                    )
                try:
                    payoffs = tuple(map(literals.__getitem__, parts))
                except KeyError:
                    payoffs = tuple(payoff(p, lineno) for p in parts)
                child = "/".join(frame[3] + (label,))
                if child in leaves:
                    raise DslSyntaxError("duplicate leaf %r" % (child,), lineno)
                leaves[child] = Leaf(child, payoffs)
            else:
                child = nname
                _declare_node(nodes, leaves, players, nname, owner, lineno)
                stack.append([indent, nname, owner, frame[3] + (label,), None, [], []])
            frame[5].append(label)
            frame[6].append(child)
            continue

        if section == "infosets":
            m = _RE_INFOSET.match(line)
            if not m:
                raise DslSyntaxError("cannot parse infoset line %r" % (line,), lineno)
            isname, owner, members = m.groups()
            if owner not in players:
                raise UnknownIdentifier("unknown player %r" % (owner,), lineno)
            member_names = tuple(members.replace(",", " ").split())
            if not member_names:
                raise DslSyntaxError("infoset %r has no members" % (isname,), lineno)
            declared_infosets.append((isname, owner, member_names, lineno))
            continue

        raise DslSyntaxError("indented line outside any section", lineno)

    close_to(0, last_lineno)
    if players is None or not nodes:
        raise DslSyntaxError("game needs players and a tree", last_lineno)

    infosets = {}
    pooled = {}  # node -> the infoset that lists it
    for isname, owner, member_names, lineno in declared_infosets:
        if isname in infosets:
            raise DslSyntaxError("infoset %r declared twice" % (isname,), lineno)
        for nn in member_names:
            if nn not in nodes:
                raise UnknownIdentifier("infoset %r lists unknown node %r" % (isname, nn), lineno)
            if nn in pooled:
                if pooled[nn] == isname:
                    raise DslSyntaxError("infoset %r lists node %r twice" % (isname, nn), lineno)
                raise DslSyntaxError(
                    "node %r is in infosets %r and %r" % (nn, pooled[nn], isname), lineno
                )
            pooled[nn] = isname
        if isname in nodes or isname in leaves:
            raise DslSyntaxError("infoset name %r collides with a node" % (isname,), lineno)
        actions = nodes[member_names[0]].actions
        infosets[isname] = InfoSet(isname, owner, member_names, actions)
    infoset_order = list(infosets)
    for nn, node in nodes.items():
        if nn not in pooled:
            infosets[nn] = InfoSet(nn, node.owner, (nn,), node.actions)
            infoset_order.append(nn)

    game = GameTree(name, players, next(iter(nodes)), nodes, leaves, infosets, infoset_order)
    game.validate()
    return game


def _declare_node(nodes, leaves, players, nname, owner, lineno):
    if owner not in players:
        raise UnknownIdentifier("unknown player %r" % (owner,), lineno)
    if nname in nodes or nname in leaves:
        raise DslSyntaxError("duplicate node name %r" % (nname,), lineno)
    nodes[nname] = None


def _fmt_rational(x):
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def serialize_game(game):
    """Render a GameTree in the same format parse_game accepts (round trips)."""
    out = ["game %s" % game.name, "players %s" % " ".join(game.players), "tree"]

    def emit_actions(node_name, depth):
        node = game.nodes[node_name]
        pad = "  " * depth
        for label, child in zip(node.actions, node.children):
            if child in game.leaves:
                payoffs = ", ".join(_fmt_rational(v) for v in game.leaves[child].payoffs)
                out.append("%s%s -> leaf (%s)" % (pad, label, payoffs))
            else:
                sub = game.nodes[child]
                out.append("%s%s -> node %s owner %s" % (pad, label, sub.name, sub.owner))
                emit_actions(child, depth + 1)

    root = game.nodes[game.root]
    out.append("  node %s owner %s" % (root.name, root.owner))
    emit_actions(game.root, 2)
    # Auto-generated singletons (named after their node) are reconstructed by
    # the parser; emitting them would collide with the node name.
    explicit = [
        game.infosets[isname]
        for isname in game.infoset_order
        if not (
            len(game.infosets[isname].nodes) == 1
            and game.infosets[isname].name == game.infosets[isname].nodes[0]
        )
    ]
    if explicit:
        out.append("infosets")
        for h in explicit:
            out.append("  %s: %s { %s }" % (h.name, h.owner, " ".join(h.nodes)))
    return "\n".join(out) + "\n"


def serialize_solution(trace):
    """Render a finished solve trace as deterministic JSON.

    Schema "fisolve.trace/1". All probabilities and payoffs are exact
    rational strings ("2/3", "5"). Witness belief systems are included for
    the surviving strategies only; eliminated strategies carry a reason
    instead. A nested base run, when present, is summarized by its rounds
    and fixed point alone.
    """
    return to_json(_solution_doc(trace))


def _round_sets(game, rounds):
    """Each round's surviving strategy names per player, for JSON output."""
    return [
        {p: [s.name for s in r.strategies(p)] for p in game.players}
        for r in rounds
    ]


def _solution_doc(trace):
    """The "fisolve.trace/1" document of a trace, as plain dicts and lists."""
    game = trace.game
    witnesses = {}
    # Members of one plan share a witness object, and a point witness may
    # serve several plans: each distinct object is rendered once.
    rendered = {}
    for p in game.players:
        per = {}
        for s in trace.survivors.strategies(p):
            cps = trace.witnesses.get((p, s.name))
            if cps is None:
                continue
            doc = rendered.get(id(cps))
            if doc is None:
                doc = rendered[id(cps)] = {
                    h: {label: _fmt_rational(v) for label, v in row.items()}
                    for h, row in cps.as_labels().items()
                }
            per[s.name] = doc
        if per:
            witnesses[p] = per

    doc = {
        "schema": "fisolve.trace/1",
        "game": game.name,
        "procedure": trace.procedure,
        "players": list(game.players),
        "rounds": _round_sets(game, trace.rounds),
        "fixed_point_round": trace.fixed_point_round,
        "empty": trace.survivors.is_empty(),
        "outcomes": [
            {
                "leaf": leaf.name,
                "payoffs": {
                    p: _fmt_rational(v)
                    for p, v in zip(game.players, leaf.payoffs)
                },
            }
            for leaf in trace.outcomes
        ],
        "eliminations": [
            {"round": n, "player": p, "strategy": s, "reason": reason}
            for n, p, s, reason in trace.eliminations_flat()
        ],
        "witnesses": witnesses,
        "notes": list(trace.notes),
    }
    if trace.base is not None:
        doc["base"] = {
            "procedure": trace.base.procedure,
            "rounds": _round_sets(game, trace.base.rounds),
            "fixed_point_round": trace.base.fixed_point_round,
        }
    return doc


def to_json(doc):
    """The text of `json.dumps(doc, sort_keys=True, indent=2)` for a document
    of dicts with str keys, lists, str, int, bool and None; TypeError on any
    other type or key. json's indented encoder is a pure-Python generator;
    this one pass over a list of parts escapes strings with json's C
    escaper."""
    out = []
    _emit(doc, out, "\n")
    return "".join(out)


def _emit(value, out, newline):
    """Append the parts of one value; `newline` is a line break followed by
    the indentation of the value's own line."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("JSON keys must be str, not %s" % type(key).__name__)
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _emit(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError("cannot encode %s as JSON" % type(value).__name__)


# -- restrictions ---------------------------------------------------------------


class Event:
    """Conjunction of opponent atoms, evaluated against an opponent profile."""

    def __init__(self, atoms):
        self.atoms = tuple(atoms)

    def matches(self, by_player):
        for kind, player, a, b in self.atoms:
            s = by_player[player]
            if kind == "action":
                if s.choices[a] != b:
                    return False
            else:
                if s.index != b:
                    return False
        return True


class LinearClause:
    """sum(coef * P[event]) op rhs, bound to one infoset of the owner."""

    def __init__(self, player, infoset, terms, op, rhs, source=""):
        self.player = player
        self.infoset = infoset
        self.terms = tuple(terms)  # (Fraction, Event)
        self.op = op  # '<=', '>=', '=': also the lp module's spellings
        self.rhs = Fraction(rhs)
        self.source = source


class RestrictionProfile:
    """First-order belief restrictions, a clause list per (player, infoset)."""

    def __init__(self, game, clauses=()):
        self.game = game
        self.by_player = {p: {} for p in game.players}
        for cl in clauses:
            self.by_player[cl.player].setdefault(cl.infoset, []).append(cl)

    def clauses_for(self, player):
        return self.by_player.get(player, {})


_RE_PLAYER = re.compile(r"^player\s+(%s)$" % _NAME)
_RE_AT = re.compile(r"^at\s+(%s)\s*:\s*(.+)$" % _NAME)
_RE_HEADER = re.compile(r"^restrictions(?:\s+for\s+(%s))?$" % _NAME)
_RE_TERM = re.compile(r"^(?:([0-9./\-]+)\s*\*\s*)?P\[([^\]]*)\]$")
_RE_ATOM_ACTION = re.compile(r"^(%s)\s*@\s*(%s)\s*=\s*(%s)$" % (_NAME, _NAME, _ACTION))
_RE_ATOM_STRAT = re.compile(r"^(%s)\s*=\s*([A-Za-z0-9_.+\-]+)$" % _NAME)
_RE_ATOM_REACH = re.compile(r"^reach\s*\(\s*([A-Za-z0-9_/+\-]+)\s*\)$")


def _split_terms(expr, lineno):
    """Split '2*P[..] + P[..] - P[..]' into signed term strings."""
    parts = []
    depth = 0
    cur = ""
    sign = 1
    for ch in expr:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if depth == 0 and ch in "+-" and cur.strip():
            parts.append((sign, cur.strip()))
            sign = 1 if ch == "+" else -1
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append((sign, cur.strip()))
    if not parts:
        raise DslSyntaxError("empty expression", lineno)
    return parts


def _parse_atom(game, owner, text, lineno):
    m = _RE_ATOM_ACTION.match(text)
    if m:
        j, g, a = m.groups()
        if j not in game.players:
            raise UnknownIdentifier("unknown player %r" % (j,), lineno)
        if j == owner:
            raise DslSyntaxError("beliefs are about opponents, not %r itself" % (owner,), lineno)
        if g not in game.infosets or game.infosets[g].owner != j:
            raise UnknownInfoset("%r is not an infoset of %r" % (g, j), lineno)
        actions = game.infosets[g].actions
        if a not in actions:
            raise UnknownIdentifier("no action %r at %r" % (a, g), lineno)
        return [("action", j, game.player_infosets[j].index(g), actions.index(a))]
    m = _RE_ATOM_REACH.match(text)
    if m:
        target = m.group(1)
        if target not in game.nodes and target not in game.leaves:
            raise UnknownIdentifier("unknown node %r" % (target,), lineno)
        d = game._ensure_derived()
        atoms = []
        for step_node, ai in d["paths"][target]:
            j = game.nodes[step_node].owner
            if j == owner:
                continue
            isname = d["infoset_of_node"][step_node]
            atoms.append(("action", j, d["infoset_pos"][isname], ai))
        return atoms
    m = _RE_ATOM_STRAT.match(text)
    if m:
        j, sname = m.groups()
        if j not in game.players:
            raise UnknownIdentifier("unknown player %r" % (j,), lineno)
        if j == owner:
            raise DslSyntaxError("beliefs are about opponents, not %r itself" % (owner,), lineno)
        for s in game.strategies(j):
            if s.name == sname:
                return [("strategy", j, 0, s.index)]
        raise UnknownIdentifier("player %r has no strategy %r" % (j, sname), lineno)
    raise DslSyntaxError("cannot parse atom %r" % (text,), lineno)


def parse_restrictions(text, game):
    """Parse a restriction file against a game; returns a RestrictionProfile.

    Each clause is checked alone with the solver's own polytope check
    (`beliefs.empty_restriction_infosets`), so this builds the player's
    belief space and raises `beliefs.UnsupportedBeliefStructure` for a game
    the engine cannot solve."""
    clauses = []
    current = None
    for lineno, indent, line in _logical_lines(text):
        m = _RE_HEADER.match(line)
        if m:
            if m.group(1) is not None and m.group(1) != game.name:
                raise UnknownIdentifier(
                    "restrictions are for %r, game is %r" % (m.group(1), game.name), lineno
                )
            continue
        m = _RE_PLAYER.match(line)
        if m:
            current = m.group(1)
            if current not in game.players:
                raise UnknownIdentifier("unknown player %r" % (current,), lineno)
            continue
        m = _RE_AT.match(line)
        if m:
            if current is None:
                raise DslSyntaxError("clause before any 'player' line", lineno)
            isname, rest = m.groups()
            if isname not in game.infosets:
                raise UnknownInfoset("unknown infoset %r" % (isname,), lineno)
            if game.infosets[isname].owner != current:
                raise UnknownInfoset(
                    "%r is not an infoset of %r" % (isname, current), lineno
                )
            mm = re.match(r"^(.*?)(<=|>=|=)\s*([0-9./\-]+)$", rest)
            if not mm:
                raise DslSyntaxError("clause needs an operator and rational bound", lineno)
            expr, op, rhs_text = mm.groups()
            rhs = _rational(rhs_text, lineno)
            terms = []
            for sign, term_text in _split_terms(expr, lineno):
                tm = _RE_TERM.match(term_text)
                if not tm:
                    raise DslSyntaxError("cannot parse term %r" % (term_text,), lineno)
                coef_text, atoms_text = tm.groups()
                coef = _rational(coef_text, lineno) if coef_text else Fraction(1)
                atoms = []
                for atom_text in _split_atoms(atoms_text):
                    atoms.extend(_parse_atom(game, current, atom_text, lineno))
                terms.append((sign * coef, Event(atoms)))
            clause = LinearClause(current, isname, terms, op, rhs, source=rest.strip())
            if beliefs.empty_restriction_infosets(game, current, {isname: [clause]}):
                raise InfeasibleClause(
                    "clause %r cannot hold on any belief at %s" % (rest.strip(), isname),
                    lineno,
                )
            clauses.append(clause)
            continue
        raise DslSyntaxError("cannot parse line %r" % (line,), lineno)
    return RestrictionProfile(game, clauses)


def _split_atoms(text):
    parts = [p.strip() for p in text.split(",")]
    return [p for p in parts if p]
