"""Mixed strategies, equilibrium checks, and trembling perturbations.

This module works on the normal form induced by a game tree, in floating
point: the profiles of interest involve irrational weights, so the exact
rational regime of the solver modules does not apply here. The equilibrium
checks take their tolerance as an argument (1e-9 by default); the other
tolerances are module constants, such as _WEIGHT_TOL (1e-12) for a mix's
weights and _RESIDUAL_TOL (1e-10) for a root.

A perturbation substitutes every pure strategy with a mixture that trembles
onto a fixed completely mixed profile. On the payoff tensors that is one
rank-one update per trembling player. The lab answers spot questions about
a candidate equilibrium set: does the perturbed game still have an
equilibrium near it? Claims are checked against declared finite families
only; no universal quantifier over perturbations is decided here.

Nearby equilibria are found per support combination by a root find on the
indifference and feasibility conditions. Payoffs are multilinear in the
mixes, so the conditions' Jacobian is read off the payoff tensors rather
than built by finite differences, and a start that already solves the
conditions exactly (a strict pure equilibrium, say) is accepted without
calling the solver. The solver, `least_squares`, is a Levenberg-Marquardt
written with numpy alone: each step comes from the SVD of the Jacobian,
with singular values below rank tolerance dropped. Support systems are
often rank-deficient (an opponent's pure strategy can make a player's
indifference rows constant), and there its undamped step is the
minimum-norm Gauss-Newton step, which a trust-region method that scales
every step to its radius never takes.

Scenario files (JSON) bundle named profiles, perturbation families, and a
list of checks; weights may be strings like "1 - 1/sqrt(2)" which are
evaluated with a tiny arithmetic interpreter.
"""

import ast
import collections
import functools
import itertools
import json
import math

import numpy as np

# A support root is accepted when every residual is at most this.
_RESIDUAL_TOL = 1e-10
# Rounding allowance for a box vertex's free coordinate (see _box_vertices).
_VERTEX_SLACK = 1e-12
# The largest support size that find_equilibrium_near tries.
_SUPPORT_CAP = 3
# The regret up to which find_equilibrium_near accepts a root as Nash.
_NASH_TOL = 1e-9
# How far a MixedStrategy's weights may stray below 0 or their sum from 1.
_WEIGHT_TOL = 1e-12
# least_squares stops on a relative decrease or a relative step this small.
_LM_TOL = 1e-14

_Fit = collections.namedtuple("_Fit", "x nfev")


class StabilityError(Exception):
    pass


class SearchBudgetExceeded(StabilityError):
    """Support enumeration would exceed the configured budget."""


class MixedStrategy:
    """One player's weights over their full strategies, by strategy name."""

    def __init__(self, game, player, weights):
        if player not in game.players:
            raise StabilityError("unknown player %r" % player)
        names = [s.name for s in game.strategies(player)]
        index = {name: i for i, name in enumerate(names)}
        vec = [0.0] * len(names)
        for name, w in weights.items():
            if name not in index:
                raise StabilityError(
                    "%s has no strategy named %s" % (player, name)
                )
            vec[index[name]] = float(w)
        if not all(map(math.isfinite, vec)):
            raise StabilityError("a weight of %s is not a finite number" % player)
        if min(vec) < -_WEIGHT_TOL:
            raise StabilityError("negative weight for %s" % player)
        total = sum(vec)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise StabilityError(
                "weights of %s sum to %r, not 1" % (player, total)
            )
        self.game = game
        self.player = player
        self.names = names
        self.vector = np.array([w if w > 0.0 else 0.0 for w in vec])

    def weight(self, name):
        return float(self.vector[self.names.index(name)])

    def as_dict(self):
        return {
            n: float(w) for n, w in zip(self.names, self.vector) if w > 0
        }

    def __repr__(self):
        inside = ", ".join(
            "%s:%.6g" % (n, w) for n, w in self.as_dict().items()
        )
        return "MixedStrategy(%s; %s)" % (self.player, inside)


class NormalForm:
    """Payoff tensors of the induced normal form, one per player."""

    def __init__(self, game, tensors):
        self.game = game
        self.players = game.players
        self.shape = tuple(len(game.strategies(p)) for p in game.players)
        self.tensors = tensors

    @classmethod
    def from_game(cls, game):
        table = game.payoff_table()
        shape = [len(game.strategies(p)) for p in game.players]
        leaf_of = np.array(table.positions(game.players[0]), dtype=np.intp).reshape(shape)
        tensors = {
            p: np.array([float(leaf.payoffs[k]) for leaf in table.leaves])[leaf_of]
            for k, p in enumerate(game.players)
        }
        return cls(game, tensors)


def normal_form(game):
    nf = getattr(game, "_normal_form", None)
    if nf is None:
        nf = NormalForm.from_game(game)
        game._normal_form = nf
    return nf


def _as_nf(game_or_nf):
    if isinstance(game_or_nf, NormalForm):
        return game_or_nf
    return normal_form(game_or_nf)


def _vectors(nf, profile):
    out = []
    for p in nf.players:
        mixed = profile[p]
        vec = mixed.vector if isinstance(mixed, MixedStrategy) else np.asarray(mixed)
        out.append(vec)
    return out


def expected_utility(game_or_nf, profile, player):
    """Expectation of the player's payoff under independent mixing."""
    nf = _as_nf(game_or_nf)
    vecs = _vectors(nf, profile)
    operands = [nf.tensors[player], list(range(len(nf.players)))]
    for axis, vec in enumerate(vecs):
        operands.extend([vec, [axis]])
    operands.append([])
    return float(np.einsum(*operands))


def pure_values(game_or_nf, profile, player):
    """Utility of each of the player's pure strategies vs the others' mix."""
    nf = _as_nf(game_or_nf)
    return _pure_values(nf, _vectors(nf, profile), nf.players.index(player))


def _pure_values(nf, vecs, axis):
    operands = [nf.tensors[nf.players[axis]], list(range(len(nf.players)))]
    for k, vec in enumerate(vecs):
        if k != axis:
            operands.extend([vec, [k]])
    operands.append([axis])
    return np.einsum(*operands)


def is_nash(game_or_nf, profile, tol=1e-9):
    """True plus per-player regret when no pure deviation gains above tol."""
    nf = _as_nf(game_or_nf)
    vecs = _vectors(nf, profile)
    regrets = {}
    for k, p in enumerate(nf.players):
        values = _pure_values(nf, vecs, k)
        current = float(values @ vecs[k])
        regrets[p] = max(0.0, float(values.max()) - current)
    return all(r <= tol for r in regrets.values()), regrets


class PerturbationSpec:
    """Completely mixed tremble targets with per-player magnitudes.

    deltas may be a scalar (shared by all players) or a per-player map;
    magnitudes of zero are allowed and leave the game unchanged.
    """

    def __init__(self, sigma_tilde, deltas, delta0=None, epsilon=None):
        self.sigma_tilde = sigma_tilde
        players = list(sigma_tilde)
        if not isinstance(deltas, dict):
            deltas = {p: float(deltas) for p in players}
        self.deltas = deltas
        self.delta0 = delta0
        self.epsilon = epsilon
        for p, mixed in sigma_tilde.items():
            if min(mixed.vector.tolist()) <= 0:
                raise StabilityError(
                    "tremble target of %s is not completely mixed" % p
                )
            d = self.deltas.get(p, 0.0)
            if d < 0 or (delta0 is not None and d > delta0):
                raise StabilityError("tremble magnitude %r out of range" % d)


def perturb_game(game_or_nf, spec):
    """Replace each pure strategy by its trembled mixture, per player.

    Player k's tremble matrix (1 - d) I + d 1 target^T is the identity plus
    a rank-one term, so along k's axis it maps a tensor t to (1 - d) t plus
    d times t contracted with the target, repeated along that axis. All the
    players' tensors are stacked, so this is one contraction per trembling
    player; a player with d = 0 is skipped and leaves its axis exact."""
    nf = _as_nf(game_or_nf)
    stack = np.stack([nf.tensors[p] for p in nf.players])
    for axis, p in enumerate(nf.players, start=1):
        d = spec.deltas.get(p, 0.0)
        if d == 0:
            continue
        shape = [1] * stack.ndim
        shape[axis] = -1
        target = spec.sigma_tilde[p].vector.reshape(shape)
        mean = (stack * target).sum(axis=axis, keepdims=True)
        stack = (1.0 - d) * stack + d * mean
    return NormalForm(nf.game, {p: stack[k] for k, p in enumerate(nf.players)})


def _support_orders(n, target_vec, cap):
    """Supports of size <= cap, nearest to the target support first."""
    near = sum(1 << i for i, w in enumerate(target_vec) if w > 1e-12)
    return _ordered_supports(n, cap, near)


@functools.lru_cache(maxsize=1024)
def _ordered_supports(n, cap, near):
    """The supports of size <= cap over n strategies, ordered by the size of
    their symmetric difference with the support whose bit mask is `near`,
    then by size, then by index order."""
    subsets = [
        (sum(1 << i for i in s), s)
        for size in range(1, min(cap, n) + 1)
        for s in itertools.combinations(range(n), size)
    ]
    subsets.sort(key=lambda ms: ((ms[0] ^ near).bit_count(), len(ms[1]), ms[1]))
    return tuple(s for _, s in subsets)


def _box_vertices(target_vec, support, epsilon):
    """Vertices of the box polytope: mixes on `support` within epsilon of the
    target in max norm, one full-length list per vertex, none when it is
    empty. A vertex has at most one coordinate strictly inside its bounds,
    so every choice of that coordinate and of lower or upper bounds for the
    others gives one candidate; a candidate is kept when the sum pins the
    free coordinate inside its bounds."""
    n = len(target_vec)
    if any(target_vec[i] > epsilon for i in range(n) if i not in support):
        return []
    lo = [max(float(target_vec[i]) - epsilon, 0.0) for i in support]
    hi = [min(float(target_vec[i]) + epsilon, 1.0) for i in support]
    points = set()
    for free in range(len(support)):
        bounds = [(lo[i], hi[i]) for i in range(len(support)) if i != free]
        for corner in itertools.product(*bounds):
            x = 1.0 - sum(corner)
            if lo[free] - _VERTEX_SLACK <= x <= hi[free] + _VERTEX_SLACK:
                points.add(corner[:free] + (x,) + corner[free:])
    rows = []
    for point in sorted(points):
        row = [0.0] * n
        for i, w in zip(support, point):
            row[i] = w
        rows.append(row)
    return rows


def _dominance_margin(nf):
    """The gain above which a pure strategy refutes a support strategy.

    `_solve_support` accepts a root z whose residuals are all within
    _RESIDUAL_TOL, so at z a support strategy trails any pure strategy by
    at most 2 * _RESIDUAL_TOL. It then clips and renormalises z, which
    moves a mix on s strategies by at most (2s + 1) * _RESIDUAL_TOL in L1,
    and each opponent's move changes a payoff difference by at most twice
    the largest absolute payoff times that. Ten times the sum of these
    bounds leaves room for rounding, so no accepted profile has a support
    strategy trailing by more."""
    scale = max(float(np.max(np.abs(t))) for t in nf.tensors.values())
    size = min(_SUPPORT_CAP, max(nf.shape))
    spread = 2.0 * scale * (len(nf.players) - 1) * (2 * size + 1)
    return 10.0 * _RESIDUAL_TOL * (2.0 + spread)


def _dominated(nf, k, vertices, margin):
    """Player k's strategies that some pure strategy of theirs beats by more
    than margin at every product of the opponents' box vertices."""
    nplayers = len(nf.players)
    operands = [nf.tensors[nf.players[k]], list(range(nplayers))]
    out = [k]
    for j, verts in enumerate(vertices):
        if j != k:
            operands.extend([np.asarray(verts), [nplayers + j, j]])
            out.append(nplayers + j)
    operands.append(out)
    values = np.einsum(*operands).reshape(nf.shape[k], -1)
    gain = (values[:, None, :] - values[None, :, :]).min(axis=2)
    return frozenset(int(i) for i in np.nonzero((gain > margin).any(axis=0))[0])


def _entry_row(nf, k, supports):
    """Player k's payoffs, by k's strategy, against the first strategy of
    every other player's support, as Python floats."""
    at = tuple(slice(None) if j == k else s[0] for j, s in enumerate(supports))
    return nf.tensors[nf.players[k]][at].tolist()


def _dominated_by_entries(row, margin):
    """`_dominated` against opponents that are all pure. Each one's box is
    their unit vector, so k's values there are the entry row itself, and
    the best pure strategy gains max(row) - row[i] over strategy i."""
    best = max(row)
    return frozenset(i for i, v in enumerate(row) if best - v > margin)


def find_equilibrium_near(game_or_nf, target, epsilon, budget=20000):
    """Search for a Nash profile within epsilon (max-norm over all pure
    strategy weights) of the target, by support enumeration plus a local
    root find on the indifference and feasibility conditions. Returns a
    profile dict or None. Raises SearchBudgetExceeded when the support
    grid is larger than the budget.

    Support combinations are tried in the order of `itertools.product`
    over each player's supports of size at most _SUPPORT_CAP, and each
    player's supports run nearest to the target's support first (size of
    the symmetric difference, then size, then index order). The first
    combination whose root is Nash and epsilon-close is returned.

    A combination is refuted without a root find when one player's box,
    the mixes on their support within epsilon of the target, is empty, or
    when some strategy in a player's support is conditionally dominated:
    a pure strategy of the same player gains more than a margin over it at
    every product of the opponents' box vertices. A payoff difference is
    multilinear in the opponents' mixes, so its minimum over the product
    of boxes sits at a product of vertices (Porter, Nudelman & Shoham
    2008, GEB 63), and no accepted root inside the boxes leaves a support
    strategy that far behind. The margin is derived from the root
    finder's residual tolerance and the largest absolute payoff (see
    `_dominance_margin`). Refuted combinations can never return a close
    profile, so the first hit is the one an unpruned search returns. None
    means that no combination of supports of size at most _SUPPORT_CAP
    gave a close equilibrium; larger supports are not searched. A root is
    Nash when no player's regret exceeds _NASH_TOL.

    Two shortcuts leave the answer and the number of root finds as they
    are. A support that leaves out a strategy the target weighs above
    epsilon has an empty box whatever the other players do, so it is
    dropped from its player's list before the product is formed; the
    other combinations keep their order, and the budget still counts the
    full grid. Against opponents that are all pure, each box is one unit
    vertex, and contracting with unit vertices multiplies one entry by 1.0
    and adds zeros, which is exact: a player's values there are one row of
    their tensor's entries (`_entry_row`). Rounding is monotone, so the
    largest entry minus entry i exceeds the margin exactly when some
    entry's difference does, and dominance compares entries alone. When
    every support is pure, whether the start is a root is read off the
    same entries (see `_solve_support`)."""
    return _search(game_or_nf, target, epsilon, budget)[0]


def _search(game_or_nf, target, epsilon, budget):
    """find_equilibrium_near's search; also returns how many support
    combinations reached the root finder."""
    nf = _as_nf(game_or_nf)
    targets = [v.tolist() for v in _vectors(nf, target)]
    orders = [
        _support_orders(n, t, _SUPPORT_CAP) for n, t in zip(nf.shape, targets)
    ]
    total = math.prod(len(o) for o in orders)
    if total > budget:
        raise SearchBudgetExceeded(
            "%d support combinations exceed the budget of %d" % (total, budget)
        )
    # A support that leaves out a strategy the target weighs above epsilon
    # has an empty box, so no combination holding it is enumerated.
    heavy = [[i for i, w in enumerate(t) if w > epsilon] for t in targets]
    orders = [
        [s for s in o if all(i in s for i in h)] for o, h in zip(orders, heavy)
    ]

    boxes = {}
    dominated = {}
    margin = _dominance_margin(nf)
    root_finds = 0
    for combo in itertools.product(*orders):
        vertices = []
        for k, supp in enumerate(combo):
            if (k, supp) not in boxes:
                boxes[k, supp] = _box_vertices(targets[k], supp, epsilon)
            vertices.append(boxes[k, supp])
        if not all(vertices):
            continue
        refuted = False
        for k, supp in enumerate(combo):
            others = combo[:k] + combo[k + 1 :]
            key = (k, others)
            if key not in dominated:
                if all(len(s) == 1 for s in others):
                    row = _entry_row(nf, k, combo)
                    dominated[key] = _dominated_by_entries(row, margin)
                else:
                    dominated[key] = _dominated(nf, k, vertices, margin)
            if dominated[key].intersection(supp):
                refuted = True
                break
        if refuted:
            continue
        root_finds += 1
        found = _solve_support(nf, combo, targets, _NASH_TOL)
        if found is None:
            continue
        close = all(
            abs(f - t) <= epsilon
            for fk, tk in zip(found, targets)
            for f, t in zip(fk, tk)
        )
        if not close:
            continue
        profile = {
            p: MixedStrategy(
                nf.game,
                p,
                {
                    s.name: float(found[k][s.index])
                    for s in nf.game.strategies(p)
                    if found[k][s.index] > 0
                },
            )
            for k, p in enumerate(nf.players)
        }
        return profile, root_finds
    return None, root_finds


def _support_system(nf, supports):
    """The support conditions as a residual and its Jacobian, both functions
    of z, the players' weights on their supports laid end to end.

    Per player the rows are: the weights' sum minus 1, min(w, 0) per weight,
    each support strategy's value minus the first's, and per strategy off
    the support max(0, its value minus the least support value). Values are
    multilinear, so the derivative of player k's values in player j's
    weights is k's tensor contracted with every mix but k's and j's. One
    set of those contractions gives the values and the Jacobian, and the
    last one is kept for the next call at the same z. The piecewise rows
    take one-sided derivatives: 0 on a kink's inactive side, and the first
    of tied least support values."""
    nplayers = len(nf.players)
    sizes = [len(s) for s in supports]
    offsets = list(itertools.accumulate(sizes, initial=0))
    starts = offsets[:-1]
    # The players' values are laid end to end too, player k's from base[k].
    base = list(itertools.accumulate(nf.shape, initial=0))
    sum_rows, min_rows, diff_rows, off_rows = [], [], [], []
    in_at, diff_at, first_at, off_at, off_owner = [], [], [], [], []
    r = 0
    for k, (n, supp) in enumerate(zip(nf.shape, supports)):
        s = len(supp)
        at = [base[k] + i for i in supp]
        off = [base[k] + i for i in range(n) if i not in supp]
        sum_rows.append(r)
        min_rows.extend(range(r + 1, r + 1 + s))
        diff_rows.extend(range(r + 1 + s, r + 2 * s))
        off_rows.extend(range(r + 2 * s, r + n + s))
        in_at += at
        diff_at += at[1:]
        first_at += at[:1] * (s - 1)
        off_at += off
        off_owner += [k] * len(off)
        r += n + s
    nrows = r
    sum_rows, min_rows, diff_rows, off_rows, in_at, diff_at, first_at, off_at, off_owner = (
        np.asarray(a, dtype=np.intp)
        for a in (
            sum_rows, min_rows, diff_rows, off_rows,
            in_at, diff_at, first_at, off_at, off_owner,
        )
    )
    sum_of_col = np.repeat(sum_rows, sizes)
    in_by_player = [in_at[a:b] for a, b in zip(starts, offsets[1:])]
    # A mix is zero off its support, so only the opponents' support columns
    # of player k's tensor count. Per opponent j it is viewed with axes k,
    # j, then the others, which are contracted from the last axis.
    views = []
    for k, p in enumerate(nf.players):
        t = nf.tensors[p]
        for j in range(nplayers):
            if j != k:
                t = t.take(supports[j], axis=j)
        pairs = []
        for j in range(nplayers):
            if j != k:
                rest = [m for m in range(nplayers) if m not in (k, j)]
                pairs.append((j, t.transpose([k, j] + rest), rest[::-1]))
        views.append((t, pairs))
    last = {}

    def contract(z):
        if "z" in last and np.array_equal(last["z"], z):
            return last["values"], last["grads"]
        ws = [z[a:b] for a, b in zip(starts, offsets[1:])]
        grads = np.zeros((base[-1], offsets[-1]))
        values = []
        for k, (t, pairs) in enumerate(views):
            for j, d, rest in pairs:
                for m in rest:
                    d = d @ ws[m]
                grads[base[k] : base[k + 1], offsets[j] : offsets[j + 1]] = d
            # Any one opponent's derivative times their mix is k's values.
            values.append(d @ ws[j] if pairs else t)
        values = np.concatenate(values)
        last.update(z=z.copy(), values=values, grads=grads)
        return values, grads

    def residual(z):
        values, _ = contract(z)
        out = np.empty(nrows)
        out[sum_rows] = np.add.reduceat(z, starts) - 1.0
        out[min_rows] = np.minimum(z, 0.0)
        out[diff_rows] = values[diff_at] - values[first_at]
        least = np.minimum.reduceat(values[in_at], starts)
        out[off_rows] = np.maximum(0.0, values[off_at] - least[off_owner])
        return out

    def jacobian(z):
        values, grads = contract(z)
        jac = np.zeros((nrows, offsets[-1]))
        cols = np.arange(offsets[-1])
        jac[sum_of_col, cols] = 1.0
        jac[min_rows, cols] = z < 0.0
        jac[diff_rows] = grads[diff_at] - grads[first_at]
        # np.argmin picks the first of tied least values.
        low_at = np.array([at[np.argmin(values[at])] for at in in_by_player])
        low_at = low_at[off_owner]
        active = values[off_at] - values[low_at] > 0.0
        jac[off_rows] = np.where(active[:, None], grads[off_at] - grads[low_at], 0.0)
        return jac

    return residual, jacobian


def least_squares(fun, x0, jac):
    """Levenberg-Marquardt from x0 on the residual `fun` with Jacobian
    `jac`; returns the last accepted point as `.x` and the number of
    residual evaluations as `.nfev`. A start with a zero residual is
    returned after one evaluation, with no Jacobian.

    Each step d minimises |J d + r|^2 + lam |d|^2, read off the SVD of J:
    d = -V diag(s / (s^2 + lam)) U^T r over the singular values above
    numpy's rank tolerance, so at lam = 0 it is the minimum-norm
    Gauss-Newton step even where J is rank-deficient. lam starts at 0. A
    step that does not lower the sum of squares is rejected and lam grows
    tenfold (to at least 1e-3 s_max^2); an accepted step divides it by
    ten. The search stops at a zero residual, when an accepted step lowers
    the sum of squares by at most _LM_TOL of it, when a step is at most
    _LM_TOL relative to x, when J is zero, or after 100 (n + 1) residual
    evaluations, MINPACK's default budget."""
    x = np.asarray(x0, dtype=float)
    r = fun(x)
    nfev, cost, lam = 1, float(r @ r), 0.0
    step = None
    while cost > 0.0 and nfev < 100 * (len(x) + 1):
        if step is None:
            u, s, vt = np.linalg.svd(jac(x), full_matrices=False)
            keep = s > s[0] * max(len(r), len(x)) * np.finfo(float).eps
            if not keep.any():
                break
            step = s[keep], u[:, keep].T @ r, vt[keep].T
        s, g, v = step
        d = v @ (s / (s * s + lam) * g)
        trial = x - d
        r_trial = fun(trial)
        nfev += 1
        trial_cost = float(r_trial @ r_trial)
        tiny = np.linalg.norm(d) <= _LM_TOL * (_LM_TOL + np.linalg.norm(x))
        if trial_cost < cost:
            stalled = cost - trial_cost <= _LM_TOL * cost
            x, r, cost, lam, step = trial, r_trial, trial_cost, lam / 10.0, None
            if stalled:
                break
        else:
            lam = max(10.0 * lam, 1e-3 * s[0] ** 2)
        if tiny:
            break
    return _Fit(x, nfev)


def _pure_root(nf, supports):
    """Whether every support is pure and the pure profile solves the support
    conditions exactly: no player's entry row has an entry above their own."""
    if any(len(s) != 1 for s in supports):
        return False
    for k, supp in enumerate(supports):
        row = _entry_row(nf, k, supports)
        if max(row) > row[supp[0]]:
            return False
    return True


def _solve_support(nf, supports, target_vecs, tol):
    """Root find the support conditions from the target's weights on the
    supports, renormalised (uniform where the target puts no mass); returns
    the players' full-length mixes as lists, or None. A start whose
    residual is exactly zero is the root, taken without calling
    least_squares, which would return it unchanged.

    When every support is pure the start is the pure profile, at which
    every value is a tensor entry times 1.0, so its residual is zero
    exactly when no player's entry row has an entry above their own. That
    is decided on the entries (`_pure_root`), without building the
    system."""
    start = []
    for t, supp in zip(target_vecs, supports):
        w = [float(t[i]) for i in supp]
        s = sum(w)
        start.extend([1.0 / len(w)] * len(w) if s < 1e-9 else [v / s for v in w])
    x = start
    if not _pure_root(nf, supports):
        residual, jacobian = _support_system(nf, supports)
        x = np.asarray(start)
        if np.any(residual(x)):
            x = least_squares(residual, x, jacobian).x
            if float(np.max(np.abs(residual(x)))) > _RESIDUAL_TOL:
                return None
        x = x.tolist()
    vecs = []
    at = 0
    for n, supp in zip(nf.shape, supports):
        v = [0.0] * n
        for i in supp:
            v[i] = x[at] if x[at] > 0.0 else 0.0
            at += 1
        total = sum(v)
        vecs.append([w / total for w in v])
    ok, _ = is_nash(nf, dict(zip(nf.players, vecs)), tol)
    if not ok:
        return None
    return vecs


def _safe_expr(text):
    """Evaluate a small arithmetic expression: numbers, + - * /, sqrt."""
    try:
        node = ast.parse(str(text), mode="eval")
    except (SyntaxError, ValueError):
        raise StabilityError("unparseable expression: %r" % text) from None

    def walk(n):
        if isinstance(n, ast.Expression):
            return walk(n.body)
        if isinstance(n, ast.Constant) and isinstance(n.value, (int, float)):
            return float(n.value)
        if isinstance(n, ast.BinOp) and isinstance(
            n.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            a, b = walk(n.left), walk(n.right)
            if isinstance(n.op, ast.Add):
                return a + b
            if isinstance(n.op, ast.Sub):
                return a - b
            if isinstance(n.op, ast.Mult):
                return a * b
            return a / b
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            return -walk(n.operand)
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == "sqrt"
            and len(n.args) == 1
        ):
            return math.sqrt(walk(n.args[0]))
        raise StabilityError("unsupported expression: %r" % text)

    try:
        return walk(node)
    except (ArithmeticError, ValueError) as exc:
        raise StabilityError("cannot evaluate %r: %s" % (text, exc)) from None


def parse_scenario(text):
    return json.loads(text)


def _number(check, field, default=None):
    """The check's field as a float; default when it is absent."""
    value = check.get(field, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise StabilityError(
            "%s of a %s check is not a number: %r" % (field, check["check"], value)
        ) from None


_JSON_KINDS = {dict: "object", list: "array"}


def _json(value, kind, what):
    """The value, once it is a JSON object (kind dict) or array (list)."""
    if not isinstance(value, kind):
        raise StabilityError("%s is not a JSON %s" % (what, _JSON_KINDS[kind]))
    return value


def _profile_from_doc(game, doc):
    profile = {}
    for player, weights in _json(doc, dict, "a profile").items():
        weights = _json(weights, dict, "the mix of %s" % player)
        profile[player] = MixedStrategy(
            game, player, {name: _safe_expr(w) for name, w in weights.items()}
        )
    return profile


# The fields each scenario check kind needs; "tol" is optional.
_CHECK_FIELDS = {
    "nash": ("profile",),
    "indifference": ("profile", "player", "between"),
    "perturbed-equilibrium": ("targets", "tremble", "delta", "epsilon", "expect"),
}


def _complete(game, profile, what):
    """The profile, once it has a mix for every player of the game."""
    missing = [p for p in game.players if p not in profile]
    if missing:
        raise StabilityError("%s has no mix for %s" % (what, ", ".join(missing)))
    return profile


def run_scenario(game, scenario):
    """Execute scenario checks; returns rows (description, passed, detail)."""
    _json(scenario, dict, "the scenario")
    profiles = {
        name: _complete(game, _profile_from_doc(game, doc), "profile %r" % name)
        for name, doc in _json(scenario.get("profiles", {}), dict, "profiles").items()
    }

    def profile(name):
        if name not in profiles:
            raise StabilityError("unknown profile %r" % name)
        return profiles[name]

    rows = []
    for check in _json(scenario.get("checks", []), list, "checks"):
        kind = _json(check, dict, "a check").get("check")
        if kind not in _CHECK_FIELDS:
            raise StabilityError("unknown check kind %r" % kind)
        missing = [f for f in _CHECK_FIELDS[kind] if f not in check]
        if missing:
            raise StabilityError("%s check lacks %s" % (kind, ", ".join(missing)))
        if kind == "nash":
            tol = _number(check, "tol", 1e-9)
            ok, regrets = is_nash(game, profile(check["profile"]), tol)
            worst = max(regrets.values())
            rows.append((
                "nash %s (tol %g)" % (check["profile"], tol),
                ok,
                "max regret %.3g" % worst,
            ))
        elif kind == "indifference":
            tol = _number(check, "tol", 1e-9)
            player = check["player"]
            if player not in game.players:
                raise StabilityError("unknown player %r" % player)
            values = pure_values(game, profile(check["profile"]), player)
            names = [s.name for s in game.strategies(player)]
            between = _json(check["between"], list, "between")
            if len(between) != 2:
                raise StabilityError(
                    "indifference between wants two strategy names, not %r" % (between,)
                )
            a, b = between
            for name in (a, b):
                if name not in names:
                    raise StabilityError(
                        "%s has no strategy named %s" % (player, name)
                    )
            gap = abs(values[names.index(a)] - values[names.index(b)])
            rows.append((
                "indifference %s: %s vs %s" % (check["profile"], a, b),
                bool(gap < tol),
                "gap %.3g" % gap,
            ))
        elif kind == "perturbed-equilibrium":
            expect = check["expect"]
            if expect not in ("found", "none"):
                raise StabilityError(
                    "expect must be \"found\" or \"none\", not %r" % expect
                )
            targets = [profile(name) for name in _json(check["targets"], list, "targets")]
            tremble = _complete(game, _profile_from_doc(game, check["tremble"]), "tremble")
            delta = _number(check, "delta")
            eps = _number(check, "epsilon")
            spec = PerturbationSpec(tremble, delta, delta0=delta, epsilon=eps)
            perturbed = perturb_game(game, spec)
            details = []
            hits = []
            for name, target in zip(check["targets"], targets):
                found, root_finds = _search(perturbed, target, eps, 20000)
                hits.append(found is not None)
                if found is not None:
                    details.append("%s:hit" % name)
                elif root_finds == 0:
                    details.append(
                        "%s:none (every support <= %d refuted)" % (name, _SUPPORT_CAP)
                    )
                else:
                    details.append("%s:none (not found)" % name)
            ok = all(hits) if expect == "found" else not any(hits)
            rows.append((
                "perturbed equilibrium near {%s} delta %g eps %g expect %s"
                % (",".join(check["targets"]), delta, eps, expect),
                ok,
                ", ".join(details),
            ))
    return rows
