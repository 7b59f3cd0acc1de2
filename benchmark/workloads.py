"""The four benchmark workloads: their inputs, the timed op, and its checks.

A workload turns a pool id into one op input (an `Item`) and runs that op
from text, so every op starts from a freshly parsed game with cold derived
state, as one CLI invocation would. Items carry plain text and numbers only;
no game object outlives the op that parsed it.

Op cost is heavy-tailed on every workload: a random draw of a few dozen
games per run would make the run's cost depend mostly on how many large
games the seed happened to draw. So each run's items are a stratified sample
of a calibrated pool: `pool/<workload>.json` records, for pool ids
0..N-1, the op's cost measured at the commit that defined the benchmark (and
its answer, see below). The pool is ranked by that cost, the workload's band
of ranks is cut into `strata` equal, contiguous rank ranges, and the seed
draws `passes` distinct ids from each stratum. A pass runs one id of every
stratum, plus the bundled fixtures. Every seed thus gets different games
with the same cost profile, and a run of whole passes samples the band
densely and evenly. Ops above the calibration cap rank last, beyond every
band, and are never drawn.

The frozen answers in the pool files (survivor sets, oracle counts,
found/none verdicts) are checked on every run, in addition to invariants
that need no stored answer and the hand-written answers for the bundled
fixtures.
"""

import contextlib
import io
import json
import os
import random

from fisolve import beliefs, cli, dsl, randgen, solvers, stability

HERE = os.path.dirname(os.path.abspath(__file__))

WORKERS = 1


class Item:
    """One op input. `pool_id` is None for a bundled fixture."""

    def __init__(self, label, args, pool_id=None, expected=None):
        self.label = label
        self.args = args
        self.pool_id = pool_id
        self.expected = expected


def _survivor_text(pset, players):
    return "|".join(
        "%s:%s" % (p, ",".join(s.name for s in pset.strategies(p)))
        for p in players
    )


def _outcome_names(trace):
    return sorted(leaf.name for leaf in trace.outcomes)


def _witness_error(trace):
    """Every final survivor needs a valid witness it best-replies to."""
    game = trace.game
    for p in game.players:
        for s in trace.survivors.strategies(p):
            cps = trace.witnesses.get((p, s.name))
            if cps is None:
                return "%s %s survives without a witness" % (p, s.name)
            if not beliefs.is_valid_cps(game, p, cps):
                return "witness of %s %s is not a valid CPS" % (p, s.name)
            if not beliefs.sequential_best_reply(game, p, s, cps):
                return "%s %s is not a best reply to its witness" % (p, s.name)
    return None


def restriction_text(game, delta):
    """Render point restrictions in the restriction file format.

    Atoms on players with a single strategy constrain nothing and are left
    out, because that strategy's name ("(idle)") is not a valid atom.
    """
    out = ["restrictions for %s" % game.name]
    for p in game.players:
        lines = []
        for h, clauses in delta.clauses_for(p).items():
            for cl in clauses:
                terms = []
                for coef, event in cl.terms:
                    atoms = ", ".join(
                        "%s = %s" % (j, game.strategies(j)[idx].name)
                        for _, j, _, idx in event.atoms
                        if len(game.strategies(j)) > 1
                    )
                    terms.append("%s*P[%s]" % (coef, atoms))
                lines.append("  at %s: %s %s %s" % (h, " + ".join(terms), cl.op, cl.rhs))
        if lines:
            out.append("player %s" % p)
            out.extend(lines)
    return "\n".join(out) + "\n"


class Workload:
    """Base: pool loading, stratified sampling, fixture handling."""

    name = None
    band = (0.0, 1.0)  # quantile range of the pool ranked by cost
    strata = 10  # equal rank ranges of the band; a pass runs one id of each
    passes = 8  # distinct passes built per run; a longer run repeats them
    # Fixed per workload, so that it leaves well over 10 samples beyond it
    # in a normal run; the output states how many it left.
    tail_percentile = 90

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir

    def read_game_file(self, name):
        with open(os.path.join(self.root, "games", name)) as fh:
            return fh.read()

    def pool(self):
        """Calibrated entries [pool_id, cost_s or None, answer]."""
        with open(os.path.join(HERE, "pool", self.name + ".json")) as fh:
            return json.load(fh)

    def stratify(self, entries):
        """Pool entries ranked by cost, the band cut into `strata` contiguous
        rank ranges; capped entries rank last and are left out."""
        ranked = sorted(
            entries, key=lambda e: (e[1] is None, e[1] if e[1] is not None else 0.0, e[0])
        )
        lo, hi = self.band
        bounds = [int((lo + (hi - lo) * j / self.strata) * len(ranked)) for j in range(self.strata + 1)]
        return [
            [e for e in ranked[a:b] if e[1] is not None] for a, b in zip(bounds, bounds[1:])
        ]

    def build(self, seed):
        """The passes of one run, each a shuffled list of items: the
        fixtures, then one seeded draw from every stratum."""
        doc = self.pool()
        fixtures = self.fixtures(doc.get("fixtures", {}))
        rng = random.Random("%s/%d" % (self.name, seed))
        draws = [rng.sample(stratum, self.passes) for stratum in self.stratify(doc["entries"])]
        passes = []
        for p in range(self.passes):
            items = list(fixtures)
            for draw in draws:
                pool_id, _cost, answer = draw[p]
                item = self.make_item(pool_id)
                item.expected = answer
                items.append(item)
            rng.shuffle(items)
            passes.append(items)
        return passes

    def fixtures(self, answers):
        return []

    def make_item(self, pool_id):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def digest(self, out):
        """Deterministic text of an op's output, compared across executions."""
        raise NotImplementedError

    def answer(self, out):
        """The frozen part of an op's output."""
        raise NotImplementedError

    def check(self, item, out):
        """None when the output is right, else a reason."""
        err = self.invariant_error(item, out)
        if err is None and item.expected is not None:
            answer = self.answer(out)
            if answer != item.expected:
                err = "answer %r differs from the frozen %r" % (answer, item.expected)
        return err

    def invariant_error(self, item, out):
        raise NotImplementedError


class RatLarge(Workload):
    """Parse, rationalizability with explanations, serialize; default sizes."""

    name = "rat-large"
    band = (0.35, 0.78)
    strata = 20
    passes = 12
    tail_percentile = 90

    def make_item(self, pool_id):
        text = dsl.serialize_game(randgen.random_game(pool_id))
        return Item("game %d" % pool_id, text, pool_id)

    def run(self, item):
        game = dsl.parse_game(item.args)
        trace = solvers.rationalizability(game, workers=WORKERS)
        return trace, dsl.serialize_solution(trace)

    def digest(self, out):
        return out[1]

    def answer(self, out):
        trace = out[0]
        return _survivor_text(trace.survivors, trace.game.players)

    def invariant_error(self, item, out):
        trace = out[0]
        if trace.fixed_point_round is None or trace.survivors.is_empty():
            return "rationalizability ended without a nonempty fixed point"
        return _witness_error(trace)


RESTRICTED_FIXTURES = (
    ("bribe", "bribe.game", "bribe_report.beliefs"),
    ("cleo_nw", "cleo.game", "cleo_nw.beliefs"),
    ("cleo_se_path", "cleo.game", "cleo_se_path.beliefs"),
)


class RestrictedMixed(Workload):
    """Selective, strong-delta and no-s3 runs, plus the closure when
    selective is nonempty, on fixtures and random point restrictions."""

    name = "restricted-mixed"
    band = (0.3, 0.9)
    strata = 12
    passes = 4
    tail_percentile = 90
    max_strategies = 8

    def fixtures(self, answers):
        return [
            Item(label, (self.read_game_file(g), self.read_game_file(r)), expected=answers.get(label))
            for label, g, r in RESTRICTED_FIXTURES
        ]

    def instance(self, pool_id):
        """(game text, restriction text), or None when the draw is unusable."""
        game = randgen.random_game(pool_id, max_strategies=self.max_strategies)
        base = solvers.rationalizability(game, explain=False, workers=WORKERS)
        delta = randgen.random_point_restrictions(10000 + pool_id, game, base)
        if delta is None or not solvers.is_rationalizable_restriction(game, delta, base=base):
            return None
        return dsl.serialize_game(game), restriction_text(game, delta)

    def make_item(self, pool_id):
        args = self.instance(pool_id)
        return None if args is None else Item("game %d" % pool_id, args, pool_id)

    def run(self, item):
        game_text, restriction_text_ = item.args
        game = dsl.parse_game(game_text)
        delta = dsl.parse_restrictions(restriction_text_, game)
        sel = solvers.selective_rationalizability(game, delta, workers=WORKERS)
        sd = solvers.strong_delta_rationalizability(game, delta, workers=WORKERS)
        ns3 = solvers.solve_without_s3(game, delta, base=sel.base, workers=WORKERS)
        closure = None
        if not sel.survivors.is_empty():
            implicit = solvers.rationalize_restrictions(game, delta, base=sel.base)
            closure = solvers.generalized_solve(
                solvers.ProcedureSpec(game, "closure", restrictions=implicit, workers=WORKERS)
            )
        traces = (sel, sd, ns3, closure)
        texts = tuple(dsl.serialize_solution(t) for t in traces if t is not None)
        return traces, texts

    def digest(self, out):
        return "\n".join(out[1])

    def answer(self, out):
        sel, sd, _ns3, closure = out[0]
        players = sel.game.players
        return "sel=%s;sd=%s;closure=%s" % (
            _survivor_text(sel.survivors, players),
            _survivor_text(sd.survivors, players),
            "-" if closure is None else ",".join(_outcome_names(closure)),
        )

    def invariant_error(self, item, out):
        sel, sd, ns3, closure = out[0]
        if sel.rounds != ns3.rounds:
            return "no-s3 differs from selective round by round"
        if closure is not None and _outcome_names(closure) != _outcome_names(sel):
            return "closure outcomes differ from selective outcomes"
        for trace in out[0]:
            if trace is not None:
                err = _witness_error(trace)
                if err is not None:
                    return "%s: %s" % (trace.procedure, err)
        if item.pool_id is None:
            return self.fixture_error(item.label, sel, sd)
        return None

    @staticmethod
    def fixture_error(label, sel, sd):
        """The answers the paper and the README give for the fixtures."""
        outs = set(_outcome_names(sel))
        if label == "bribe":
            if not sel.survivors.is_empty() or sel.fixed_point_round != 1:
                return "bribe selective should be empty after round 1"
            if sel.rounds[1].strategies("Ann"):
                return "bribe selective should eliminate every Ann strategy in round 1"
            if set(_outcome_names(sd)) != {"N"}:
                return "bribe strong-delta should predict exactly N"
            return None
        base = sel.base.survivors
        if any(len(base.strategies(p)) != 4 for p in sel.game.players):
            return "cleo rationalizability should keep 4x4x4"
        if label == "cleo_nw" and outs != {"O/N/W"}:
            return "cleo_nw selective should be exactly O/N/W"
        if label == "cleo_se_path" and ("O/S/E" not in outs or len(outs) < 2):
            return "cleo_se_path selective should contain O/S/E and more"
        return None


class EquilibriumLab(Workload):
    """One find_equilibrium_near search on a perturbed normal form."""

    name = "equilibrium-lab"
    band = (0.0, 0.8)
    strata = 40
    passes = 8
    tail_percentile = 95
    max_strategies = 4
    delta = 0.001
    epsilon = 0.01

    def fixtures(self, answers):
        """The scenario's perturbed-equilibrium target that has a nearby
        equilibrium. Its `expect: none` targets each search for 10 to 40 s,
        longer than a pass, so they are not ops here."""
        text = self.read_game_file("cleo.game")
        game = dsl.parse_game(text)
        scenario = stability.parse_scenario(self.read_game_file("cleo_stability.scenario"))
        items = []
        for check in scenario["checks"]:
            if check["check"] != "perturbed-equilibrium" or check["expect"] != "found":
                continue
            tremble = stability._profile_from_doc(game, check["tremble"])
            for name in check["targets"]:
                target = stability._profile_from_doc(game, scenario["profiles"][name])
                label = "cleo %s" % name
                args = (
                    text,
                    {p: m.as_dict() for p, m in tremble.items()},
                    float(check["delta"]),
                    {p: m.as_dict() for p, m in target.items()},
                    float(check["epsilon"]),
                )
                items.append(Item(label, args, expected=answers.get(label, "found")))
        return items

    def make_item(self, pool_id):
        game = randgen.random_game(pool_id, max_strategies=self.max_strategies)
        base = solvers.rationalizability(game, explain=False, workers=WORKERS)
        rng = random.Random(pool_id)
        target = {
            p: {rng.choice(base.survivors.strategies(p)).name: 1.0}
            for p in game.players
        }
        uniform = {
            p: {s.name: 1.0 / len(game.strategies(p)) for s in game.strategies(p)}
            for p in game.players
        }
        args = (dsl.serialize_game(game), uniform, self.delta, target, self.epsilon)
        return Item("game %d" % pool_id, args, pool_id)

    def run(self, item):
        text, tremble, delta, target, epsilon = item.args
        game = dsl.parse_game(text)
        spec = stability.PerturbationSpec(
            {p: stability.MixedStrategy(game, p, w) for p, w in tremble.items()},
            delta,
            delta0=delta,
            epsilon=epsilon,
        )
        perturbed = stability.perturb_game(game, spec)
        profile = {p: stability.MixedStrategy(game, p, w) for p, w in target.items()}
        found = stability.find_equilibrium_near(perturbed, profile, epsilon)
        return perturbed, profile, found

    def digest(self, out):
        found = out[2]
        if found is None:
            return "none"
        return repr(sorted((p, sorted(m.as_dict().items())) for p, m in found.items()))

    def answer(self, out):
        return "none" if out[2] is None else "found"

    def invariant_error(self, item, out):
        perturbed, target, found = out
        if found is None:
            return None
        ok, regrets = stability.is_nash(perturbed, found)
        if not ok:
            return "found profile is not a Nash equilibrium (regrets %r)" % regrets
        epsilon = item.args[4]
        for p in perturbed.players:
            gap = max(abs(found[p].vector - target[p].vector))
            if gap > epsilon:
                return "found profile is %.3g from the target for %s" % (gap, p)
        return None


ORACLE_FIXTURES = (
    ("bribe rationalizability", "bribe.game", "rationalizability", None, "B/A/I"),
    ("bribe selective", "bribe.game", "selective", "bribe_report.beliefs", ""),
    ("bribe strong-delta", "bribe.game", "strong-delta", "bribe_report.beliefs", "N"),
)


class OracleReplay(Workload):
    """The CLI with the grid-search oracle replay, run in-process."""

    name = "oracle-replay"
    band = (0.0, 0.9)
    strata = 20
    passes = 6
    tail_percentile = 95
    max_strategies = 4
    denominator = 4

    def argv(self, game_path, procedure, restrictions_path=None):
        argv = ["--game", game_path, "--procedure", procedure]
        if restrictions_path is not None:
            argv += ["--restrictions", restrictions_path]
        return argv + ["--oracle-check", str(self.denominator), "--format", "structured"]

    def fixtures(self, answers):
        games = os.path.join(self.root, "games")
        return [
            Item(
                label,
                self.argv(
                    os.path.join(games, game),
                    procedure,
                    None if restrictions is None else os.path.join(games, restrictions),
                ),
                expected=answers.get(label),
            )
            for label, game, procedure, restrictions, _ in ORACLE_FIXTURES
        ]

    def make_item(self, pool_id):
        game = randgen.random_game(pool_id, max_strategies=self.max_strategies)
        path = os.path.join(self.workdir, "oracle-%d.game" % pool_id)
        with open(path, "w") as fh:
            fh.write(dsl.serialize_game(game))
        return Item("game %d" % pool_id, self.argv(path, "rationalizability"), pool_id)

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(item.args)
        return code, out.getvalue(), err.getvalue()

    def digest(self, out):
        return "%s\n%s" % (out[0], out[1])

    def answer(self, out):
        doc = json.loads(out[1])
        report = doc["oracle_check"]
        survivors = "|".join(
            "%s:%s" % (p, ",".join(doc["rounds"][-1][p])) for p in doc["players"]
        )
        return "%s;q=%d,w=%d,n=%d,g=%d" % (
            survivors,
            report["queries"],
            report["agree_witness"],
            report["agree_none"],
            report["grid_too_coarse"],
        )

    def invariant_error(self, item, out):
        code, stdout, stderr = out
        if code != 0:
            return "exit code %s: %s" % (code, stderr.strip())
        doc = json.loads(stdout)
        report = doc["oracle_check"]
        verdicts = report["agree_witness"] + report["agree_none"] + report["grid_too_coarse"]
        if report["queries"] < 1 or verdicts != report["queries"]:
            return "oracle report does not add up: %r" % report
        if item.pool_id is None:
            expected = {f[0]: f[4] for f in ORACLE_FIXTURES}[item.label]
            outcomes = ",".join(o["leaf"] for o in doc["outcomes"])
            if outcomes != expected:
                return "outcomes %r, expected %r" % (outcomes, expected)
        return None


WORKLOADS = {w.name: w for w in (RatLarge, RestrictedMixed, EquilibriumLab, OracleReplay)}
