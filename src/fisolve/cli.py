"""Command line front end.

One game file per invocation, then exactly one of three modes:

  --procedure NAME            run one elimination procedure
  --compare A,B               run two procedures and diff them round by round
  --stability-scenario FILE   run equilibrium and perturbation checks

Procedures: rationalizability, strong-delta, selective, no-s3 (selective
without the gate: it starts at the base fixed point, which already keeps
every survivor in it), and generalized (the raw kernel: full start, optional
restrictions, no gate). --correlated applies to rationalizability and
generalized only; with any other procedure it is a usage error.

Exit codes: 0 solved or compared (an empty solution set is still a result),
1 a stability scenario has failing checks, 2 unreadable or unparseable
input, 3 the game or belief structure is rejected, 4 a procedure
precondition fails, 5 the independent grid search contradicts the engine.
"""

import argparse
import json
import sys

from . import beliefs, dsl, oracle, solvers
from .model import ModelError

PROCEDURES = (
    "rationalizability",
    "strong-delta",
    "selective",
    "no-s3",
    "generalized",
)

_NEED_RESTRICTIONS = ("strong-delta", "selective", "no-s3")

# Exit code per failure, as listed in the module docstring; the first row
# whose types match wins. `_run_stability` maps the lab's own errors.
_EXIT_CODES = (
    ((dsl.DslError, OSError, json.JSONDecodeError), 2),
    ((ModelError, beliefs.BeliefError), 3),
    ((solvers.PreconditionViolated,), 4),
    ((oracle.OracleSoundnessFailure,), 5),
)
_FAILURES = tuple(t for types, _ in _EXIT_CODES for t in types)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="fisolve",
        description="Iterated elimination procedures on dynamic games "
        "under first-order belief restrictions.",
    )
    p.add_argument("--game", required=True, metavar="FILE", help="game tree file")
    p.add_argument(
        "--restrictions", metavar="FILE", help="belief restriction file"
    )
    p.add_argument(
        "--procedure", choices=PROCEDURES, help="elimination procedure to run"
    )
    p.add_argument(
        "--compare",
        metavar="A,B",
        help="two procedure names; solve both and report differences",
    )
    p.add_argument(
        "--stability-scenario",
        metavar="FILE",
        help="JSON scenario of equilibrium and perturbation checks",
    )
    p.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        help="human text or deterministic JSON",
    )
    p.add_argument(
        "--oracle-check",
        type=int,
        metavar="D",
        help="with --procedure: replay every round's queries with the "
        "independent grid search up to denominator D >= 1 and report concordance",
    )
    p.add_argument(
        "--correlated",
        action="store_true",
        help="one joint obligation per round instead of one per opponent",
    )
    p.add_argument(
        "--no-explain",
        action="store_true",
        help="skip per-strategy elimination diagnoses",
    )
    return p


def _read(path):
    with open(path, "r") as fh:
        return fh.read()


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    modes = [
        args.procedure is not None,
        args.compare is not None,
        args.stability_scenario is not None,
    ]
    if sum(modes) != 1:
        parser.error(
            "choose exactly one of --procedure, --compare, --stability-scenario"
        )
    if args.procedure in _NEED_RESTRICTIONS and not args.restrictions:
        parser.error("--procedure %s needs --restrictions" % args.procedure)
    if args.procedure in _NEED_RESTRICTIONS and args.correlated:
        parser.error("--correlated does not apply to --procedure %s" % args.procedure)
    compare_names = None
    if args.compare is not None:
        compare_names = tuple(t.strip() for t in args.compare.split(","))
        if len(compare_names) != 2 or any(
            n not in PROCEDURES for n in compare_names
        ):
            parser.error(
                "--compare wants two names from: %s" % ", ".join(PROCEDURES)
            )
        needy = [n for n in compare_names if n in _NEED_RESTRICTIONS]
        if needy and not args.restrictions:
            parser.error("--compare with %s needs --restrictions" % needy[0])
        if needy and args.correlated:
            parser.error("--correlated does not apply to %s" % needy[0])
    if args.oracle_check is not None and args.procedure is None:
        parser.error("--oracle-check needs --procedure")
    if args.oracle_check is not None and args.oracle_check < 1:
        parser.error("--oracle-check needs a denominator of at least 1")

    try:
        return _dispatch(args, compare_names)
    except _FAILURES as exc:
        print("error: %s" % exc, file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def _dispatch(args, compare_names):
    game = dsl.parse_game(_read(args.game))
    if args.stability_scenario is not None:
        return _run_stability(args, game)
    delta = None
    if args.restrictions:
        delta = dsl.parse_restrictions(_read(args.restrictions), game)
    if compare_names is not None:
        return _run_compare(args, game, delta, compare_names)
    return _run_procedure(args, game, delta)


def _solve(name, game, delta, args):
    explain = not args.no_explain
    if name == "rationalizability":
        return solvers.rationalizability(
            game, correlated=args.correlated, explain=explain
        )
    if name == "strong-delta":
        return solvers.strong_delta_rationalizability(game, delta, explain=explain)
    if name == "selective":
        return solvers.selective_rationalizability(game, delta, explain=explain)
    if name == "no-s3":
        return solvers.solve_without_s3(game, delta, explain=explain)
    spec = solvers.ProcedureSpec(
        game,
        "generalized",
        restrictions=delta,
        correlated=args.correlated,
        explain=explain,
    )
    return solvers.generalized_solve(spec)


def _set_line(game, pset):
    parts = []
    for p in game.players:
        names = ", ".join(s.name for s in pset.strategies(p))
        parts.append("%s {%s}" % (p, names))
    return " | ".join(parts)


def _first_empty_round(trace):
    for n, pset in enumerate(trace.rounds):
        if pset.is_empty():
            return n
    return None


def _render_trace(trace):
    game = trace.game
    out = ["procedure %s on game %s" % (trace.procedure, game.name)]
    for note in trace.notes:
        out.append("note: %s" % note)
    for n, pset in enumerate(trace.rounds):
        out.append("round %d: %s" % (n, _set_line(game, pset)))
        for (player, sname), reason in sorted(trace.eliminated.get(n, {}).items()):
            out.append("  - eliminated %s %s: %s" % (player, sname, reason))
    out.append("fixed point at round %d" % trace.fixed_point_round)
    if trace.survivors.is_empty():
        out.append("solution set empty after round %d" % _first_empty_round(trace))
    else:
        out.append("outcomes:")
        for leaf in trace.outcomes:
            pay = ", ".join(
                "%s=%s" % (p, dsl._fmt_rational(v))
                for p, v in zip(game.players, leaf.payoffs)
            )
            out.append("  %s (%s)" % (leaf.name, pay))
    return "\n".join(out)


def _run_procedure(args, game, delta):
    trace = _solve(args.procedure, game, delta, args)
    report = None
    if args.oracle_check is not None:
        report = _oracle_replay(trace, args.oracle_check)
    if args.format == "structured":
        doc = dsl._solution_doc(trace)
        if report is not None:
            doc["oracle_check"] = report
        print(dsl.to_json(doc))
        return 0
    print(_render_trace(trace))
    if report is not None:
        print(
            "oracle check (denominator %d): %d queries, %d witness "
            "agreements, %d none agreements, %d below grid resolution"
            % (
                report["denominator"],
                report["queries"],
                report["agree_witness"],
                report["agree_none"],
                report["grid_too_coarse"],
            )
        )
        for line in report["advisories"]:
            print("  advisory: %s" % line)
    return 0


def _oracle_replay(trace, denominator):
    """Re-ask every round's keep/eliminate queries with the grid search,
    with exactly the obligations and restrictions the solve recorded.

    Raises when the grid finds a belief system the engine missed. An engine
    witness below the grid resolution is only an advisory.
    """
    game = trace.game
    report = {
        "denominator": denominator,
        "queries": 0,
        "agree_witness": 0,
        "agree_none": 0,
        "grid_too_coarse": 0,
        "advisories": [],
    }
    for n in range(1, len(trace.rounds)):
        for player in game.players:
            for s in trace.rounds[n - 1].strategies(player):
                verdict = oracle.concordance_verdict(
                    game,
                    player,
                    s,
                    trace.mandates[n][player],
                    restrictions=trace.restrictions,
                    denominator=denominator,
                )
                report["queries"] += 1
                if verdict == "agree-witness":
                    report["agree_witness"] += 1
                elif verdict == "agree-none":
                    report["agree_none"] += 1
                else:
                    report["grid_too_coarse"] += 1
                    report["advisories"].append(
                        "round %d, %s %s: engine witness below grid "
                        "resolution 1/%d" % (n, player, s.name, denominator)
                    )
    return report


_OUTCOME_RELATIONS = {
    "equal": "identical outcome sets",
    "left-subset": "every outcome of the first appears under the second",
    "right-subset": "every outcome of the second appears under the first",
    "overlap": "outcome sets overlap without containment",
    "disjoint": "outcome sets are disjoint",
}


def _outcome_relation(a, b):
    oa = set(leaf.name for leaf in a.outcomes)
    ob = set(leaf.name for leaf in b.outcomes)
    if oa == ob:
        return "equal"
    # An empty prediction set shares nothing with a nonempty one; reporting
    # the vacuous inclusion would bury the disagreement.
    if not (oa & ob):
        return "disjoint"
    if oa <= ob:
        return "left-subset"
    if ob <= oa:
        return "right-subset"
    return "overlap"


def _run_compare(args, game, delta, names):
    traces = [_solve(name, game, delta, args) for name in names]
    a, b = traces
    length = max(len(a.rounds), len(b.rounds))
    diffs = []
    for k in range(length):
        ra = a.rounds[min(k, len(a.rounds) - 1)]
        rb = b.rounds[min(k, len(b.rounds) - 1)]
        if ra != rb:
            diffs.append(k)
    relation = _outcome_relation(a, b)

    if args.format == "structured":
        doc = {
            "schema": "fisolve.compare/1",
            "game": game.name,
            "runs": [
                {
                    "procedure": name,
                    "rounds": dsl._round_sets(game, tr.rounds),
                    "fixed_point_round": tr.fixed_point_round,
                    "empty": tr.survivors.is_empty(),
                    "outcomes": [leaf.name for leaf in tr.outcomes],
                }
                for name, tr in zip(names, traces)
            ],
            "identical_rounds": not diffs,
            "differing_rounds": diffs,
            "outcome_relation": relation,
        }
        print(dsl.to_json(doc))
        return 0

    print("comparing %s vs %s on game %s" % (names[0], names[1], game.name))
    if not diffs:
        print("identical at every round")
    else:
        for k in diffs:
            ra = a.rounds[min(k, len(a.rounds) - 1)]
            rb = b.rounds[min(k, len(b.rounds) - 1)]
            print("round %d differs:" % k)
            print("  %s: %s" % (names[0], _set_line(game, ra)))
            print("  %s: %s" % (names[1], _set_line(game, rb)))
    for name, tr in zip(names, traces):
        if tr.survivors.is_empty():
            print(
                "%s: solution set empty after round %d"
                % (name, _first_empty_round(tr))
            )
    print(_OUTCOME_RELATIONS[relation])
    return 0


def _run_stability(args, game):
    from . import stability  # the lab, and numpy with it, loads here only

    try:
        doc = stability.parse_scenario(_read(args.stability_scenario))
        rows = stability.run_scenario(game, doc)
    except stability.StabilityError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    ok = all(passed for _, passed, _ in rows)
    if args.format == "structured":
        out = {
            "schema": "fisolve.stability/1",
            "game": game.name,
            "checks": [
                {"description": d, "passed": p, "detail": t}
                for d, p, t in rows
            ],
            "all_passed": ok,
        }
        print(dsl.to_json(out))
    else:
        for d, p, t in rows:
            print("%s  %s  (%s)" % ("PASS" if p else "FAIL", d, t))
        print(
            "%d/%d checks passed" % (sum(1 for _, p, _ in rows if p), len(rows))
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
