"""In-memory span recorder for the traced run, and the per-layer metrics.

The recorder replaces module attributes of fisolve with wrappers while it is
entered (`with recorder:`) and restores them on exit. It patches the
defining modules, not the names re-exported from `fisolve/__init__`,
because callers resolve these functions through module globals
(`beliefs.space_for`, `stability.least_squares` and so on). `lp.feasible`
calls `lp.solve`, so it is covered by the `lp.solve` span.

A span is [name, op, parent, start, end, info]: `op` numbers the traced op,
`parent` indexes the enclosing span (-1 at the top of an op), and `info`
holds what the metrics read from arguments and results. A span's self time
is its duration minus that of its direct children.
"""

import json
import time

from fisolve import beliefs, cli, dsl, lp, oracle, solvers, stability


def _lp_before(args, kwargs):
    args = list(args)
    if len(args) >= 3:
        args[2] = list(args[2])
        rows, cols = len(args[2]), args[0]
    else:
        kwargs["rows"] = list(kwargs["rows"])
        rows, cols = len(kwargs["rows"]), args[0] if args else kwargs["num_vars"]
    return args, kwargs, (rows, cols)


def _lp_after(pre, result):
    return [pre[0], pre[1], result.status == "optimal"]


def _space_before(args, kwargs):
    game, player = args
    return args, kwargs, player not in (getattr(game, "_belief_spaces", None) or {})


def _solve_after(pre, trace):
    decisions = sum(
        len(r.strategies(p)) for r in trace.rounds[:-1] for p in trace.game.players
    )
    return [len(trace.rounds) - 1, decisions]


def _found(pre, result):
    return result is not None


def _keep_pre(pre, result):
    return pre


# (module, attribute, span name, before hook, after hook)
TARGETS = (
    (lp, "solve", "lp.solve", _lp_before, _lp_after),
    (beliefs, "exists_admissible_cps", "beliefs.query", None, _found),
    (beliefs, "coupled_admissible_pair", "beliefs.coupled", None, _found),
    (beliefs, "space_for", "beliefs.space_for", _space_before, _keep_pre),
    (dsl, "parse_game", "dsl.parse", None, None),
    (dsl, "parse_restrictions", "dsl.parse", None, None),
    (dsl, "serialize_solution", "dsl.serialize", None, None),
    (solvers, "generalized_solve", "solvers.solve", None, _solve_after),
    (stability, "find_equilibrium_near", "stability.search", None, None),
    (stability, "perturb_game", "stability.perturb", None, None),
    (stability, "normal_form", "stability.normal_form", None, None),
    (stability, "least_squares", "stability.root_find", None, None),
    (oracle, "oracle_cps_search", "oracle.search", None, _found),
    (cli, "main", "cli.main", None, None),
)


class Recorder:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._originals = [(m, a, getattr(m, a)) for m, a, _, _, _ in TARGETS]
        self._wrappers = [
            self._wrap(getattr(m, a), name, before, after)
            for m, a, name, before, after in TARGETS
        ]

    def _wrap(self, fn, name, before, after):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            pre = None
            if before is not None:
                args, kwargs, pre = before(args, kwargs)
            span = [name, self.op, stack[-1] if stack else -1, clock(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if after is not None:
                span[5] = after(pre, result)
            return result

        return wrapper

    def begin_op(self):
        self.op += 1

    def __enter__(self):
        for (module, attr, _), wrapper in zip(self._originals, self._wrappers):
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in self._originals:
            setattr(module, attr, original)
        self._stack.clear()
        return False

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "op", "parent", "start", "end", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))

    def metrics(self, ops):
        """Per-layer metrics per traced op; ratios are 0 where the base is 0."""
        spans = self.spans
        child = [0.0] * len(spans)
        in_solve = [False] * len(spans)
        for i, (name, _, parent, start, end, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_solve[i] = in_solve[parent] or spans[parent][0] == "solvers.solve"

        calls, total, own = {}, {}, {}
        for i, (name, _, _, start, end, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child[i])

        def infos(name):
            return [s[5] for s in spans if s[0] == name and s[5] is not None]

        def ratio(a, b):
            return a / b if b else 0.0

        lp_info = infos("lp.solve")
        solve_info = infos("solvers.solve")
        queries = calls.get("beliefs.query", 0) + calls.get("beliefs.coupled", 0)
        decisions = sum(d for _, d in solve_info)
        solve_queries = sum(
            1 for i, s in enumerate(spans)
            if in_solve[i] and s[0] in ("beliefs.query", "beliefs.coupled")
        )
        per_op = {
            "lp.calls": (calls.get("lp.solve", 0), "count"),
            "lp.s": (total.get("lp.solve", 0.0), "s"),
            "beliefs.query_calls": (calls.get("beliefs.query", 0), "count"),
            "beliefs.query_s": (total.get("beliefs.query", 0.0), "s"),
            "beliefs.query_self_s": (own.get("beliefs.query", 0.0), "s"),
            "beliefs.coupled_calls": (calls.get("beliefs.coupled", 0), "count"),
            "beliefs.coupled_s": (total.get("beliefs.coupled", 0.0), "s"),
            "beliefs.space_s": (sum(
                s[4] - s[3] for s in spans if s[0] == "beliefs.space_for" and s[5]), "s"),
            "dsl.parse_s": (total.get("dsl.parse", 0.0), "s"),
            "dsl.serialize_s": (total.get("dsl.serialize", 0.0), "s"),
            "solvers.solve_s": (total.get("solvers.solve", 0.0), "s"),
            "solvers.self_s": (own.get("solvers.solve", 0.0), "s"),
            "solvers.rounds": (sum(r for r, _ in solve_info), "count"),
            "solvers.decisions": (decisions, "count"),
            "stability.search_calls": (calls.get("stability.search", 0), "count"),
            "stability.search_s": (total.get("stability.search", 0.0), "s"),
            "stability.root_finds": (calls.get("stability.root_find", 0), "count"),
            "stability.root_find_s": (total.get("stability.root_find", 0.0), "s"),
            "stability.perturb_s": (total.get("stability.perturb", 0.0), "s"),
            "stability.normal_form_s": (total.get("stability.normal_form", 0.0), "s"),
            "oracle.calls": (calls.get("oracle.search", 0), "count"),
            "oracle.s": (total.get("oracle.search", 0.0), "s"),
            "cli.self_s": (own.get("cli.main", 0.0), "s"),
        }
        out = {name: (value / ops, unit) for name, (value, unit) in per_op.items()}
        out.update({
            "lp.optimal_ratio": (ratio(sum(1 for i in lp_info if i[2]), len(lp_info)), "ratio"),
            "lp.rows_mean": (ratio(sum(i[0] for i in lp_info), len(lp_info)), "count"),
            "lp.cols_mean": (ratio(sum(i[1] for i in lp_info), len(lp_info)), "count"),
            "lp.calls_per_query": (ratio(calls.get("lp.solve", 0), queries), "ratio"),
            "beliefs.witness_ratio": (
                ratio(sum(infos("beliefs.query")), calls.get("beliefs.query", 0)), "ratio"),
            "solvers.queries_per_decision": (ratio(solve_queries, decisions), "ratio"),
            "oracle.witness_ratio": (
                ratio(sum(infos("oracle.search")), calls.get("oracle.search", 0)), "ratio"),
        })
        return out
