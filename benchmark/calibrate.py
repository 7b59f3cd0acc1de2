"""Measure a workload's pool and freeze its answers into pool/<workload>.json.

    python3 benchmark/calibrate.py --workload rat-large --ids 1000 --cap 4
    python3 benchmark/calibrate.py --workload rat-large --remeasure 2

Run from a checkout root. For each pool id below `--ids` this builds the
item, runs its op once under a wall-clock cap of `--cap` seconds, checks the
invariants, and records [id, cost in seconds or null when capped, answer].
Ids the generator cannot turn into a usable item are left out, and so are
ids whose op the engine rejects with UnsupportedBeliefStructure (listed
under "rejected"), since the benchmark's ops must not fail. The fixtures'
answers are recorded too. The costs rank the pool for stratified sampling:
measure on an otherwise idle machine. The answers must come from a commit
whose outputs are known to be right.

One timing on a shared machine can be off by a quarter or more, which mixes
neighbouring strata. `--remeasure N` times every entry of an existing pool N
more times, in separate passes over the whole pool so that slow drifts of
machine speed average out, checks that each answer is unchanged, and keeps
the median of all timings. Ops under 20 ms are timed five times per pass,
and the pass keeps their median.
"""

import argparse
import json
import os
import signal
import statistics
import sys
import tempfile
import time

import run


class Capped(Exception):
    pass


def _alarm(signum, frame):
    raise Capped()


def measure(workload, item, cap):
    """(seconds, output) of one op; seconds is None when the cap cut it off."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        out = workload.run(item)
    except Capped:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, out


def calibrate(workload, ids, cap):
    from fisolve.beliefs import UnsupportedBeliefStructure

    fixtures = {}
    for item in workload.fixtures({}):
        out = workload.run(item)
        error = workload.check(item, out)
        if error is not None:
            sys.exit("fixture %s: %s" % (item.label, error))
        fixtures[item.label] = workload.answer(out)
    entries, rejected = [], []
    for pool_id in range(ids):
        item = workload.make_item(pool_id)
        if item is None:
            continue
        try:
            cost, out = measure(workload, item, cap)
        except UnsupportedBeliefStructure:
            rejected.append(pool_id)
            continue
        if cost is None:
            entries.append([pool_id, None, None])
            continue
        error = workload.check(item, out)
        if error is not None:
            sys.exit("pool id %d: %s" % (pool_id, error))
        entries.append([pool_id, round(cost, 4), workload.answer(out)])
    return {"cap_s": cap, "ids": ids, "rejected": rejected, "fixtures": fixtures, "entries": entries}


def remeasure(workload, doc, passes):
    entries = [e for e in doc["entries"] if e[1] is not None]
    samples = {e[0]: [e[1]] for e in entries}
    for _ in range(passes):
        for entry in entries:
            item = workload.make_item(entry[0])
            timings = []
            for _ in range(5 if entry[1] < 0.02 else 1):
                cost, out = measure(workload, item, doc["cap_s"])
                if cost is not None and workload.answer(out) != entry[2]:
                    sys.exit("pool id %d: answer changed" % entry[0])
                timings.append(doc["cap_s"] if cost is None else cost)
            samples[entry[0]].append(statistics.median(timings))
    for entry in entries:
        entry[1] = round(statistics.median(samples[entry[0]]), 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ids", type=int, default=1000)
    parser.add_argument("--cap", type=float, default=4.0)
    parser.add_argument("--remeasure", type=int, default=0, metavar="PASSES",
                        help="time an existing pool's entries PASSES more times")
    args = parser.parse_args()
    run.bootstrap(os.getcwd())
    from workloads import HERE, WORKLOADS

    path = os.path.join(HERE, "pool", args.workload + ".json")
    signal.signal(signal.SIGALRM, _alarm)
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        workload = WORKLOADS[args.workload](os.getcwd(), workdir)
        if args.remeasure:
            doc = workload.pool()
            remeasure(workload, doc, args.remeasure)
        else:
            doc = calibrate(workload, args.ids, args.cap)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        write_pool(fh, doc)


def write_pool(fh, doc):
    """JSON with one pool entry per line, so that diffs stay readable."""
    head = json.dumps({k: v for k, v in doc.items() if k != "entries"}, indent=1)
    fh.write(head[:-2] + ',\n "entries": [\n')
    fh.write(",\n".join("  " + json.dumps(e) for e in doc["entries"]))
    fh.write("\n ]\n}\n")


if __name__ == "__main__":
    main()
