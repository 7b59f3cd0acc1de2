"""fisolve benchmark: one workload, one seed, one timed run.

    python3 benchmark/run.py --workload rat-large --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` there, never from an installed copy. One client runs ops in a closed
loop, in this process, with one solver worker and BLAS pinned to one thread.
The run goes through whole passes of the seed's items (see workloads.py)
for about `--seconds`, so every stratum of op cost is sampled equally.

The first execution of each item is checked (hand-written fixture answers,
invariants, answers frozen in the pool files); later executions must repeat
its output exactly. Checks run outside the timed region.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` each op of the first passes runs once untraced and once under
the span recorder, and the last line reports the per-layer metrics (see
tracing.py), with spans written to `.bench_work/`. The earlier lines are for
people.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3
# What one CLI process imports before it can run an op.
IMPORTS = "import numpy, scipy\nfrom fisolve import beliefs, cli, dsl, randgen, solvers, stability"
TRACE_PASSES = 2
WORK_DIR = ".bench_work"


def bootstrap(root):
    """Pin threads, then import the checkout's fisolve. Exits when absent."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("FISOLVE_WORKERS", None)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fisolve", "__init__.py")):
        sys.exit("error: no fisolve sources under %s; run from a checkout root" % src)
    sys.path.insert(0, src)
    import fisolve

    if not os.path.abspath(fisolve.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit("error: fisolve was imported from %s, not %s" % (fisolve.__file__, src))


def import_seconds(root):
    """Median wall time of SETUP_REPEATS fresh interpreters importing the
    program, with the pinned environment; one import alone is too noisy."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Loop:
    """Closed-loop runner: whole passes until the deadline, first-run checks."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}  # item -> (digest, error) of its first execution
        self.attempted = 0
        self.failures = []

    def execute(self, item, run):
        """Time one op; returns its latency, or None when it failed."""
        self.attempted += 1
        # Start every op from a collected heap, as a fresh CLI process does,
        # so that no op pays for collecting an earlier op's garbage.
        gc.collect()
        start = time.perf_counter()
        try:
            out = run(item)
        except Exception as exc:  # a failed op is counted, the run goes on
            self.failures.append("%s: %s: %s" % (item.label, type(exc).__name__, exc))
            return None
        latency = time.perf_counter() - start
        digest = self.workload.digest(out)
        if item not in self.first:
            self.first[item] = (digest, self.workload.check(item, out))
        first_digest, error = self.first[item]
        if error is None and digest != first_digest:
            error = "output differs from its first execution"
        if error is not None:
            self.failures.append("%s: %s" % (item.label, error))
            return None
        return latency

    def passes(self, passes, seconds):
        """Whole passes, from the first again once all have run, for about
        `seconds`: another starts only while at least half of it, judged by
        the previous one, fits before the deadline."""
        deadline = time.perf_counter() + seconds
        count, last = 0, 0.0
        while count == 0 or time.perf_counter() + last / 2 < deadline:
            start = time.perf_counter()
            yield count, passes[count % len(passes)]
            last = time.perf_counter() - start
            count += 1


def end_to_end(loop, passes, seconds):
    latencies = []
    count = 0
    for count, items in loop.passes(passes, seconds):
        for item in items:
            latency = loop.execute(item, loop.workload.run)
            if latency is not None:
                latencies.append(latency)
    if not latencies:
        sys.exit("error: every op failed")
    pct = loop.workload.tail_percentile
    tail = _percentile(latencies, pct)
    beyond = sum(1 for x in latencies if x > tail)
    return {
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, "%d passes; op_tail_s is p%d over %d samples, %d beyond it" % (
        count + 1, pct, len(latencies), beyond)


def per_layer(loop, passes, seconds, spans_path):
    """Repeats the first TRACE_PASSES passes as one, so the counts per op
    depend on the seed alone, not on how many repeats fit in the run."""
    import tracing

    recorder = tracing.Recorder()

    def traced_run(item):
        with recorder:
            return loop.workload.run(item)

    untraced = traced = 0.0
    pairs = 0
    traced_items = [item for items in passes[:TRACE_PASSES] for item in items]
    for count, items in loop.passes([traced_items], seconds):
        for index, item in enumerate(items):
            # Alternate which run goes first: an item's first run is slower.
            recorder.begin_op()
            if (count + index) % 2:
                with_spans = loop.execute(item, traced_run)
                plain = loop.execute(item, loop.workload.run)
            else:
                plain = loop.execute(item, loop.workload.run)
                with_spans = loop.execute(item, traced_run)
            if plain is not None and with_spans is not None:
                untraced += plain
                traced += with_spans
                pairs += 1
    if not pairs:
        sys.exit("error: no op completed both untraced and traced")
    metrics = recorder.metrics(pairs)
    metrics["trace.overhead_s"] = ((traced - untraced) / pairs, "s")
    recorder.write(spans_path)
    return metrics, "%d ops traced, spans in %s" % (pairs, spans_path)


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    work = os.path.join(root, WORK_DIR)
    inputs = os.path.join(work, "inputs-%s-%d" % (args.workload, args.seed))
    os.makedirs(inputs, exist_ok=True)
    import numpy
    import scipy

    import_s = import_seconds(root)
    workload = WORKLOADS[args.workload](root, inputs)
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        passes = workload.build(args.seed)
        builds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    print(
        "env: nproc %d, python %s, numpy %s, scipy %s, OPENBLAS_NUM_THREADS=%s, workers=1"
        % (os.cpu_count(), platform.python_version(), numpy.__version__,
           scipy.__version__, os.environ["OPENBLAS_NUM_THREADS"])
    )
    print("workload %s, seed %d, %d passes of %d items, the first: %s" % (
        args.workload, args.seed, len(passes), len(passes[0]),
        ", ".join(i.label for i in passes[0])))

    loop = Loop(workload)
    if args.trace:
        spans = os.path.join(work, "spans-%s-%d.json" % (args.workload, args.seed))
        metrics, note = per_layer(loop, passes, args.seconds, spans)
    else:
        metrics, note = end_to_end(loop, passes, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        print("setup_s is median import %.4f s + median corpus build %.4f s, of %d each"
              % (import_s, statistics.median(builds), SETUP_REPEATS))
    shutil.rmtree(inputs, ignore_errors=True)

    failed = len(loop.failures)
    for line in loop.failures[:20]:
        print("FAIL %s" % line)
    print(note)
    for name, (value, unit) in sorted(metrics.items()):
        print("%-32s %14.6g %s" % (name, value, unit))
    print("%-32s %14.6g (%d/%d)" % ("fail_ratio", failed / loop.attempted, failed, loop.attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    bootstrap(os.getcwd())
    sys.exit(main())
