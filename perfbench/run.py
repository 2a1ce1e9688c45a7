"""Benchmark for wknots.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: quotients, invariants, closures, suites (see perfbench/README.md).
The load is a closed loop in one process: one operation at a time, each
starting when the previous one returned; suites start one CLI process at a
time.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from host import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7


def pin_to_one_cpu():
    """Keep this process and the processes it starts on one CPU, so that the
    host probe runs on the CPU whose speed it is meant to measure."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_seconds():
    """Wall time of importing the whole package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wknots.cli"], env=env,
                   check=True)
    return start, time.perf_counter() - start


def timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return start, time.perf_counter() - start


class Run:
    """Operations, failures and timings of one benchmark run."""

    def __init__(self, workload, clock):
        self.wl = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None       # outputs of the first pass
        self.digests = None
        self.ops = []           # (pass index, start, wall seconds)

    def problem(self, text):
        self.problems.append(text)
        print("problem: %s" % text, file=sys.stderr)

    def one_pass(self, index):
        wl = self.wl
        outputs = []
        for item in wl.items:
            self.clock.tick_if_due()
            start = time.perf_counter()
            try:
                out, status = wl.op(item, index)
            except Exception as e:  # recorded as a failed operation
                self.ops.append((index, start, time.perf_counter() - start))
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                self.problem("%s: %s" % (type(e).__name__, e))
                out = None
            else:
                self.ops.append((index, start, time.perf_counter() - start))
                if status != "ok":
                    self.failed += 1
            self.attempted += 1
            outputs.append(out)
        digests = [None if o is None else wl.digest(o) for o in outputs]
        if self.first is None:
            self.first, self.digests = outputs, digests
        elif digests != self.digests:
            self.problem("outputs changed between passes")

    def measure(self, seconds, min_passes):
        """Whole passes for at least `seconds` and `min_passes`; returns the
        indices of the passes made."""
        first = self.ops[-1][0] + 1 if self.ops else 0
        index = first
        start = time.perf_counter()
        while (index - first < min_passes
               or time.perf_counter() - start < seconds):
            self.one_pass(index)
            index += 1
        self.clock.tick()
        return range(first, index)

    def item_seconds(self):
        """Scaled seconds of every operation."""
        return [self.clock.scaled(start, wall) for _, start, wall in self.ops]

    def pass_seconds(self, indices):
        """Scaled seconds of each pass: the sum over its operations, which
        leaves out the probes run between them."""
        totals = dict.fromkeys(indices, 0.0)
        for index, start, wall in self.ops:
            if index in totals:
                totals[index] += self.clock.scaled(start, wall)
        return list(totals.values())

    def verify(self):
        if self.first is not None and None not in self.first:
            for p in self.wl.verify(self.first):
                self.problem(p)


def measure_setup(cls, seed, clock):
    """Median import and input-generation time plus one cache warm-up."""
    imports, prepares = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        clock.tick()
    for _ in range(SETUP_REPEATS):
        wl = cls(seed)
        prepares.append(timed(wl.prepare))
        clock.tick()
    warm = timed(wl.warm)
    clock.tick()
    return wl, (statistics.median(clock.scaled(*t) for t in imports)
                + statistics.median(clock.scaled(*t) for t in prepares)
                + clock.scaled(*warm))


def end_to_end(cls, args):
    clock = HostClock()
    wl, setup_s = measure_setup(cls, args.seed, clock)
    run = Run(wl, clock)
    passes = run.measure(args.seconds, wl.min_passes)
    run.verify()
    who = (resource.RUSAGE_CHILDREN if wl.name == "suites"
           else resource.RUSAGE_SELF)
    items = run.item_seconds()
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(run.pass_seconds(passes)),
        "item_ms_p50": 1000 * statistics.median(items),
        "item_ms_p90": 1000 * statistics.quantiles(items, n=10)[8],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return run, values


def per_layer(cls, args, names):
    from trace import Tracer
    clock = HostClock()
    tracer = Tracer()
    tracer.install()
    wl = cls(args.seed)
    wl.tracer = tracer
    try:
        wl.prepare()
        wl.warm()
        setup_sums, setup_max = tracer.collect()
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "trace-%s-%d.json" % (wl.name, args.seed))
        with open(path, "w") as fh:
            fh.write('{"setup": ')
            json.dump(tracer.dump(), fh)
            tracer.reset()
            run = Run(wl, clock)
            traced = run.measure(args.seconds / 2, 1)
            pass_sums, pass_max = tracer.collect()
            fh.write(', "passes": ')
            json.dump(tracer.dump(), fh)
            fh.write("}")
    finally:
        tracer.uninstall()
        wl.tracer = None
    # the untraced passes should not carry the spans in their heap
    tracer.reset()
    gc.collect()
    untraced = run.measure(args.seconds / 2, 1)
    run.verify()
    values = {}
    for name in names:
        if name in setup_max or name in pass_max:
            values[name] = max(setup_max.get(name, 0), pass_max.get(name, 0))
        else:
            values[name] = (setup_sums.get(name, 0)
                            + pass_sums.get(name, 0) / len(traced))
    values["machine.ref_s"] = statistics.median(clock.probes)
    values["trace.overhead_s"] = (
        statistics.median(run.pass_seconds(traced))
        - statistics.median(run.pass_seconds(untraced)))
    return run, values


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wknots", "__init__.py")):
        print("error: no wknots sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    from wknots.rational import BACKEND
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    print("wknots benchmark: workload=%s seed=%d seconds=%g trace=%d "
          "backend=%s" % (args.workload, args.seed, args.seconds, args.trace,
                          BACKEND), file=sys.stderr)

    pin_to_one_cpu()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    cls = WORKLOADS[args.workload]
    if args.trace:
        run, values = per_layer(cls, args, [m["name"] for m in metrics])
    else:
        run, values = end_to_end(cls, args)
    clock = run.clock
    print("passes %d, operations %d, host probe s min/median/max "
          "%.4f/%.4f/%.4f" % (len(set(op[0] for op in run.ops)), len(run.ops),
                              min(clock.probes),
                              statistics.median(clock.probes),
                              max(clock.probes)), file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
