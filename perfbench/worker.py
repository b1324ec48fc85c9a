"""One benchmark process: set-up, then a closed loop of ops on one workload.

Started by ``run.py``; prints one JSON object as its last line of output.

Modes:
  setup    import conformal_hodge and run the cold op, then exit
  measure  set-up, warm-up ops, then untraced ops for --seconds
           (longer if needed to reach --min-ops, up to 1.5 x --seconds)
  trace    set-up, warm-up ops, untraced ops for --seconds / 2, then
           --trace-ops traced ops, whose inputs depend only on the seed

The op timer covers only the ``cli.main`` calls: inputs are written
before it starts and outputs are checked after it stops.  A fixed
reference kernel is timed before the first op and after every op (and
around set-up), so that ``run.py`` can scale each op time to a nominal
machine speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, make_op  # noqa: E402

WARMUP_OPS = 2
MAX_REPORTED_FAILURES = 5


def reference_s():
    """Time a fixed pure-Python kernel: dict and complex arithmetic, like the series code."""
    t0 = perf_counter()
    acc = {}
    for i in range(100):
        for j in range(60):
            key = (i + j, i - j)
            acc[key] = acc.get(key, 0j) + complex(i, j) * 1.0001
    return perf_counter() - t0


class Runner:
    """Runs ops through the CLI and keeps the failure count."""

    def __init__(self, workload, seed, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.cli = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.map_keys = []

    def prepare(self, index):
        op = make_op(self.workload, self.seed, index, self.work)
        for path in op.outputs:
            path.unlink(missing_ok=True)
        return op

    def execute(self, op):
        """Run the op's CLI calls; returns (seconds, problems)."""
        problems = []
        t0 = perf_counter()
        try:
            for argv in op.argvs:
                code = self.cli.main(argv)
                if code != 0:
                    problems.append(f"{argv[0]} exited {code}")
                    break
        except Exception:  # an op that raises is a failed op, not a crashed run
            problems.append(traceback.format_exc(limit=3))
        return perf_counter() - t0, problems

    def verify(self, index, op, problems):
        if not problems:
            try:
                problems = op.check()
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        self.attempted += 1
        self.map_keys.append(op.map_key)
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"op {index}: {'; '.join(problems)}")

    def run(self, index, wrap=None):
        op = self.prepare(index)
        if wrap is None:
            seconds, problems = self.execute(op)
        else:
            seconds, problems = wrap(lambda: self.execute(op))
        self.verify(index, op, problems)
        return seconds

    def loop(self, seconds, min_ops=1):
        """Untraced closed loop for `seconds` of wall clock, extended until
        `min_ops` ops have run but never past 1.5 x `seconds` (at least one op).

        Returns the op times and the reference timings around them.
        """
        latencies, refs = [], [reference_s()]
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if latencies and (elapsed >= 1.5 * seconds
                              or (elapsed >= seconds and len(latencies) >= min_ops)):
                return latencies, refs
            latencies.append(self.run(len(latencies)))
            refs.append(reference_s())


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--min-ops", type=int, default=1)
    p.add_argument("--trace-ops", type=int, default=1)
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_build"))
    try:
        out = run(args, Runner(args.workload, args.seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


def run(args, runner: Runner):
    cold = runner.prepare("cold")
    ref_before = reference_s()
    t0 = perf_counter()
    from conformal_hodge import cli

    runner.cli = cli
    _, problems = runner.execute(cold)
    setup_s = perf_counter() - t0
    setup_refs = [ref_before, reference_s()]
    runner.verify("cold", cold, problems)

    import numpy

    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"conformal_hodge imported from {source}, not from this checkout")
    out = {"setup_s": setup_s, "setup_refs_s": setup_refs, "numpy": numpy.__version__}
    if args.mode != "setup":
        for i in range(WARMUP_OPS):
            runner.run(f"warmup{i}")
        seconds = args.seconds / 2 if args.mode == "trace" else args.seconds
        first = runner.attempted
        out["latencies_s"], out["refs_s"] = runner.loop(seconds, args.min_ops)
        out["map_seen_share"] = _seen_share(runner.map_keys, first, runner.attempted)
    if args.mode == "trace":
        out.update(traced(args, runner))
    out.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


def _seen_share(keys, first, stop):
    """Share of ops first..stop-1 whose map an earlier op of this process used."""
    repeats = sum(1 for i in range(first, stop)
                  if keys[i] is not None and keys[i] in keys[:i])
    return repeats / (stop - first)


def traced(args, runner: Runner):
    """Run ops trace0 .. trace<N-1> with every layer span recorded."""
    from tracer import Tracer

    tracer = Tracer()
    latencies, refs = [], [reference_s()]
    with tracer.installed():
        for i in range(args.trace_ops):
            latencies.append(runner.run(f"trace{i}", wrap=tracer.op))
            refs.append(reference_s())
    if args.trace_out:
        tracer.dump(args.trace_out)
    return {
        "traced_latencies_s": latencies,
        "traced_refs_s": refs,
        "spans_per_op": tracer.span_totals_per_op(),
        "counts": dict(tracer.counts),
        "hits": dict(tracer.hits),
    }


if __name__ == "__main__":
    sys.exit(main())
