"""conformal-hodge benchmark: closed-loop CLI ops, one workload per invocation.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload geodesic --seed 1 --seconds 35 --trace 0
  python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it
records provenance and sample counts.  ``--smoke`` runs every workload
for one traced op and checks that each layer span the workload should
exercise is hit and each span it should leave idle is not.

Every measurement runs in a fresh worker process (``worker.py``) with
BLAS and OpenMP limited to one thread, so that peak RSS belongs to one
workload.  See README.md for the workloads, metrics and layer table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROCESSES = 3      # set-up-only workers, besides the measuring one
# Time of worker.reference_s() on an uncontended core of the measurement
# machine (Intel Xeon, 2 vCPUs, Python 3.11).  Op times are scaled by
# REF_NOMINAL_S / (reference time measured around the op); see README.md.
REF_NOMINAL_S = 0.003
# 110 timed ops leave at least 10 beyond p90.
MIN_TIMED_OPS = 110
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150
HIT_RATIO_SPANS = ("mapping.ConformalMap.compose_with", "mapping.ConformalMap.gram")
WORK_COUNTS = ("series.convolve.pair_products", "series.HolomorphicSeries.__mul__.pair_products",
               "series.evaluate_grid.point_terms")


class BenchError(RuntimeError):
    pass


def worker(*args, timeout):
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout} s: {' '.join(cmd)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_ops(workload, seconds):
    """Traced ops: about seconds / 2 of work at the nominal op cost."""
    return max(1, int(seconds / 2 / WORKLOADS[workload].nominal_op_s))


def metric(value, unit):
    return {"value": value, "unit": unit}


def speed_factors(refs):
    """Scale factor per interval between consecutive reference timings."""
    return [REF_NOMINAL_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]


def scaled(times, refs):
    return [t * f for t, f in zip(times, speed_factors(refs))]


def latency_metrics(lat):
    return {
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": metric(1000 * (statistics.quantiles(lat, n=10)[-1]
                                         if len(lat) > 1 else lat[0]), "ms"),
    }


def end_to_end(args):
    common = ("--workload", args.workload, "--seed", args.seed)
    worker(*common, "--mode", "setup", timeout=SETUP_TIMEOUT_S)  # fills bytecode caches
    runs = [worker(*common, "--mode", "setup", timeout=SETUP_TIMEOUT_S)
            for _ in range(SETUP_PROCESSES)]
    main = worker(*common, "--mode", "measure", "--seconds", args.seconds,
                  "--min-ops", MIN_TIMED_OPS, timeout=MEASURE_TIMEOUT_S)
    runs.append(main)
    raw = main["latencies_s"]
    lat = scaled(raw, main["refs_s"])
    metrics = latency_metrics(lat)
    metrics["setup_s"] = metric(statistics.median(
        r["setup_s"] * speed_factors(r["setup_refs_s"])[0] for r in runs), "s")
    metrics["peak_rss_mb"] = metric(main["peak_rss_mb"], "MB")
    p90 = metrics["latency_p90_ms"]["value"] / 1000
    unscaled = {k: v["value"] for k, v in latency_metrics(raw).items()}
    unscaled["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    samples = {"ops": len(lat), "beyond_p90": sum(1 for x in lat if x > p90),
               "setup_processes": len(runs), "map_seen_share": main["map_seen_share"],
               "reference_median_ms": 1000 * statistics.median(main["refs_s"]),
               "unscaled": unscaled}
    return runs, main, metrics, samples


def per_layer(args, n_ops=None):
    n_ops = n_ops or trace_ops(args.workload, args.seconds)
    trace_out = ROOT / ".bench_build" / f"trace-{args.workload}-seed{args.seed}.json"
    main = worker("--workload", args.workload, "--seed", args.seed, "--mode", "trace",
                  "--seconds", args.seconds, "--trace-ops", n_ops, "--trace-out", trace_out,
                  timeout=MEASURE_TIMEOUT_S)
    factors = speed_factors(main["traced_refs_s"])
    spans = {}
    for op, f in zip(main["spans_per_op"], factors):
        for name, (calls, self_s) in op.items():
            total = spans.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += self_s * f
    metrics = {}
    for name, (calls, self_s) in spans.items():
        metrics[f"{name}.self_ms_per_op"] = metric(1000 * self_s / n_ops, "ms")
        metrics[f"{name}.calls_per_op"] = metric(calls / n_ops, "count")
    for name in WORK_COUNTS:
        metrics[f"{name}_per_op"] = metric(main["counts"].get(name, 0) / n_ops, "count")
    for name in HIT_RATIO_SPANS:
        calls = spans[name][0]
        metrics[f"{name}.hit_ratio"] = metric(main["hits"].get(name, 0) / calls if calls else 0.0,
                                              "ratio")
    untraced = scaled(main["latencies_s"], main["refs_s"])
    traced = scaled(main["traced_latencies_s"], main["traced_refs_s"])
    metrics["trace.overhead_ratio"] = metric(
        (len(traced) / sum(traced)) / (len(untraced) / sum(untraced)), "ratio")
    metrics["trace.unattributed_share"] = metric(spans["cli.main"][1] / sum(traced), "ratio")
    metrics["workload.map_seen_share"] = metric(main["map_seen_share"], "ratio")
    metrics["failed_ratio"] = metric(main["failed"] / main["attempted"], "ratio")
    samples = {"untraced_ops": len(untraced), "traced_ops": n_ops,
               "reference_median_ms": 1000 * statistics.median(main["traced_refs_s"]),
               "trace_file": str(trace_out.relative_to(ROOT))}
    return [main], main, metrics, samples


def git_sha():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, main):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": main["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": 1,
    }


def smoke(args):
    """One traced op per workload; asserts the span table against each workload."""
    declared = None
    if (ROOT / "BENCHMARK.json").is_file():
        declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    ok = True
    for name, wl in WORKLOADS.items():
        args.workload, args.seconds = name, 0
        _, main, metrics, _ = per_layer(args, n_ops=1)
        calls = {k[: -len(".calls_per_op")]: v["value"] for k, v in metrics.items()
                 if k.endswith(".calls_per_op")}
        problems = list(main["failures"])
        problems += [f"{span} not called" for span in wl.expect_hit if not calls.get(span)]
        problems += [f"{span} called {n:g} times" for span, n in calls.items()
                     if n and span.startswith(wl.expect_idle)]
        if declared is not None and declared != set(metrics):
            problems.append(f"metrics differ from BENCHMARK.json: "
                            f"{sorted(declared.symmetric_difference(metrics))}")
        ok = ok and not problems
        print(f"{name}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="check the span table and exit")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "conformal_hodge" / "cli.py").is_file():
        print(f"error: no conformal_hodge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        p.error("--workload is required")
    try:
        if args.smoke:
            return smoke(args)
        runs, main_run, metrics, samples = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"provenance": provenance(args, main_run), "samples": samples,
                      "failures": failures}))
    print(json.dumps({"correct": failed == 0 and finite, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
