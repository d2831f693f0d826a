"""polarlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own process
(worker.py) against the checkout's `src`, as a closed loop with one client,
with BLAS limited to one thread.  Every op's result is checked against a
reference.  The last line of standard output is one JSON object:

  --trace 0  the end-to-end metrics (set-up is sampled in several processes
             and reported as the median)
  --trace 1  the per-layer metrics: the ops of an untraced run of S/2
             seconds are replayed with the span tracer installed, the two
             runs' results must agree bit for bit, and the difference of
             their walls is the tracing overhead

Earlier lines give a stamp (git sha, source digest, seed, nproc, library
versions, BLAS threads) and a readable summary.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER_TIMEOUT_S = 170.0
SETUP_SAMPLES = 3
BLAS_THREADS = 1

sys.path.insert(0, BENCH_DIR)
import layers  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "POLARLAB_SEED")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), BENCH_DIR])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(deadline: float, workload: str, seed: int, mode: str, tag: str,
               seconds: float = 0.0, ops: int = 0, trace: int = 0,
               min_ops: Optional[int] = None) -> dict:
    out = os.path.join(OUT_DIR, f"{workload}-{seed}-{tag}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", repr(seconds), "--ops", str(ops), "--trace", str(trace),
           "--root", ROOT, "--out", out]
    if min_ops is not None:
        cmd += ["--min-ops", str(min_ops)]
    proc = subprocess.Popen(cmd + ["--spawned", repr(time.time())], env=_env(),
                            cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any verify child
        proc.communicate()
        raise BenchError(f"{workload} worker ({mode}) passed the time limit")
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n"
                         f"{stdout[-2000:]}{stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(records: list, q: float) -> float:
    """Nearest-rank percentile of op latency; a failed op ranks slower than
    every success, and a percentile landing on one reads as the slowest
    latency of the run."""
    lat = sorted(r["latency"] if r["ok"] else math.inf for r in records)
    v = lat[max(0, math.ceil(q * len(lat)) - 1)]
    return v if math.isfinite(v) else max(r["latency"] for r in records)


def _unexpected(records: list) -> list:
    return [r["failure"] for r in records
            if not r["ok"] and r["failure"] not in KNOWN_DEFECTS]


def _failure_counts(records: list) -> dict:
    counts: dict = {}
    for r in records:
        if not r["ok"]:
            counts[r["failure"]] = counts.get(r["failure"], 0) + 1
    return counts


def _diff_lines(a: str, b: str) -> int:
    """Lines that differ between two report files."""
    with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
        la, lb = fa.read().splitlines(), fb.read().splitlines()
    return sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "polarlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def untraced(deadline, workload, seed, seconds):
    main = run_worker(deadline, workload, seed, "timed", "timed", seconds=seconds)
    setups = [main["setup_s"]] + [
        run_worker(deadline, workload, seed, "setup", f"setup{k}")["setup_s"]
        for k in range(1, SETUP_SAMPLES)]
    recs = main["records"]
    passed = sum(r["ok"] for r in recs)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": passed / main["wall_s"],
        "op_p50_s": percentile(recs, 0.5),
        "op_p90_s": percentile(recs, 0.9),
        "pass_ratio": passed / len(recs),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    info = {"setup_samples_s": setups, "fail_ratio": 1.0 - passed / len(recs)}
    return main, metrics, info, []


def traced(deadline, workload, seed, seconds):
    # no percentiles come from this pair of runs, so whole cycles suffice
    base = run_worker(deadline, workload, seed, "timed", "untraced",
                      seconds=max(1.0, seconds / 2.0), min_ops=1)
    main = run_worker(deadline, workload, seed, "replay", "traced",
                      ops=len(base["records"]), trace=1)
    problems = []
    if [r["result"] for r in base["records"]] != [r["result"] for r in main["records"]]:
        problems.append("traced and untraced op results differ")
    if base["inputs_sha256"] != main["inputs_sha256"]:
        problems.append("traced and untraced runs generated different inputs")
    problems += _unexpected(base["records"])
    metrics = dict(main["layers"])
    metrics["trace.overhead_s"] = main["wall_s"] - base["wall_s"]
    # the same verify op run untraced and traced: the most report lines that differ
    metrics["cli.verify.report_diff_lines"] = max(
        (_diff_lines(a["extra"]["report"], b["extra"]["report"])
         for a, b in zip(base["records"], main["records"])
         if os.path.exists((a["extra"] or {}).get("report") or "")
         and os.path.exists(b["extra"]["report"])), default=0)
    pool = main.get("pool_size") or 0
    n = len(main["records"])
    metrics["workload.spec_repeat_share"] = max(0.0, 1.0 - pool / n) if pool else 0.0
    info = {"untraced_wall_s": base["wall_s"], "traced_wall_s": main["wall_s"]}
    return main, metrics, info, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.time() + WORKER_TIMEOUT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "polarlab", "__init__.py")):
        print(f"no polarlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        run = traced if args.trace else untraced
        res, metrics, info, problems = run(deadline, args.workload, args.seed,
                                           args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    recs = res["records"]
    problems += _unexpected(recs)
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        **res["versions"], "inputs_sha256": res["inputs_sha256"],
        "ops": len(recs), "cycle": res["cycle"], "wall_s": res["wall_s"],
        "failures": _failure_counts(recs), **info,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_ratio':48s} {info['fail_ratio']:.6g} ratio "
              f"({len(recs)} ops; percentiles are nearest-rank over all of them)")
    for p in problems:
        print(f"  problem: {p}")
    result = {
        "correct": not problems,
        "attempted": len(recs),
        "failed": sum(not r["ok"] for r in recs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-"
                                    f"trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
