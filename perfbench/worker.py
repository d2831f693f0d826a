"""One workload process: set up, run ops in a closed loop, write results.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and at
this directory.  Modes:

  timed   run whole cycles of ops until at least --seconds have passed and
          at least --min-ops ops ran (default: workloads.MIN_OPS); one
          client, each op issued when the previous one returns
  replay  run exactly --ops ops (the traced half of a --trace 1 run)
  setup   set up and exit (extra set-up samples)

The result file holds set-up time, per-op latency and outcome, the timed
wall, peak RSS and, with --trace 1, the per-layer summary from the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "replay", "setup"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--min-ops", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="wall-clock time at which the parent started this process")
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import numpy as np
    import scipy
    import polarlab

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(polarlab.__file__).startswith(src + os.sep):
        print(f"polarlab imported from {polarlab.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads as wl

    tracer = tracing.Tracer().install() if args.trace else None

    cyc = wl.cycle_length(args.workload)
    if args.min_ops is None:
        args.min_ops = wl.MIN_OPS[args.workload]
    n_cycles = max(1, -(-args.ops // cyc)) if args.mode == "replay" else 16
    shared, ops = wl.generate(args.workload, args.seed, n_cycles)
    from polarlab import polar_integrals as pint

    for d, s in wl.quadratures(args.workload, shared):
        pint.default_quadrature(d, s)

    out_dir = os.path.dirname(os.path.abspath(args.out))
    ctx = dict(shared)
    ctx.update(out_dir=out_dir, bench_dir=os.path.dirname(os.path.abspath(__file__)),
               nproc=len(os.sched_getaffinity(0)), env=dict(os.environ),
               tag=os.path.splitext(os.path.basename(args.out))[0],
               traced=bool(args.trace), op_index=0)

    records = []
    first_op = time.time()
    setup_s = first_op - args.spawned
    t0 = time.perf_counter()
    if args.mode != "setup":
        i = 0
        while True:
            if i == len(ops):  # more cycles than generated: extend deterministically
                _, ops = wl.generate(args.workload, args.seed, 2 * len(ops) // cyc)
            if tracer is not None:
                tracer.op = i
            ctx["op_index"] = i
            a = time.perf_counter()
            outcome = wl.run_op(args.workload, ops[i], ctx)
            b = time.perf_counter()
            records.append({"kind": ops[i]["kind"], "slot": ops[i]["slot"],
                            "latency": b - a, "ok": outcome.ok,
                            "failure": outcome.failure, "result": outcome.result,
                            "extra": outcome.extra})
            i += 1
            if args.mode == "replay":
                if i >= args.ops:
                    break
            elif (i % cyc == 0 and i >= args.min_ops
                  and time.perf_counter() - t0 >= args.seconds):
                break
    wall = time.perf_counter() - t0

    out = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "setup_s": setup_s, "wall_s": wall, "records": records,
        "peak_rss_mb": _peak_rss_mb(),
        "inputs_sha256": wl.inputs_digest(shared, ops[:len(records)]),
        "cycle": cyc,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "pool_size": len(shared.get("pool", ())) or None,
    }
    if tracer is not None:
        tracer.uninstall()
        import layers

        spans = [layers.span_dict(sp) for sp in tracer.spans]
        for i, rec in enumerate(records):  # spans written by verify subprocesses
            path = (rec["extra"] or {}).get("spans")
            if path and os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    spans += layers.reindex(json.load(fh), op=i, base=len(spans) + 1)
        out["layers"] = layers.per_layer(spans, records)
        with open(os.path.splitext(args.out)[0] + ".spans.jsonl", "w",
                  encoding="utf-8") as fh:
            for sp in spans:
                fh.write(json.dumps(sp) + "\n")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
