"""Benchmark of the biphoton pipeline: one command, three workloads.

    python3 bench/run.py --workload {filter_transform,mc_roundtrip,cli_cold}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ./src, so a
checkout needs no install step.  A run

1. starts SETUP_SAMPLES fresh interpreters that import biphoton and build
   the workload's inputs, and reports the median time to ready (setup_s);
2. runs whole rounds of operations in a closed loop (each operation
   starts when the previous one ends) for about S seconds, timing each;
3. checks every operation's outputs against independent oracles, and
   once more at the end (reruns give identical results);
4. prints one JSON line: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
calls into each layer run inside spans, and the metrics are per layer.
The result and the spans are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 4


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("filter_transform", "mc_roundtrip", "cli_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_samples(args, tracer) -> list[float]:
    """Time from starting a fresh interpreter to the workload's inputs being ready."""
    times = []
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "setup", args.workload,
           str(args.seed), str(args.trace)]
    for _ in range(SETUP_SAMPLES):
        with tracer.span("setup"):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                raise RuntimeError(f"setup child failed:\n{proc.stderr}")
            child = json.loads(proc.stdout.splitlines()[-1])
            times.append(child["ready"] - t0)
            tracer.adopt(child["spans"])
    return times


def run(args) -> dict:
    root = os.getcwd()
    src = os.path.join(root, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, src)
    import biphoton  # noqa: F401  (writes the bytecode caches before any timing)
    import spans
    import workloads

    work = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer(bool(args.trace))
    setup_times = setup_samples(args, tracer)
    state = work.setup(tracer, args.seed, root)

    times, inputs, failures = [], [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    round_s = 0.0
    try:
        while rounds < work.min_rounds or time.perf_counter() - start + round_s <= args.seconds:
            round_start = time.perf_counter()
            for _ in range(work.round):
                inp = work.next_input(state, attempted)
                tracer.op = attempted
                attempted += 1
                try:
                    t0 = time.perf_counter()
                    with tracer.span("op"):
                        out = work.op(state, inp)
                    times.append(time.perf_counter() - t0)
                except Exception:  # an operation the program failed: count it, go on
                    failed += 1
                    print(f"operation {inp} failed:\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                inputs.append(inp)
                failures += work.check(state, inp, out)
            rounds += 1
            round_s = time.perf_counter() - round_start
        tracer.op = "final"
        failures += work.final_check(state)
        peak_rss = work.peak_rss_mb(state)
    finally:
        work.teardown(state)

    for f in failures[:20]:
        print(f"check failed: {f}", file=sys.stderr)
    if args.trace:
        metrics = spans.layer_metrics(tracer.spans, len(times))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (work.tail_s(times, inputs), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = os.path.join(workloads.out_root(root),
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".result.json", "w") as fh:
        json.dump(dict(result, operations=len(times), rounds=rounds,
                       setup_samples_s=setup_times, op_times_s=times), fh)
    if args.trace:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "biphoton", "__init__.py")):
        print("bench: src/biphoton not found; run from the repository root", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
