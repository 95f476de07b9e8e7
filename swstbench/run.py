"""Benchmark entry point.

    python3 swstbench/run.py --workload window-cold --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a source checkout.  The program is imported from
``src/``; inputs are generated from ``--seed``; run records, traces and
scratch engine directories go under ``.swstbench/`` in the checkout.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

#: workload -> (module, index config overrides).  Every workload runs
#: 2 shards: the host has 2 cores, and no workload keeps more busy
#: threads or processes than that.
WORKLOADS = {
    "window-cold": ("window_cold", {"n_shards": 2}),
    "dashboard-serve": ("dashboard_serve", {"n_shards": 2}),
    "durable-ingest": ("durable_ingest", {"n_shards": 2,
                                          "buffer_capacity": 64}),
}

def benchmark_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("scaled", "tiny"),
                        default="scaled",
                        help="input scale (tiny is for the smoke test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program source at {src}/repro: run from the root of a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    from common import REF_NOMINAL_MS, Inputs, provenance
    from harness import Run, finish

    module_name, overrides = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    state_dir = os.path.join(ROOT, ".swstbench")
    scratch = os.path.join(state_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    inputs = Inputs.make(args.scale, args.seed, **overrides)
    # The generated stream is the benchmark's, not the program's: keep its
    # ~50k objects out of every garbage-collector pass the program pays.
    gc.collect()
    gc.freeze()
    run = Run(workload=args.workload, inputs=inputs, seconds=args.seconds,
              trace=bool(args.trace), state_dir=state_dir)
    run.notes["provenance"] = provenance(ROOT, args.seed)
    run.notes["scratch"] = scratch
    try:
        module.execute(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct, metrics, record = finish(run)
    declared = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    values = record["per_layer"] if args.trace else metrics
    refs = record["host_ref_ms"]
    print(f"host_ref_ms: median {sorted(refs)[len(refs) // 2]:.3f} "
          f"min {min(refs):.3f} max {max(refs):.3f} "
          f"(nominal {REF_NOMINAL_MS})")
    for message in record["errors"]:
        print(f"error: {message}")
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
