"""Tiny-scale smoke test of the benchmark.

    python3 swstbench/smoke.py

Runs every workload once at ``--scale tiny`` untraced, then
``window-cold`` and ``durable-ingest`` traced with the same seed, and
checks that

* the printed metric names are exactly the ``BENCHMARK.json`` names of
  that mode, in order, each with its declared unit;
* every name is made only of letters, digits, ``_``, ``.`` and ``-``;
* every run reports itself correct (the traced runs also compare their
  answers with the untraced run of the same seed).

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 7


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("swstbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "2",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    plan = [(w["name"], 0) for w in spec["workloads"]]
    plan += [("window-cold", 1), ("durable-ingest", 1)]
    for workload, trace in plan:
        result = run(workload, trace)
        declared = spec["per_layer" if trace else "end_to_end"]
        expected = [(m["name"], m["unit"]) for m in declared]
        got = [(name, m["unit"]) for name, m in result["metrics"].items()]
        label = f"{workload} trace={trace}"
        if got != expected:
            problems.append(f"{label}: metric names/units differ from "
                            f"BENCHMARK.json")
        problems += [f"{label}: bad metric name {name!r}"
                     for name, _ in got if not NAME.match(name)]
        if not result["correct"]:
            problems.append(f"{label}: run reported itself incorrect")
        if result["attempted"] < 1:
            problems.append(f"{label}: no operation attempted")
        print(f"{label}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
