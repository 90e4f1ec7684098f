"""Measure every workload several times and write the medians to a JSON file.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Each workload runs ``--runs`` times untraced, seeds 1..runs, for the
``run_seconds`` of BENCHMARK.json, then once traced with seed 1.  For every
metric an untraced run prints (those of the JSON line and those printed for
people only) the file keeps the median, the quartiles and the spread
(quartile distance over median), as ``statistics.quantiles(values, n=4)``
gives them; for every per-layer metric, the traced run's value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LINE = re.compile(r"^untraced (\S+) = (\S+) (\S+) \(n=\d+\)$")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed\n{proc.stdout}")
    result["printed"] = {m.group(1): (float(m.group(2)), m.group(3))
                         for m in map(LINE.match, lines) if m}
    return result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def machine() -> dict:
    from importlib.metadata import version
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": version("cryptography"),
        "kernel": platform.release(),
        "network": "loopback",
        "servers": "child processes (python -m kerbpk ...)",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    out = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        traced = run(workload, 1, seconds, 1)
        printed = results[0]["printed"]
        out["workloads"][workload] = {
            "metrics": {name: summary([r["printed"][name][0] for r in results])
                        | {"unit": unit, "in_json": name in results[0]["metrics"]}
                        for name, (_, unit) in printed.items()},
            "per_layer": traced["metrics"],
        }
        print(workload, {name: round(s["median"], 4) for name, s in
                         out["workloads"][workload]["metrics"].items()}, flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
