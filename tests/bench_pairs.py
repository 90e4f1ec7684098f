"""Alternating same-host benchmark pairs between two git revisions.

    python tests/bench_pairs.py PARENT CHANGE [--workload W ...] [--pairs N]
        [--seconds S] [--first-seed K] [--workdir DIR]

Makes a ``git archive`` copy of each revision under ``--workdir`` (a new
temporary directory by default), so both sides run from fresh trees in the
same bytecode state: no ``__pycache__``, and ``PYTHONDONTWRITEBYTECODE=1``
for every run and the servers it starts.  For each workload it then runs
``python3 perfbench/run.py --workload W --seed i --seconds S`` in each copy,
for seeds K..K+N-1, one pair per seed, and alternates which side goes first.

It prints, per workload and metric, each side's median and interquartile
range (IQR) and how many pairs each side won, then every ``failed op:`` line
word for word with its side and seed.  The metrics are every ``untraced``
line a run prints: the gated end-to-end ones and the report-only ones.
Every run's full output is kept under the work directory.  Standard library
only; a CHANGE may be a ``git stash create`` commit of a dirty tree.  Pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sim_tamper", "kdc_tcp", "gateway_tcp")
# report-only metrics where more is better; every other metric is better lower
HIGHER_IS_BETTER = {"ops_per_s", "get_hit_share", "server_cpu_share"}
METRIC = re.compile(r"^untraced (\S+) = (\S+)")


def archive(revision: str, dest: str) -> str:
    """Extract ``revision`` of this repository into ``dest``; return its full hash."""
    full = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{revision}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    tar = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", full],
                           stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=tar.stdout, check=True)
    if tar.wait() != 0:
        raise SystemExit(f"git archive {revision} failed")
    return full


def run(tree: str, workload: str, seed: int, seconds: float, log: str) -> dict:
    """One benchmark run in ``tree``: its metrics, failed-op lines and verdict."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=env, capture_output=True, text=True)
    with open(log, "w", encoding="utf-8") as fh:
        fh.write(proc.stdout + proc.stderr)
    metrics, failed, correct = {}, [], False
    for line in proc.stdout.splitlines():
        if match := METRIC.match(line):
            metrics[match[1]] = float(match[2])
        elif line.startswith("failed op:") or line.startswith("... and "):
            failed.append(line)
    if proc.stdout.strip():
        try:
            correct = json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
        except (ValueError, KeyError):
            pass
    return {"metrics": metrics, "failed": failed, "correct": correct,
            "exit": proc.returncode}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def report(workload: str, pairs: list[tuple[int, dict, dict]]) -> None:
    print(f"\n== {workload}: {len(pairs)} pairs (parent -> change)")
    names = sorted({name for _, a, b in pairs for name in a["metrics"]} &
                   {name for _, a, b in pairs for name in b["metrics"]})
    print(f"{'metric':24} {'parent median [IQR]':>30} {'change median [IQR]':>30} "
          f"{'ratio':>7} {'wins p/c':>9}")
    for name in names:
        both = [(a["metrics"][name], b["metrics"][name]) for _, a, b in pairs
                if name in a["metrics"] and name in b["metrics"]]
        parent, change = quartiles([x for x, _ in both]), quartiles([y for _, y in both])
        higher = name in HIGHER_IS_BETTER
        change_wins = sum((y > x) if higher else (y < x) for x, y in both)
        parent_wins = sum((x > y) if higher else (x < y) for x, y in both)
        ratio = change[0] / parent[0] if parent[0] else float("nan")
        print(f"{name:24} {parent[0]:>10.4g} [{parent[1]:.4g}, {parent[2]:.4g}]".ljust(56) +
              f"{change[0]:>10.4g} [{change[1]:.4g}, {change[2]:.4g}]".ljust(31) +
              f"{ratio:>7.3f} {parent_wins:>4}/{change_wins:<4}")
    for seed, a, b in pairs:
        for side, result in (("parent", a), ("change", b)):
            if not result["correct"] or result["exit"] != 0:
                print(f"{side} seed {seed}: correct={result['correct']} exit={result['exit']}")
            for line in result["failed"]:
                print(f"{side} seed {seed}: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_pairs-")
    trees = {side: os.path.join(workdir, side) for side in ("parent", "change")}
    for side, revision in (("parent", args.parent), ("change", args.change)):
        print(f"{side}: {archive(revision, trees[side])} in {trees[side]}", flush=True)
    for workload in args.workload or WORKLOADS:
        pairs = []
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            results = {}
            for side in order:
                log = os.path.join(workdir, f"{workload}-{seed}-{side}.log")
                results[side] = run(trees[side], workload, seed, args.seconds, log)
            pairs.append((seed, results["parent"], results["change"]))
            print(f"{workload} seed {seed} done ({order[0]} first)", flush=True)
        report(workload, pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
