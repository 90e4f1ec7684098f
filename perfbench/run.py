"""kerbpk benchmark: one workload per invocation, closed loop, outputs checked.

    python3 perfbench/run.py --workload sim_tamper|kdc_tcp|gateway_tcp \
        --seed N --seconds S --trace 0|1

Run from the root of a kerbpk checkout: the package is imported from
``src/`` next to this directory, never from anywhere else.  ``--trace 0``
sets the workload up ``SETUPS`` times (``setup_s`` is the median), then
measures the last set-up for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` measures untraced and then traced, each for half of
``--seconds`` (at most ``TRACE_SECONDS``) on its own set-up, and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from time import perf_counter, perf_counter_ns
from typing import NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_tamper", "kdc_tcp", "gateway_tcp")
SETUPS = 5
SAMPLE_EVERY = 0.05
# Throughput and latency are medians over this many equal windows of a run, so
# a few seconds of interference from other tenants of the host move them little.
WINDOWS = 10
# Each half of a traced run lasts at most this long: spans are kept in memory.
TRACE_SECONDS = 5.0
# Every this many ops a client thread times the reference job (see _reference).
REFERENCE_EVERY = 4


def _import_kerbpk() -> str:
    """Import kerbpk from this checkout's src/ and return that directory."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "kerbpk", "__init__.py")):
        raise SystemExit(f"error: no kerbpk sources under {src}; run from a kerbpk checkout")
    sys.path.insert(0, src)
    import kerbpk
    # the server children get this absolute path, never a relative one
    return os.path.dirname(os.path.dirname(os.path.abspath(kerbpk.__file__)))


def _make_setup(workload: str, workdir: str, src_dir: str, trace_dir, seed: int):
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    if workload == "sim_tamper":
        from bench_sim import SimSetup
        return SimSetup(rng)
    from bench_tcp import GatewaySetup, KdcSetup
    cls = KdcSetup if workload == "kdc_tcp" else GatewaySetup
    return cls(workdir, src_dir, trace_dir, rng)


class Op(NamedTuple):
    id: int
    kind: str
    ns: int              # latency
    error: Optional[str]
    start_ns: int
    reference_ns: int    # CPU time of the reference job after this op, or 0


def _reference() -> int:
    """CPU time (ns) of a fixed pure-Python job on the calling thread.

    The host's other tenants change how fast a CPU runs from one second to the
    next, by up to 1.8 times.  CPU time per op divided by this job's CPU time,
    both measured on the same cores in the same window, is a cost that those
    changes leave alone."""
    started = time.thread_time_ns()
    acc = 0
    table = {}
    for i in range(200):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 63] = acc
    return time.thread_time_ns() - started


def _client_loop(client, deadline: float, out: list, op_ids, tracer) -> None:
    while perf_counter() < deadline:
        op = next(op_ids)
        if tracer is not None:
            tracer.set_op(op)
        started = perf_counter_ns()
        try:
            kind, error = client.next(), None
        except Exception as exc:    # every failure is counted, none stops the run
            kind, error = "failed", f"{type(exc).__name__}: {exc}"
        latency = perf_counter_ns() - started
        reference = _reference() if op % REFERENCE_EVERY == 0 else 0
        out.append(Op(op, kind, latency, error, started, reference))
    if tracer is not None:
        tracer.set_op(-1)


def measure(setup, seconds: float, tracer=None) -> dict:
    """Run every client of the set-up in its own thread until the deadline."""
    from bench_tcp import proc_status
    servers = getattr(setup, "servers", None)
    outs = [[] for _ in setup.clients]
    op_ids = itertools.count()
    cpu0, server_cpu0 = time.process_time(), servers.cpu_seconds() if servers else 0.0
    start_ns = perf_counter_ns()
    deadline = perf_counter() + seconds
    threads = [threading.Thread(target=_client_loop,
                                args=(client, deadline, out, op_ids, tracer))
               for client, out in zip(setup.clients, outs)]
    for thread in threads:
        thread.start()
    threads_peak = 0
    while any(thread.is_alive() for thread in threads):
        if servers:
            threads_peak = max(threads_peak, servers.threads())
        time.sleep(SAMPLE_EVERY)
    for thread in threads:
        thread.join()
    loadgen_cpu = time.process_time() - cpu0
    server_cpu = servers.cpu_seconds() - server_cpu0 if servers else 0.0
    ops = [op for out in outs for op in out]
    end_ns = max((op.start_ns + op.ns for op in ops), default=perf_counter_ns())
    wall = (end_ns - start_ns) / 1e9
    return {
        "ops": ops,
        "seconds": seconds,
        "wall": wall,
        "window_ns": (start_ns, end_ns),
        "loadgen_cpu_share": loadgen_cpu / wall,
        "server_cpu_share": server_cpu / wall,
        "cpu_s": loadgen_cpu + server_cpu,
        "threads_peak": threads_peak,
        "peak_rss_mb": (servers.peak_rss_kib() if servers
                        else proc_status(os.getpid(), "VmHWM")) / 1024,
    }


def _quantile(sorted_values: list, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _windows(phase: dict, kinds=None) -> list:
    """The ops that succeeded, by the window they ended in, in order of ending.

    Ops still running at the deadline end in the last window, which therefore
    lasts until the last op ends."""
    start, width = phase["window_ns"][0], phase["seconds"] * 1e9 / WINDOWS
    windows = [[] for _ in range(WINDOWS)]
    for op in sorted(phase["ops"], key=lambda op: op.start_ns + op.ns):
        if op.error is None and (kinds is None or op.kind in kinds):
            windows[min(WINDOWS - 1, int((op.start_ns + op.ns - start) // width))].append(op)
    return windows


def windowed(phase: dict, q: float, kinds=None) -> tuple:
    """Median over the windows of each window's q-quantile latency (ms), and
    the number of samples."""
    windows = [sorted(op.ns / 1e6 for op in w) for w in _windows(phase, kinds) if w]
    if not windows:
        return 0.0, 0
    return statistics.median(_quantile(w, q) for w in windows), sum(map(len, windows))


def throughput(phase: dict) -> float:
    """Median over the windows of ops completed per second, each window timed
    from the previous window's last completion to its own."""
    rates = []
    previous = phase["window_ns"][0]
    for window in _windows(phase):
        if window:
            last = window[-1].start_ns + window[-1].ns
            rates.append(len(window) * 1e9 / (last - previous))
            previous = last
    return statistics.median(rates) if rates else 0.0


def end_to_end(phase: dict, setup_times: list) -> dict:
    """The metrics of the JSON line: name -> (value, unit, samples)."""
    done = sum(1 for op in phase["ops"] if op.error is None)
    references = [op.reference_ns for op in phase["ops"] if op.reference_ns]
    reference_s = statistics.mean(references) / 1e9 if references else 0.0
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "cpu_work_per_op": (phase["cpu_s"] / done / reference_s if done and reference_s
                            else 0.0, "ref", done),
        "server_peak_rss_mb": (phase["peak_rss_mb"], "MiB", 1),
    }


KIND_METRICS = {
    "kdc_tcp": [("tgs_p50_ms", {"tgs"}, 0.5), ("tgs_p99_ms", {"tgs"}, 0.99),
                ("login_p50_ms", {"kinit"}, 0.5)],
    "gateway_tcp": [("hit_p50_ms", {"hit"}, 0.5), ("miss_p50_ms", {"miss"}, 0.5),
                    ("write_p50_ms", {"write"}, 0.5)],
    "sim_tamper": [("flip_p50_ms", {"flip"}, 0.5), ("clean_p50_ms", {"clean"}, 0.5)],
}


def report_only(workload: str, phase: dict) -> dict:
    """Metrics printed for people but left out of the JSON line: throughput
    and latency, which move with the host's other tenants more than any bound
    allows (see README.md), the latencies of kinds of op that exist on one
    workload each, and failures."""
    p50, samples = windowed(phase, 0.5)
    out = {
        "ops_per_s": (throughput(phase), "op/s", samples),
        "p50_ms": (p50, "ms", samples),
        "p99_ms": (windowed(phase, 0.99)[0], "ms", samples),
        "cpu_ms_per_op": (phase["cpu_s"] * 1e3 / samples if samples else 0.0, "ms", samples),
    }
    for name, kinds, q in KIND_METRICS[workload]:
        value, samples = windowed(phase, q, kinds)
        out[name] = (value, "ms", samples)
    attempted = len(phase["ops"])
    failed = sum(1 for op in phase["ops"] if op.error is not None)
    out["failed_ratio"] = (failed / attempted if attempted else 0.0, "ratio", attempted)
    out["server_cpu_share"] = (phase["server_cpu_share"], "ratio", 1)
    out["loadgen_cpu_share"] = (phase["loadgen_cpu_share"], "ratio", 1)
    if workload == "gateway_tcp":
        hits = sum(1 for op in phase["ops"] if op.kind == "hit")
        gets = hits + sum(1 for op in phase["ops"] if op.kind == "miss")
        out["get_hit_share"] = (hits / gets if gets else 0.0, "ratio", gets)
    return out


def _print_metrics(title: str, metrics: dict) -> None:
    for name, (value, unit, samples) in metrics.items():
        print(f"{title} {name} = {value:.6g} {unit} (n={samples})")


def _print_failures(phase: dict) -> None:
    errors = [op.error for op in phase["ops"] if op.error is not None]
    for error in errors[:10]:
        print(f"failed op: {error}")
    if len(errors) > 10:
        print(f"... and {len(errors) - 10} more failed ops")


def run_untraced(args, workdir: str, src_dir: str) -> tuple[dict, dict]:
    setup_times = []
    setup = None
    try:
        for i in range(SETUPS):
            if setup is not None:
                setup.close()
                setup = None
            started = perf_counter()
            setup = _make_setup(args.workload, os.path.join(workdir, f"setup{i}"),
                                src_dir, None, args.seed)
            setup_times.append(perf_counter() - started)
        phase = measure(setup, args.seconds)
    finally:
        if setup is not None:
            setup.close()
    return phase, end_to_end(phase, setup_times)


def run_traced(args, workdir: str, src_dir: str) -> tuple[list, dict]:
    import bench_layers
    import bench_trace

    half = min(args.seconds / 2, TRACE_SECONDS)
    setup = _make_setup(args.workload, os.path.join(workdir, "untraced"), src_dir, None,
                        args.seed)
    try:
        untraced = measure(setup, half)
    finally:
        setup.close()

    tracer = bench_trace.Tracer()
    bench_trace.install(tracer)
    trace_dir = os.path.join(workdir, "spans")
    os.makedirs(trace_dir)
    setup = _make_setup(args.workload, os.path.join(workdir, "traced"), src_dir, trace_dir,
                        args.seed)
    try:
        traced = measure(setup, half, tracer)
    finally:
        setup.close()    # the servers write their spans as they exit
    spans = {"loadgen": tracer.spans}
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="ascii") as fh:
            spans[name[:-len(".json")]] = json.load(fh)
    metrics, selftime_share = bench_layers.per_layer(spans, untraced, traced)
    untraced_rate, traced_rate = throughput(untraced), throughput(traced)
    metrics["trace.ops_per_s"] = (traced_rate, "op/s", len(traced["ops"]))
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "op/s", len(untraced["ops"]))
    metrics["trace.overhead_pct"] = (100 * (1 - traced_rate / untraced_rate), "%", 2)
    metrics["trace.selftime_share_max"] = (selftime_share, "ratio", len(traced["ops"]))
    return [untraced, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src_dir = _import_kerbpk()
    # A shell that starts this in the background ignores SIGINT, and the servers
    # would inherit that; with a handler here they start with the default, and
    # SIGINT remains their clean shutdown.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    workdir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            phases, metrics = run_traced(args, workdir, src_dir)
        else:
            phase, metrics = run_untraced(args, workdir, src_dir)
            phases = [phase]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass    # another run still uses it

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for i, phase in enumerate(phases):
        title = "untraced" if i == 0 else "traced"
        if not args.trace:
            _print_metrics(title, metrics)
        _print_metrics(title, report_only(args.workload, phase))
        _print_failures(phase)
    if args.trace:
        _print_metrics("layer", metrics)

    attempted = sum(len(phase["ops"]) for phase in phases)
    failed = sum(1 for phase in phases for op in phase["ops"] if op.error is not None)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
