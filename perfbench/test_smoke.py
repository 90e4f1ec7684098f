"""Smoke test of the benchmark: every workload, untraced and traced, briefly.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run exits 0 with correct outputs, that the last line carries
every metric BENCHMARK.json declares with its unit, that the report lines give
every workload-specific latency with a unit and a sample count, and that in
the traced run no op's spans add up to more self time than the op's wall time.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

COMMON = ["ops_per_s", "p50_ms", "p99_ms", "cpu_ms_per_op"]
REPORTED = {
    "sim_tamper": [ "flip_p50_ms", "clean_p50_ms", "failed_ratio"],
    "kdc_tcp": ["tgs_p50_ms", "tgs_p99_ms", "login_p50_ms", "failed_ratio"],
    "gateway_tcp": ["hit_p50_ms", "miss_p50_ms", "write_p50_ms", "failed_ratio"],
}
# layers that must show work on each workload; the rest may read 0 there
ACTIVE = {
    "sim_tamper": ["codec.encode_us", "crypto.toy.seal_us", "kdc.tgs_us", "gss.handshake_us",
                   "transport.sim_frames_per_op", "transport.sim_deliver_us",
                   "scenario.setup_us", "scenario.run_us"],
    "kdc_tcp": ["codec.decode_us", "crypto.std.seal_us", "crypto.std.pk_us",
                "crypto.std.password_ms", "messages.replay_check_us", "kdc.tgs_us",
                "client.tgs_us", "transport.connect_us", "transport.recv_wait_us",
                "transport.server_threads_peak", "host.server_cpu_share"],
    "gateway_tcp": ["gss.wrap_us", "gss.unwrap_us", "gateway.core_us", "gateway.hit_ratio",
                    "gateway.backend_us", "gateway.backend_connects_per_op",
                    "transport.frames_per_op", "host.server_cpu_share"],
}
LINE = re.compile(r"^(\w+) (\S+) = \S+ (\S+) \(n=(\d+)\)$")


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        proc.stdout
    printed = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match:
            printed[(match.group(1), match.group(2))] = (match.group(3), int(match.group(4)))
    return result["metrics"], printed


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics, printed = run(workload, 0)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(metrics) == set(spec)
    for name, unit in spec.items():
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0, name
        assert printed[("untraced", name)][0] == unit
    for name in COMMON + REPORTED[workload]:
        unit, samples = printed[("untraced", name)]
        assert unit in ("op/s", "ms", "ratio") and samples > 0, name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_layer_metric(workload):
    metrics, printed = run(workload, 1)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(metrics) == set(spec)
    for name, unit in spec.items():
        assert metrics[name]["unit"] == unit
        assert printed[("layer", name)][0] == unit
    for name in ACTIVE[workload]:
        assert metrics[name]["value"] > 0, name
    # self times partition each op's spans, and the spans sit inside the op
    assert 0 < metrics["trace.selftime_share_max"]["value"] <= 1.0
    assert ("traced", "ops_per_s") in printed and ("untraced", "ops_per_s") in printed
