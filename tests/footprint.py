"""Start-up footprint of the three CLI servers the benchmark runs.

Starts ``kdc serve``, ``service serve-echo --plain`` and ``gateway`` the way
``perfbench/bench_tcp.py`` does, each as ``python -m kerbpk`` from this
checkout's ``src/``, ``STARTS`` times over, and prints for each server the
median time from process start to its banner line and the median peak
resident set (``VmHWM``) once the banner is out.  Linux only (it reads
``/proc``); standard library only.

    python tests/footprint.py

It gates nothing: the module sets that tier-1 pins in ``tests/test_cli.py``
are the gate, and this shows what they cost.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

STARTS = 7
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def kerbpk(*args: str, cwd: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "kerbpk", *args], cwd=cwd, env=ENV,
                            stdout=subprocess.PIPE, text=True)


def vmhwm_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def start(args: list[str], cwd: str) -> tuple[subprocess.Popen, dict, float, int]:
    """The server process, its banner fields, banner time (ms) and VmHWM (KiB)."""
    started = time.perf_counter()
    proc = kerbpk(*args, cwd=cwd)
    line = proc.stdout.readline()
    elapsed = (time.perf_counter() - started) * 1000
    if not line:
        raise SystemExit(f"{' '.join(args)}: no banner")
    fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
    return proc, fields, elapsed, vmhwm_kib(proc.pid)


def stop(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        proc.send_signal(signal.SIGINT)
    for proc in procs:
        proc.wait(timeout=20)
        proc.stdout.close()


def main() -> int:
    samples: dict[str, list[tuple[float, int]]] = {"kdc": [], "backend": [], "gateway": []}
    with tempfile.TemporaryDirectory() as work:
        setup = kerbpk("kdc", "register-service", "gateway", "--db", "realm.db",
                       "--realm", "BENCH", "--keytab-out", "gateway.keytab", cwd=work)
        setup.communicate(timeout=60)
        if setup.returncode != 0:
            raise SystemExit("kdc register-service failed")
        with open(os.path.join(work, "policy.txt"), "w", encoding="utf-8") as fh:
            fh.write("bypass /public\n")
        for _ in range(STARTS):
            procs = []
            try:
                kdc, _, *sample = start(["kdc", "serve", "--db", "realm.db",
                                         "--as-port", "0", "--tgs-port", "0"], work)
                procs.append(kdc)
                samples["kdc"].append(tuple(sample))
                backend, banner, *sample = start(["service", "serve-echo", "--plain",
                                                  "--port", "0"], work)
                procs.append(backend)
                samples["backend"].append(tuple(sample))
                gateway, _, *sample = start(["gateway", "--policy", "policy.txt",
                                             "--keytab", "gateway.keytab", "--port", "0",
                                             "--backend", f"/=127.0.0.1:{banner['port']}"],
                                            work)
                procs.append(gateway)
                samples["gateway"].append(tuple(sample))
            finally:
                stop(procs)
    for role, runs in samples.items():
        banner_ms = statistics.median(ms for ms, _ in runs)
        vmhwm_mib = statistics.median(kib for _, kib in runs) / 1024
        print(f"{role} banner_ms={banner_ms:.0f} vmhwm_mib={vmhwm_mib:.1f} starts={len(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
