"""Start-up footprint of the three CLI servers the benchmark runs.

Starts ``kdc serve``, ``service serve-echo --plain`` and ``gateway`` the way
``perfbench/bench_tcp.py`` does, each as ``python -m kerbpk`` from this
checkout's ``src/``, ``STARTS`` times over, and prints for each server the
median time from process start to its banner line, the median peak resident
set (``VmHWM``) once the banner is out, and the OpenSSL objects it has mapped:
``cryptography``'s ``_rust`` extension carries one OpenSSL, and Python's own
``libcrypto``/``libssl`` (loaded by ``hashlib``, ``hmac`` or ``ssl``) a
second.  It first prints whether ``PYTHONDONTWRITEBYTECODE`` is set and how
many ``src/kerbpk`` modules have current bytecode in ``__pycache__``, since a
server that has to compile its modules at every start reaches its banner
later.  Linux only (it reads ``/proc``); standard library only.

    python tests/footprint.py

It gates nothing: the module sets that tier-1 pins in ``tests/test_cli.py``
are the gate, and this shows what they cost.
"""

from __future__ import annotations

import glob
import importlib.util
import os
import signal
import statistics
import struct
import subprocess
import sys
import tempfile
import time

STARTS = 7
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ENV = dict(os.environ, PYTHONPATH=SRC)
# Mapped files that carry an OpenSSL: Python's libraries, and cryptography's
# Rust extension, which links its own copy statically.
SYSTEM_OPENSSL = ("libcrypto", "libssl")
CRYPTOGRAPHY_OPENSSL = "_rust"


def kerbpk(*args: str, cwd: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "kerbpk", *args], cwd=cwd, env=ENV,
                            stdout=subprocess.PIPE, text=True)


def vmhwm_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def openssl_objects(pid: int) -> frozenset[str]:
    """The distinct mapped files of ``pid`` that carry an OpenSSL."""
    with open(f"/proc/{pid}/maps", encoding="utf-8", errors="replace") as fh:
        paths = {parts[5].strip() for parts in (line.split(maxsplit=5) for line in fh)
                 if len(parts) == 6}
    return frozenset(p for p in paths
                     if os.path.basename(p).startswith(SYSTEM_OPENSSL + (CRYPTOGRAPHY_OPENSSL,)))


def openssl_count(objects: frozenset[str]) -> int:
    names = [os.path.basename(p) for p in objects]
    return (any(n.startswith(SYSTEM_OPENSSL) for n in names)
            + any(n.startswith(CRYPTOGRAPHY_OPENSSL) for n in names))


def current_bytecode() -> tuple[int, int]:
    """How many ``src/kerbpk`` modules have a timestamp-checked ``.pyc`` in
    ``__pycache__`` that matches their source, and how many there are."""
    sources = sorted(glob.glob(os.path.join(SRC, "kerbpk", "*.py")))
    current = 0
    for path in sources:
        try:
            with open(importlib.util.cache_from_source(path), "rb") as fh:
                header = fh.read(16)
        except OSError:
            continue
        st = os.stat(path)
        current += header == (importlib.util.MAGIC_NUMBER + bytes(4) + struct.pack(
            "<II", int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF))
    return current, len(sources)


def start(args: list[str], cwd: str) -> tuple[subprocess.Popen, dict, tuple]:
    """The server process, its banner fields, and its banner time (ms), VmHWM
    (KiB) and mapped OpenSSL objects."""
    started = time.perf_counter()
    proc = kerbpk(*args, cwd=cwd)
    line = proc.stdout.readline()
    elapsed = (time.perf_counter() - started) * 1000
    if not line:
        raise SystemExit(f"{' '.join(args)}: no banner")
    fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
    return proc, fields, (elapsed, vmhwm_kib(proc.pid), openssl_objects(proc.pid))


def stop(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        proc.send_signal(signal.SIGINT)
    for proc in procs:
        proc.wait(timeout=20)
        proc.stdout.close()


def main() -> int:
    current, modules = current_bytecode()
    print(f"bytecode PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r} "
          f"current_pyc={current}/{modules}")
    samples: dict[str, list[tuple]] = {"kdc": [], "backend": [], "gateway": []}
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
                kdc, _, sample = start(["kdc", "serve", "--db", "realm.db",
                                        "--as-port", "0", "--tgs-port", "0"], work)
                procs.append(kdc)
                samples["kdc"].append(sample)
                backend, banner, sample = start(["service", "serve-echo", "--plain",
                                                 "--port", "0"], work)
                procs.append(backend)
                samples["backend"].append(sample)
                gateway, _, sample = start(["gateway", "--policy", "policy.txt",
                                            "--keytab", "gateway.keytab", "--port", "0",
                                            "--backend", f"/=127.0.0.1:{banner['port']}"],
                                           work)
                procs.append(gateway)
                samples["gateway"].append(sample)
            finally:
                stop(procs)
    for role, runs in samples.items():
        banner_ms = statistics.median(ms for ms, _, _ in runs)
        vmhwm_mib = statistics.median(kib for _, kib, _ in runs) / 1024
        objects = frozenset().union(*(mapped for _, _, mapped in runs))
        count = openssl_count(objects)
        print(f"{role} banner_ms={banner_ms:.0f} vmhwm_mib={vmhwm_mib:.1f} starts={len(runs)} "
              f"openssl={count}")
        print(f"  maps {('no', 'one', 'two')[count]} OpenSSL{'s' if count == 2 else ''}: "
              + (", ".join(sorted(objects)) or "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
