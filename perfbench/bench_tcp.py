"""The two loopback-TCP workloads: ``kdc_tcp`` and ``gateway_tcp``.

The servers are the ``kerbpk`` CLI servers an operator runs, each in its own
child process on an ephemeral port read from its banner.  The realm (principal
db, keytab, policy) is written with the library, so the CLI's own cost inside
set-up is only server start-up.  Every client blocks on each reply (closed
loop); each ``next()`` call is one op and raises when its output is wrong.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import selectors
import signal
import subprocess
import sys
import threading
import time

from kerbpk import codec
from kerbpk.client import ClientAgent, ClientIdentity
from kerbpk.crypto import get_provider
from kerbpk.gateway import SERVED_BACKEND, SERVED_CACHE, GatewayClient
from kerbpk.gss import (MECHANISM, ContextInitiator, CredentialUsage, MechanismName,
                        NameType, ReqFlags, acquire_credential)
from kerbpk.kdc import PrincipalDb, save_service_key
from kerbpk.messages import Principal, decode_reply
from kerbpk.transport import FrameClient

HOST = "127.0.0.1"
REALM = "BENCH"
SKEW = 300
TIMEOUT = 5.0
HOOK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hook")

KDC_SERVICES = [f"svc{i}" for i in range(8)]
KINIT_SHARE = 0.05

GW_RESOURCES = 48          # three times the gateway's default 16-entry response cache
GW_ZIPF_S = 1.6
GW_WRITE_SHARE = 0.20
GW_BYPASS_SHARE = 0.05
GW_BYPASS_RESOURCES = 4
GW_REHANDSHAKE = (80, 120)  # fetches between re-handshakes, drawn per interval


class CheckFailed(Exception):
    """An op finished but its output was wrong."""


def _now() -> int:
    return int(time.time())


def proc_status(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Servers:
    """CLI server children of one set-up; ``stop`` ends and reaps them all."""

    def __init__(self, workdir: str, src_dir: str, trace_dir: str | None):
        self.workdir = workdir
        self.src_dir = src_dir
        self.trace_dir = trace_dir
        self.procs: list[subprocess.Popen] = []

    def start(self, role: str, *args: str) -> dict:
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE_OUT", None)
        path = [self.src_dir]
        if self.trace_dir is not None:
            path.append(HOOK_DIR)
            env["PERFBENCH_TRACE_OUT"] = os.path.join(self.trace_dir, f"{role}.json")
        env["PYTHONPATH"] = os.pathsep.join(path)
        with open(os.path.join(self.workdir, f"{role}.err"), "w") as err:
            proc = subprocess.Popen([sys.executable, "-m", "kerbpk", *args],
                                    stdout=subprocess.PIPE, stderr=err, text=True,
                                    cwd=self.workdir, env=env)
        self.procs.append(proc)
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            line = proc.stdout.readline() if sel.select(30.0) else ""
        if not line:
            raise RuntimeError(f"{role} server printed no banner; see {role}.err")
        return dict(part.split("=", 1) for part in line.split() if "=" in part)

    def pids(self) -> list[int]:
        return [p.pid for p in self.procs]

    def peak_rss_kib(self) -> int:
        return sum(proc_status(pid, "VmHWM") for pid in self.pids())

    def threads(self) -> int:
        return sum(proc_status(pid, "Threads") for pid in self.pids())

    def cpu_seconds(self) -> float:
        return sum(_proc_cpu_seconds(pid) for pid in self.pids())

    def stop(self) -> None:
        """SIGINT is the servers' clean shutdown; a traced server dumps its spans then."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []


def _make_realm(workdir: str, rng, users: int, services: list[str]):
    provider = get_provider("standard")
    db = PrincipalDb.create(REALM, provider)
    identities = []
    for i in range(users):
        password = f"pw-{rng.getrandbits(64):016x}"
        keypair = provider.generate_keypair()
        record = db.register_user(f"user{i}", password, keypair.public_key, provider)
        identities.append(ClientIdentity(record.principal, password, keypair,
                                         record.certificate))
    records = {name: db.register_service(name, provider) for name in services}
    db_path = os.path.join(workdir, "realm.db")
    db.save(db_path)
    return provider, db_path, identities, records


def _call(port: int, payload: bytes, expected: codec.SchemaId):
    """One request on a fresh connection, as the CLI client sends it."""
    conn = FrameClient(HOST, port, timeout=TIMEOUT)
    try:
        conn.send(payload)
        return decode_reply(conn.recv(), expected)
    finally:
        conn.close()


class _KdcUser:
    """One user's agent talking to ``kdc serve``; the client code checks every
    reply's nonce and service name, this checks the validity window."""

    def __init__(self, identity: ClientIdentity, provider, as_port: int, tgs_port: int):
        self.agent = ClientAgent(identity, provider, skew=SKEW)
        self.as_port = as_port
        self.tgs_port = tgs_port

    def send_as(self, request):
        return _call(self.as_port, codec.encode(request), codec.SchemaId.AS_REPLY)

    def send_tgs(self, request):
        return _call(self.tgs_port, codec.encode(request), codec.SchemaId.TGS_REPLY)

    @staticmethod
    def _check_validity(entry, now: int) -> None:
        if not entry.validity.from_time - SKEW <= now < entry.validity.till:
            raise CheckFailed(f"credential window {entry.validity} does not cover {now}")

    def kinit(self) -> None:
        now = _now()
        entry = self.agent.kinit(self.send_as, now)
        self._check_validity(entry, now)
        if self.agent.cache.get_tgt(now) is not entry:
            raise CheckFailed("kinit left no ticket-granting ticket in the cache")

    def ticket(self, service: str):
        now = _now()
        entry = self.agent.get_service_ticket(service, now, self.send_tgs)
        self._check_validity(entry, now)
        if entry.ticket.server != Principal(service, REALM):
            raise CheckFailed(f"ticket for {entry.ticket.server}, asked for {service}")
        return entry


class KdcClient:
    """kdc_tcp: TGS round-robin over the services, a full kinit about 1 op in 20."""

    def __init__(self, user: _KdcUser, rng):
        self.user = user
        self.rng = rng
        self.services = itertools.cycle(KDC_SERVICES)

    def next(self) -> str:
        if self.rng.random() < KINIT_SHARE:
            self.user.kinit()
            return "kinit"
        self.user.ticket(next(self.services))
        return "tgs"


class KdcSetup:
    def __init__(self, workdir: str, src_dir: str, trace_dir: str | None, rng):
        provider, db_path, identities, _ = _make_realm(workdir, rng, 2, KDC_SERVICES)
        self.servers = Servers(workdir, src_dir, trace_dir)
        try:
            self._start(provider, db_path, identities, rng)
        except BaseException:
            self.close()
            raise

    def _start(self, provider, db_path, identities, rng) -> None:
        banner = self.servers.start("kdc", "kdc", "serve", "--db", db_path,
                                    "--as-port", "0", "--tgs-port", "0")
        users = [_KdcUser(identity, provider, int(banner["as_port"]), int(banner["tgs_port"]))
                 for identity in identities]
        for user in users:
            user.kinit()
            for service in KDC_SERVICES:
                user.ticket(service)
        self.clients = [KdcClient(user, _child_rng(rng)) for user in users]

    def close(self) -> None:
        self.servers.stop()


class _CacheLedger:
    """Which GETs the gateway has already been asked for, in request order.

    With two clients in flight the exact LRU state is unknowable, but the first
    request ever made for a resource cannot be answered from the cache.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._order = itertools.count()
        self._first: dict[str, int] = {}

    def first_request(self, resource: str) -> bool:
        with self._lock:
            seq = next(self._order)
            return self._first.setdefault(resource, seq) == seq


class GatewayUser:
    """gateway_tcp: one user on a long-lived channel to ``gateway``."""

    def __init__(self, user: _KdcUser, provider, port: int, ledger: _CacheLedger,
                 resources: list[str], rng):
        self.user = user
        self.ledger = ledger
        self.resources = resources
        self.cdf = list(itertools.accumulate(1 / (i + 1) ** GW_ZIPF_S
                                             for i in range(len(resources))))
        self.rng = rng
        self.handshakes = 0
        self.port = port
        self.provider = provider
        self.client = GatewayClient(self._connect, self._make_initiator, _now)
        self.until_rehandshake = rng.randint(*GW_REHANDSHAKE)

    def _connect(self):
        return FrameClient(HOST, self.port, timeout=TIMEOUT)

    def _ticket_source(self, target: Principal, now: int):
        entry = self.user.agent.cache.get_service(target.name, now)
        if entry is None:
            entry = self.user.ticket(target.name)
        return entry.ticket, entry.key

    def _make_initiator(self, now: int) -> ContextInitiator:
        self.handshakes += 1
        cache = self.user.agent.cache
        cred = acquire_credential(
            MechanismName(cache.client, NameType.PRINCIPAL_NAME, MECHANISM),
            CredentialUsage.INITIATE, cache)
        target = MechanismName(Principal("gateway", REALM), NameType.PRINCIPAL_NAME, MECHANISM)
        return ContextInitiator(cred, target, ReqFlags(), self.provider,
                                ticket_source=self._ticket_source)

    def _zipf(self) -> str:
        return self.resources[bisect.bisect(self.cdf, self.rng.random() * self.cdf[-1])]

    def _get(self, resource: str, fetch) -> str:
        body = f"get {resource}".encode()
        first = self.ledger.first_request(resource)
        response = fetch(resource, "GET", body)
        if response.status != 200 or response.body != body:
            raise CheckFailed(f"GET {resource}: status {response.status}, body not echoed")
        if response.served_from == SERVED_CACHE:
            if first:
                raise CheckFailed(f"GET {resource}: first request served from cache")
            return "hit"
        if response.served_from != SERVED_BACKEND:
            raise CheckFailed(f"GET {resource}: served_from={response.served_from}")
        return "miss"

    def next(self) -> str:
        u = self.rng.random()
        if u < GW_BYPASS_SHARE:
            resource = f"/public/p{self.rng.randrange(GW_BYPASS_RESOURCES)}"
            return self._get(resource, self.client.fetch_plain)
        planned = self.until_rehandshake == 0
        if planned:
            self.client.close()
            self.until_rehandshake = self.rng.randint(*GW_REHANDSHAKE)
        self.until_rehandshake -= 1
        handshakes = self.handshakes
        if u < GW_BYPASS_SHARE + GW_WRITE_SHARE:
            resource = self._zipf()
            body = self.rng.randbytes(self.rng.randrange(16, 256))
            response = self.client.fetch(resource, "POST", body)
            if (response.status, response.body, response.served_from) != \
                    (200, body, SERVED_BACKEND):
                raise CheckFailed(f"POST {resource}: status {response.status}, "
                                  f"served_from={response.served_from} or body not echoed")
            kind = "write"
        else:
            kind = self._get(self._zipf(), self.client.fetch)
        # GatewayClient re-opens a broken channel silently; that is a failure here
        if self.handshakes != handshakes + planned:
            raise CheckFailed("the channel broke and was re-opened inside the fetch")
        return kind

    def close(self) -> None:
        self.client.close()


class GatewaySetup:
    def __init__(self, workdir: str, src_dir: str, trace_dir: str | None, rng):
        provider, db_path, identities, records = _make_realm(workdir, rng, 2, ["gateway"])
        keytab = os.path.join(workdir, "gateway.keytab")
        save_service_key(records["gateway"], keytab)
        policy = os.path.join(workdir, "policy.txt")
        with open(policy, "w", encoding="utf-8") as fh:
            fh.write("bypass /public\n")
        self.servers = Servers(workdir, src_dir, trace_dir)
        self.clients: list[GatewayUser] = []
        try:
            self._start(provider, db_path, identities, keytab, policy, rng)
        except BaseException:
            self.close()
            raise

    def _start(self, provider, db_path, identities, keytab, policy, rng) -> None:
        kdc = self.servers.start("kdc", "kdc", "serve", "--db", db_path,
                                 "--as-port", "0", "--tgs-port", "0")
        backend = self.servers.start("backend", "service", "serve-echo", "--plain",
                                     "--port", "0")
        gateway = self.servers.start("gateway", "gateway", "--policy", policy,
                                     "--keytab", keytab, "--port", "0",
                                     "--backend", f"/={HOST}:{backend['port']}")
        resources = [f"/data/r{i:03d}" for i in range(GW_RESOURCES)]
        rng.shuffle(resources)   # which resources are hot depends on the seed
        ledger = _CacheLedger()
        for identity in identities:
            user = _KdcUser(identity, provider, int(kdc["as_port"]), int(kdc["tgs_port"]))
            user.kinit()
            client = GatewayUser(user, provider, int(gateway["port"]), ledger, resources,
                                 _child_rng(rng))
            self.clients.append(client)
            for i in range(4):   # warm-up on resources the workload never asks for
                warm = client.client.fetch(f"/warm/{i}", "POST", b"warm-up")
                if warm.status != 200:
                    raise CheckFailed(f"warm-up fetch answered {warm.status}")

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.servers.stop()


def _child_rng(rng: random.Random) -> random.Random:
    return random.Random(rng.getrandbits(64))
