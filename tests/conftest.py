"""Shared fixtures: a one-user, one-service realm with an in-process KDC."""

import struct
from collections import Counter

import pytest

from kerbpk.app import BackendSession, echo_handler
from kerbpk.client import ClientAgent, ClientIdentity
from kerbpk.crypto import get_provider
from kerbpk.errors import ConnectionClosed, NoTicket
from kerbpk.gateway import (GatewayClient, GatewayCore, GatewayPolicy, GatewaySession,
                            ResponseCache, protected_endpoint)
from kerbpk.gss import initiator_for
from kerbpk.kdc import KdcService, PrincipalDb
from kerbpk.messages import Principal
from kerbpk.transport import SimClock, SimNetwork, pack_frame, serve_frame

REALM = "EXAMPLE"
NOW = 1_000_000  # same epoch the simulated clock starts at


class Realm:
    """In-process KDC plus one enrolled user ("alice") and one service ("echo")."""

    def __init__(self, provider, realm: str = REALM):
        self.provider = provider
        self.db = PrincipalDb.create(realm, provider)
        self.keypair = provider.generate_keypair()
        self.user = self.db.register_user("alice", "hunter2", self.keypair.public_key, provider)
        self.service = self.db.register_service("echo", provider)
        self.kdc = KdcService(self.db, provider)
        self.identity = ClientIdentity(self.user.principal, "hunter2", self.keypair,
                                       self.user.certificate)
        self.agent = ClientAgent(self.identity, provider)
        self.sent = Counter()  # requests carried to the KDC, by endpoint role

    def enroll(self, name: str) -> ClientAgent:
        """One more user, on alice's key pair, and that user's agent."""
        record = self.db.register_user(name, "pw", self.keypair.public_key, self.provider)
        identity = ClientIdentity(record.principal, "pw", self.keypair, record.certificate)
        return ClientAgent(identity, self.provider)

    def send_as(self, request, now: int = NOW):
        self.sent["as"] += 1
        return self.kdc.handle("as", request, now)

    def send_tgs(self, request, now: int = NOW):
        self.sent["tgs"] += 1
        return self.kdc.handle("tgs", request, now)


@pytest.fixture
def toy():
    return get_provider("toy", seed=1234)


@pytest.fixture
def realm(toy):
    return Realm(toy)


@pytest.fixture
def logged_in(realm):
    """Realm whose agent already holds a TGT and a ticket for echo."""
    realm.agent.kinit(realm.send_as, NOW)
    realm.agent.get_service_ticket("echo", NOW, realm.send_tgs)
    return realm


def cache_ticket_source(cache):
    """Ticket source that only consults the credential cache."""
    def source(target: Principal, now: int):
        entry = cache.get_service(target.name, now)
        if entry is None:
            raise NoTicket(f"no cached service ticket for {target.name}")
        return entry.ticket, entry.key
    return source


def initiator_factory(realm):
    """Builds alice's initiator for "echo" from her cached tickets alone."""
    cache = realm.agent.cache
    return lambda now: initiator_for(cache, "echo", realm.provider,
                                     cache_ticket_source(cache))


def service_endpoint(realm, handler=echo_handler):
    """Session factory of the realm's "echo" service, answering with ``handler``."""
    return protected_endpoint(realm.service.long_term_key, realm.provider, handler)


def gateway_endpoint(realm, core):
    """Session factory of a gateway that fronts ``core`` as the "echo" service."""
    protected = service_endpoint(realm, core.handle)
    return lambda: GatewaySession(core, protected())


class RecordingEcho:
    """The echo handler, recording every request that reaches the backend."""

    def __init__(self):
        self.requests = []  # appended from server threads: list.append is atomic

    def __call__(self, request):
        self.requests.append(request)
        return echo_handler(request)


def sim_backend(session=BackendSession):
    """A simulated network whose backend serves ``session``s, and a connector to it."""
    net = SimNetwork(SimClock())
    net.register("backend", session)
    return net, lambda: net.connect("backend", "gw/backend", internal=True)


def gateway_stack(realm, capacity=4):
    """A simulated gateway, bypassing /public, in front of an echo backend,
    plus alice's client for it and the backend's ``RecordingEcho``.
    ``capacity=None`` turns the cache off."""
    echo = RecordingEcho()
    net, connector = sim_backend(lambda: BackendSession(echo))
    cache = ResponseCache(capacity) if capacity is not None else None
    core = GatewayCore(GatewayPolicy.parse("bypass /public\n"), cache, [("/", connector)])
    net.register("gw", gateway_endpoint(realm, core))
    client = GatewayClient(lambda: net.connect("gw", "alice/gw"),
                           initiator_factory(realm), net.clock.now)
    return net, core, client, echo


def serve(session, payload: bytes, now: int = NOW):
    """Drive a server session as both transports do: one frame through
    ``serve_frame``, which returns ``(replies, close)``."""
    return serve_frame(session, bytearray(pack_frame(payload)), now)


def recv_frame(sock, timeout=None):
    """Read one frame's payload off a raw socket, for tests that play a peer."""
    if timeout is not None:
        sock.settimeout(timeout)

    def exact(n):
        data = b""
        while len(data) < n:
            chunk = sock.recv(n - len(data))
            if not chunk:
                raise ConnectionClosed("peer closed the connection")
            data += chunk
        return data

    (length,) = struct.unpack(">I", exact(4))
    return exact(length)
