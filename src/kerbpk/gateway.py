"""Caching application gateway and the ticket-protected app sessions.

The gateway fronts one or more plain backends (``app.BackendSession``).
Resources are matched against an ordered prefix policy: ``protect`` entries
demand an established security context (plain requests get a 401), ``bypass``
entries are served in the clear.  GET responses with status 200 are cached in
a bounded LRU keyed by resource, and every response says whether it came from
a backend or the cache, so hit counting is observable end to end.

Sessions here all speak the frame protocol from transport: one request
payload in, a list of reply payloads out.  Protocol failures answer with an
ErrorReply and close; a frame whose schema the session does not recognize
closes the connection silently.  ``protected_endpoint`` builds every
ticket-protected endpoint; an observer wraps its session factory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import codec
from .app import SERVED_BACKEND, SERVED_CACHE, AppRequest, AppResponse, echo_handler
from .crypto import CryptoProvider, SymmetricKey
from .errors import (
    BackendUnreachable,
    ConnectionClosed,
    FetchError,
    KerbPkError,
    PolicyParseError,
    StateError,
)
from .gss import ContextAcceptor, ContextInitiator, SecurityContext
from .messages import ReplayCache, decode_reply, validate_times
from .transport import FrameClient, call, error_reply

PROTECT = "protect"
BYPASS = "bypass"

DEFAULT_CACHE_CAPACITY = 16
# Below FrameClient's default 5 s, so a client hears the gateway's 502 for a
# backend that never answers before it gives up itself.
BACKEND_TIMEOUT = 2.0


class GatewayPolicy:
    """Ordered prefix rules; first match wins, unmatched resources are
    protected."""

    def __init__(self, rules: Optional[list[tuple[str, str]]] = None):
        self.rules: list[tuple[str, str]] = list(rules or [])

    @classmethod
    def parse(cls, text: str) -> "GatewayPolicy":
        rules = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or parts[0] not in (PROTECT, BYPASS):
                raise PolicyParseError(f"line {lineno}: expected 'protect <prefix>' "
                                       f"or 'bypass <prefix>', got {raw.strip()!r}")
            if not parts[1].startswith("/"):
                raise PolicyParseError(f"line {lineno}: resource prefix must start with '/'")
            rules.append((parts[0], parts[1]))
        return cls(rules)

    def decision(self, resource: str) -> str:
        for kind, prefix in self.rules:
            if resource.startswith(prefix):
                return kind
        return PROTECT


class ResponseCache:
    """LRU over (method, resource); only successful GETs are stored."""

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, str], AppResponse] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, method: str, resource: str) -> Optional[AppResponse]:
        with self._lock:
            entry = self._entries.get((method, resource))
            if entry is not None:
                self._entries.move_to_end((method, resource))
            return entry

    def put(self, method: str, resource: str, response: AppResponse) -> None:
        if method != "GET" or response.status != 200:
            return
        with self._lock:
            self._entries[(method, resource)] = response
            self._entries.move_to_end((method, resource))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


def backend_connector(host: str, port: int) -> Callable[[], FrameClient]:
    """Connector for a plain TCP backend, waiting ``BACKEND_TIMEOUT`` per reply."""
    return lambda: FrameClient(host, port, timeout=BACKEND_TIMEOUT)


@dataclass
class GatewayCore:
    """Request routing shared by the plain and the protected entry points.

    Backend connections are kept alive: a connection that answered goes back
    to its backend's idle list, and the next miss reuses it unless the backend
    has closed it meanwhile.  The idle lists never hold more connections than
    the peak number of concurrent ``handle`` calls.
    """

    policy: GatewayPolicy
    cache: Optional[ResponseCache]  # None disables caching entirely
    backends: list[tuple[str, Callable[[], object]]]
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _idle: dict[Callable[[], object], list] = field(default_factory=dict, repr=False)

    def _connector(self, resource: str) -> Callable[[], object]:
        for prefix, connector in self.backends:
            if resource.startswith(prefix):
                return connector
        raise BackendUnreachable(f"no backend serves {resource!r}")

    def _reuse(self, connector: Callable[[], object]):
        """An idle connection to this backend that is still fit, or None."""
        while True:
            with self._lock:
                idle = self._idle.get(connector)
                if not idle:
                    return None
                conn = idle.pop()
            if not conn.peer_closed():
                return conn
            conn.close()

    def handle(self, request: AppRequest) -> AppResponse:
        cached = (self.cache.get(request.method, request.resource)
                  if self.cache is not None else None)
        if cached is not None:
            return AppResponse(cached.status, cached.body, SERVED_CACHE)
        try:
            connector = self._connector(request.resource)
        except BackendUnreachable as exc:
            return AppResponse(502, f"backend unreachable: {exc}".encode(), SERVED_BACKEND)
        conn = self._reuse(connector)
        while True:
            reused = conn is not None
            if not reused:
                try:
                    conn = connector()
                except (ConnectionClosed, OSError) as exc:
                    return AppResponse(502, f"backend unreachable: {exc}".encode(),
                                       SERVED_BACKEND)
            try:
                response: AppResponse = call(conn, request, codec.SchemaId.APP_RESPONSE)
                break
            except (KerbPkError, OSError) as exc:
                conn.close()
                # A reused connection may have died while idle.  Only a GET is
                # sent again, once, on a fresh connection: any other request
                # may already have reached the backend, and a timeout means a
                # slow backend, not a gone one.
                lost = (isinstance(exc, (ConnectionClosed, OSError))
                        and not isinstance(exc, TimeoutError))
                if not (reused and lost and request.method == "GET"):
                    return AppResponse(502, f"backend failed: {exc}".encode(), SERVED_BACKEND)
                conn = None
        with self._lock:
            self._idle.setdefault(connector, []).append(conn)
        if self.cache is not None:
            self.cache.put(request.method, request.resource, response)
        return response

    def close(self) -> None:
        """Close every idle backend connection."""
        with self._lock:
            idle = [conn for conns in self._idle.values() for conn in conns]
            self._idle.clear()
        for conn in idle:
            conn.close()


class ProtectedAppSession:
    """Ticket-protected app endpoint: handshake first, wrapped traffic after.

    Each connection gets its own acceptor state but shares the service-wide
    replay cache, so a replayed first leg is caught across connections.  Past
    its ticket's end plus the skew, a tunnel's wrap token gets ``TicketExpired``.
    """

    def __init__(self, key: SymmetricKey, provider: CryptoProvider, replay_cache: ReplayCache,
                 handler: Callable[[AppRequest], AppResponse]):
        self.key = key
        self.provider = provider
        self.replay_cache = replay_cache
        self.handler = handler
        self.context: Optional[SecurityContext] = None

    def feed(self, payload: bytes, now: int) -> tuple[list[bytes], bool]:
        schema = codec.schema_id_of(payload)
        if schema == codec.SchemaId.CONTEXT_TOKEN:
            acceptor = ContextAcceptor(self.key, self.provider, self.replay_cache)
            try:
                token = codec.decode(payload, codec.SchemaId.CONTEXT_TOKEN)
                reply, _ = acceptor.step(token, now)
            except KerbPkError as exc:
                return [error_reply(exc)], True
            self.context = acceptor.context
            return [codec.encode(reply)], False
        if schema == codec.SchemaId.WRAP_TOKEN:
            if self.context is None or not self.context.established:
                return [error_reply(StateError("wrap token before any handshake"))], True
            try:
                validate_times(self.context.validity, now)
                token = codec.decode(payload, codec.SchemaId.WRAP_TOKEN)
                plain = self.context.unwrap(token)
                request = codec.decode(plain, codec.SchemaId.APP_REQUEST)
                response = self.handler(request)
                wrapped = self.context.wrap(codec.encode(response))
            except KerbPkError as exc:
                return [error_reply(exc)], True
            return [codec.encode(wrapped)], False
        return [], True


def protected_endpoint(key: SymmetricKey, provider: CryptoProvider,
                       handler: Callable[[AppRequest], AppResponse] = echo_handler):
    """The session factory of one ticket-protected endpoint.  Its connections
    share one replay cache, so a first leg replayed on another connection is
    refused (RFC 4120 3.2.3)."""
    replay_cache = ReplayCache()
    return lambda: ProtectedAppSession(key, provider, replay_cache, handler)


class GatewaySession:
    """Externally facing gateway endpoint.

    Plain frames only reach bypass resources; anything the policy protects
    answers 401 unless it arrives through the wrapped tunnel, served by a
    session of ``protected_endpoint(..., handler=core.handle)``.
    """

    def __init__(self, core: GatewayCore, protected_session: ProtectedAppSession):
        self.core = core
        self._protected = protected_session

    def feed(self, payload: bytes, now: int) -> tuple[list[bytes], bool]:
        if codec.schema_id_of(payload) == codec.SchemaId.APP_REQUEST:
            try:
                request = codec.decode(payload, codec.SchemaId.APP_REQUEST)
            except KerbPkError as exc:
                return [error_reply(exc)], True
            if self.core.policy.decision(request.resource) == PROTECT:
                return [codec.encode(AppResponse(
                    401, b"resource requires an authenticated context",
                    SERVED_BACKEND))], False
            return [codec.encode(self.core.handle(request))], False
        return self._protected.feed(payload, now)


class SecureChannel:
    """Client-side established tunnel: one connection plus its context."""

    def __init__(self, conn, context: SecurityContext):
        self.conn = conn
        self.context = context

    def send(self, request: AppRequest) -> None:
        self.conn.send(codec.encode(self.context.wrap(codec.encode(request))))

    def receive(self) -> AppResponse:
        reply = decode_reply(self.conn.recv(), codec.SchemaId.WRAP_TOKEN)
        return codec.decode(self.context.unwrap(reply), codec.SchemaId.APP_RESPONSE)

    def call(self, request: AppRequest) -> AppResponse:
        self.send(request)
        return self.receive()

    def close(self) -> None:
        self.conn.close()


def open_channel(initiator: ContextInitiator, conn,
                 now_fn: Callable[[], int]) -> SecureChannel:
    """Run the two handshake legs over an open connection."""
    token, _ = initiator.step(None, now_fn())
    initiator.step(call(conn, token, codec.SchemaId.CONTEXT_TOKEN), now_fn())
    return SecureChannel(conn, initiator.context)


class GatewayClient:
    """Fetches resources through the gateway, establishing contexts on demand.

    ``connect`` opens a fresh connection to the gateway's external port;
    ``make_initiator`` builds a ContextInitiator for the gateway's service
    principal (its ticket source decides whether a TGS round trip happens).
    Failures carry the step that broke: AS, TGS, handshake, or channel.
    """

    def __init__(self, connect: Callable[[], object],
                 make_initiator: Callable[[int], ContextInitiator],
                 now_fn: Callable[[], int]):
        self.connect = connect
        self.make_initiator = make_initiator
        self.now_fn = now_fn
        self._channel: Optional[SecureChannel] = None

    def _open(self) -> SecureChannel:
        initiator = self.make_initiator(self.now_fn())
        conn = self.connect()
        try:
            return open_channel(initiator, conn, self.now_fn)
        except KerbPkError:
            conn.close()
            raise

    @staticmethod
    def _as_fetch_error(step: str, exc: KerbPkError) -> FetchError:
        # ticket sources raise FetchError themselves to pin AS/TGS failures
        return exc if isinstance(exc, FetchError) else FetchError(step, exc)

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def fetch_plain(self, resource: str, method: str = "GET",
                    body: bytes = b"") -> AppResponse:
        conn = self.connect()
        try:
            return call(conn, AppRequest(method, resource, body), codec.SchemaId.APP_RESPONSE)
        finally:
            conn.close()

    def fetch(self, resource: str, method: str = "GET", body: bytes = b"") -> AppResponse:
        request = AppRequest(method, resource, body)
        # A channel the gateway closed while it sat idle is replaced before
        # anything is sent on it.
        if self._channel is not None and self._channel.conn.peer_closed():
            self.close()
        # A failed call closes the channel, so the next pass opens a fresh one.
        # Only a GET on a reused channel is retried: any other request may
        # already have reached the backend.
        while True:
            fresh = self._channel is None
            if fresh:
                try:
                    self._channel = self._open()
                except KerbPkError as exc:
                    raise self._as_fetch_error("handshake", exc) from exc
            try:
                return self._channel.call(request)
            except KerbPkError as exc:
                self.close()
                if fresh or method != "GET":
                    raise self._as_fetch_error("channel", exc) from exc
