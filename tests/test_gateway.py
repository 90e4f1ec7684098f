"""Caching gateway: policy, LRU cache, routing, and the protected front door."""

import socket
import sys
import threading
import time

import pytest

from conftest import (NOW, RecordingEcho, gateway_endpoint, gateway_stack, initiator_factory,
                      recv_frame, service_endpoint, sim_backend)
from kerbpk import codec, gateway, messages, transport
from kerbpk.errors import (ConnectionClosed, FetchError, NoTicket, PolicyParseError,
                           ReplayDetected, Timeout, UnknownService)
from kerbpk.app import SERVED_BACKEND, SERVED_CACHE, AppRequest, AppResponse, BackendSession
from kerbpk.gateway import BYPASS, PROTECT, GatewayClient, GatewayCore, GatewayPolicy, ResponseCache
from kerbpk.messages import CLOCK_SKEW
from kerbpk.transport import (Drop, Duplicate, ErrorReply, FrameClient, ThreadedFrameServer,
                              call, send_frame)


# --------------------------------------------------------------------- policy

def test_policy_parse_and_defaults():
    policy = GatewayPolicy.parse("""\
# comment lines and blanks are fine

bypass /public
protect /public/admin
""")
    assert policy.decision("/public/index") == BYPASS
    assert policy.decision("/public/admin") == BYPASS  # first match wins
    assert policy.decision("/anything-else") == PROTECT  # default deny


def test_policy_order_matters():
    policy = GatewayPolicy.parse("protect /public/admin\nbypass /public\n")
    assert policy.decision("/public/admin") == PROTECT
    assert policy.decision("/public/other") == BYPASS


@pytest.mark.parametrize("text,lineno", [
    ("allow /x", 1),
    ("bypass", 1),
    ("bypass /a extra", 1),
    ("bypass /ok\nprotect no-slash", 2),
])
def test_policy_parse_errors(text, lineno):
    with pytest.raises(PolicyParseError, match=f"line {lineno}"):
        GatewayPolicy.parse(text)


# ---------------------------------------------------------------------- cache

def ok(body: bytes) -> AppResponse:
    return AppResponse(200, body, SERVED_BACKEND)


def test_cache_stores_only_successful_gets():
    cache = ResponseCache(4)
    cache.put("GET", "/a", ok(b"a"))
    cache.put("POST", "/b", ok(b"b"))
    cache.put("GET", "/c", AppResponse(404, b"", SERVED_BACKEND))
    assert cache.get("GET", "/a") == ok(b"a")
    assert cache.get("POST", "/b") is None
    assert cache.get("GET", "/c") is None
    assert len(cache) == 1


def test_cache_lru_eviction():
    cache = ResponseCache(2)
    cache.put("GET", "/a", ok(b"a"))
    cache.put("GET", "/b", ok(b"b"))
    cache.get("GET", "/a")  # refresh /a; /b is now the oldest
    cache.put("GET", "/c", ok(b"c"))
    assert cache.get("GET", "/b") is None
    assert cache.get("GET", "/a") is not None
    assert cache.get("GET", "/c") is not None


def test_cache_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ResponseCache(0)


# ----------------------------------------------------------------------- core

def test_core_routes_and_counts():
    echo = RecordingEcho()
    net, connector = sim_backend(lambda: BackendSession(echo))
    core = GatewayCore(GatewayPolicy(), ResponseCache(4), [("/", connector)])
    first = core.handle(AppRequest("GET", "/data", b"payload"))
    assert (first.status, first.body, first.served_from) == (200, b"payload", SERVED_BACKEND)
    second = core.handle(AppRequest("GET", "/data", b"payload"))
    assert second.served_from == SERVED_CACHE
    assert len(echo.requests) == 1


def test_core_post_bypasses_the_cache():
    echo = RecordingEcho()
    net, connector = sim_backend(lambda: BackendSession(echo))
    core = GatewayCore(GatewayPolicy(), ResponseCache(4), [("/", connector)])
    served = [core.handle(AppRequest("POST", "/data", b"x")).served_from for _ in range(2)]
    assert served == [SERVED_BACKEND, SERVED_BACKEND]
    assert len(echo.requests) == 2


def test_core_answers_502_when_nothing_listens():
    core = GatewayCore(GatewayPolicy(), ResponseCache(4), [])
    response = core.handle(AppRequest("GET", "/data", b""))
    assert response.status == 502
    assert b"backend unreachable" in response.body
    net, connector = sim_backend()
    scoped = GatewayCore(GatewayPolicy(), ResponseCache(4), [("/api", connector)])
    assert scoped.handle(AppRequest("GET", "/other", b"")).status == 502
    with socket.create_server(("127.0.0.1", 0)) as gone:
        address = gone.getsockname()
    refused = GatewayCore(GatewayPolicy(), ResponseCache(4),
                          [("/", gateway.backend_connector(*address))])
    response = refused.handle(AppRequest("GET", "/data", b""))
    assert response.status == 502
    assert response.body.startswith(b"backend unreachable")


def test_core_answers_502_when_the_backend_misbehaves():
    class Hostile:
        def feed(self, payload, now):
            return [], True  # hangs up without answering

    net, connector = sim_backend(Hostile)
    core = GatewayCore(GatewayPolicy(), ResponseCache(4), [("/", connector)])
    response = core.handle(AppRequest("GET", "/data", b""))
    assert response.status == 502
    assert b"backend failed" in response.body

    def refuse(request):
        raise UnknownService(f"nothing at {request.resource}")

    # a backend's ErrorReply reaches the 502 with its own detail
    net.register("backend", lambda: BackendSession(refuse))
    response = core.handle(AppRequest("GET", "/data", b""))
    assert (response.status, response.body) == (502, b"backend failed: nothing at /data")


# ------------------------------------------------------------------- sessions

def test_backend_session_protocol():
    session = BackendSession()
    replies, close = session.feed(codec.encode(AppRequest("GET", "/x", b"hi")), NOW)
    assert not close
    assert codec.decode(replies[0], codec.SchemaId.APP_RESPONSE).body == b"hi"
    replies, close = session.feed(b"\x7fgarbage", NOW)
    assert (replies, close) == ([], True)  # foreign schema: hang up silently


def test_backend_session_reports_handler_errors():
    def angry(request):
        raise UnknownService("nope")

    session = BackendSession(angry)
    replies, close = session.feed(codec.encode(AppRequest("GET", "/x", b"")), NOW)
    assert close
    assert codec.decode(replies[0], codec.SchemaId.ERROR_REPLY).error == "UnknownService"


def test_protected_session_rejects_wrap_before_handshake(logged_in):
    session = service_endpoint(logged_in)()
    from kerbpk.gss import WrapToken
    from kerbpk.crypto import SealedBox
    token = WrapToken(0, 1, SealedBox(b"\x00" * 40, 6))
    replies, close = session.feed(codec.encode(token), NOW)
    assert close
    assert codec.decode(replies[0], codec.SchemaId.ERROR_REPLY) == \
        ErrorReply("StateError", "wrap token before any handshake")
    # plain app requests never reach a protected endpoint
    assert session.feed(codec.encode(AppRequest("GET", "/", b"")), NOW) == ([], True)


def test_gateway_session_answers_a_malformed_plain_request_and_closes(logged_in):
    net, core, _, echo = gateway_stack(logged_in, None)
    session = gateway_endpoint(logged_in, core)()
    truncated = codec.encode(AppRequest("GET", "/public/page", b"hi"))[:-1]
    replies, close = session.feed(truncated, NOW)
    assert close
    assert codec.decode(replies[0], codec.SchemaId.ERROR_REPLY).error == "Truncated"
    assert echo.requests == []


# --------------------------------------------------------------- full gateway

def handshake_frames(net):
    count = 0
    for record in net.transcript:
        payload = record.wire[4:]
        if codec.schema_id_of(payload) == codec.SchemaId.CONTEXT_TOKEN:
            count += 1
    return count


def test_plain_fetch_of_bypass_resource(logged_in):
    net, core, client, _ = gateway_stack(logged_in)
    response = client.fetch_plain("/public/page", body=b"welcome")
    assert (response.status, response.body) == (200, b"welcome")


def test_plain_fetch_of_protected_resource_is_401(logged_in):
    net, core, client, echo = gateway_stack(logged_in)
    response = client.fetch_plain("/data/secret")
    assert response.status == 401
    assert echo.requests == []  # never even consulted the backend


def test_plain_fetch_waits_only_as_long_as_its_connection():
    # the listener completes the connect from its backlog and never answers
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = GatewayClient(lambda: FrameClient(*listener.getsockname(), timeout=0.3),
                               None, lambda: NOW)
        started = time.monotonic()
        with pytest.raises(Timeout):
            client.fetch_plain("/public/page")
        assert time.monotonic() - started < 3.0


def test_authenticated_fetch_reaches_the_backend(logged_in):
    net, core, client, echo = gateway_stack(logged_in)
    response = client.fetch("/data/report", body=b"quarterly")
    assert (response.status, response.body, response.served_from) == \
        (200, b"quarterly", SERVED_BACKEND)
    repeat = client.fetch("/data/report", body=b"quarterly")
    assert repeat.served_from == SERVED_CACHE
    assert len(echo.requests) == 1
    assert not [r for r in net.transcript
                if codec.schema_id_of(r.wire[4:]) == codec.SchemaId.ERROR_REPLY]


def test_channel_is_reused_across_fetches(logged_in):
    net, core, client, _ = gateway_stack(logged_in)
    client.fetch("/data/a")
    client.fetch("/data/b")
    assert handshake_frames(net) == 2  # one handshake: leg out, leg back


def test_client_reconnects_when_the_channel_dies(logged_in):
    net, core, client, _ = gateway_stack(logged_in)
    assert client.fetch("/data/a").status == 200
    client._channel.conn.close()  # the connection quietly goes away
    assert client.fetch("/data/b").status == 200  # retried on a fresh channel
    assert handshake_frames(net) == 4


def test_client_reconnects_when_the_gateway_resets_the_channel(logged_in):
    net, core, _, echo = gateway_stack(logged_in)
    endpoint = gateway_endpoint(logged_in, core)
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        # each connection carries the handshake and one fetch; the first is
        # then closed with the next request unread, which resets it
        for reset in (True, False):
            conn, _ = listener.accept()
            with conn:
                session = endpoint()
                for _ in range(2):
                    replies, _ = session.feed(recv_frame(conn, timeout=5.0), NOW)
                    for reply in replies:
                        send_frame(conn, reply)
                if reset:
                    conn.recv(1, socket.MSG_PEEK)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    client = GatewayClient(lambda: FrameClient(*listener.getsockname()),
                           initiator_factory(logged_in), lambda: NOW)
    try:
        assert client.fetch("/data/a", body=b"a").body == b"a"
        assert client.fetch("/data/b", body=b"b").body == b"b"  # retried once
    finally:
        client.close()
        server.join(timeout=5.0)
        listener.close()
    assert not server.is_alive()
    assert len(echo.requests) == 2


def test_client_replaces_a_channel_the_gateway_closed_while_idle(monkeypatch, logged_in):
    monkeypatch.setattr(transport, "DEFAULT_RECV_TIMEOUT", 0.3)
    echo = RecordingEcho()
    backend = ThreadedFrameServer(lambda: BackendSession(echo)).start()
    core = GatewayCore(GatewayPolicy(), None,
                       [("/", gateway.backend_connector(backend.host, backend.port))])
    server = ThreadedFrameServer(gateway_endpoint(logged_in, core),
                                 now_fn=lambda: NOW).start()
    client = GatewayClient(lambda: FrameClient(server.host, server.port),
                           initiator_factory(logged_in), lambda: NOW)
    try:
        assert client.fetch("/data/a").status == 200
        time.sleep(0.6)  # past the gateway's idle timeout: it has hung up
        response = client.fetch("/data/b", method="POST", body=b"pay once")
        assert (response.status, response.body) == (200, b"pay once")
        assert [request.method for request in echo.requests] == ["GET", "POST"]
    finally:
        client.close()
        server.stop()
        core.close()
        backend.stop()


def test_kept_channel_ends_with_its_ticket(logged_in):
    net, core, client, echo = gateway_stack(logged_in)
    first = client.fetch("/data/a")
    assert (first.status, first.served_from) == (200, SERVED_BACKEND)
    till = logged_in.agent.cache.peek_service("echo").validity.till
    net.clock.advance(till + CLOCK_SKEW + 1 - net.clock.now())
    with pytest.raises(FetchError) as info:
        client.fetch("/data/a")  # cached, but the tunnel has ended
    assert isinstance(info.value.cause, NoTicket)  # nor is there a fresh ticket to retry with
    assert len(echo.requests) == 1
    # the gateway answered the handshake and the first fetch, then only the error
    assert [codec.schema_id_of(r.wire[4:]) for r in net.transcript
            if r.direction == "s->c" and not r.internal] == \
        [codec.SchemaId.CONTEXT_TOKEN, codec.SchemaId.WRAP_TOKEN, codec.SchemaId.ERROR_REPLY]
    errors = [codec.decode(r.wire[4:], codec.SchemaId.ERROR_REPLY).error
              for r in net.transcript
              if codec.schema_id_of(r.wire[4:]) == codec.SchemaId.ERROR_REPLY]
    assert errors == ["TicketExpired"]


def test_fresh_channel_that_fails_is_not_retried(logged_in):
    net, core, client, echo = gateway_stack(logged_in)
    endpoint = gateway_endpoint(logged_in, core)

    class HangUpAfterHandshake:
        def __init__(self):
            self.session = endpoint()

        def feed(self, payload, now):
            replies, close = self.session.feed(payload, now)
            return replies, close or codec.schema_id_of(payload) == codec.SchemaId.CONTEXT_TOKEN

    net.register("gw", HangUpAfterHandshake)
    with pytest.raises(FetchError) as info:
        client.fetch("/data/a")
    assert info.value.step == "channel"
    assert isinstance(info.value.cause, ConnectionClosed)
    assert handshake_frames(net) == 2  # one handshake, no second attempt
    assert echo.requests == [] and client._channel is None


def test_lost_reply_to_a_post_on_a_reused_channel_is_not_resent(logged_in):
    net, core, client, echo = gateway_stack(logged_in)
    assert client.fetch("/data/a").status == 200
    hits, sent = len(echo.requests), len(net.transcript)
    # the POST, the backend hop out and back, then the gateway's reply: lost
    net.add_fault(Drop(sent + 4))
    with pytest.raises(FetchError) as info:
        client.fetch("/data/b", method="POST", body=b"pay once")
    assert info.value.step == "channel"
    assert isinstance(info.value.cause, Timeout)
    assert net.transcript[-1].status == "dropped"
    assert len(echo.requests) == hits + 1  # the backend saw the POST exactly once
    assert handshake_frames(net) == 2  # no second handshake
    assert client._channel is None


def test_fetch_without_a_ticket_names_the_failing_step(realm):
    net, core, client, _ = gateway_stack(realm)  # never logged in
    with pytest.raises(FetchError) as info:
        client.fetch("/data/x")
    assert info.value.step == "handshake"
    assert isinstance(info.value.cause, NoTicket)


def test_tunnel_hides_plaintext_from_the_external_wire(logged_in):
    net, core, client, _ = gateway_stack(logged_in)
    secret = b"net-position-snapshot-7731"
    response = client.fetch("/data/positions", method="POST", body=secret)
    assert response.body == secret
    internal = [r for r in net.transcript if r.internal]
    external = [r for r in net.transcript if not r.internal]
    assert any(secret in r.wire for r in internal)  # gateway-to-backend hop
    assert external and all(secret not in r.wire for r in external)


@pytest.mark.parametrize("endpoint", [
    service_endpoint,
    lambda realm: gateway_endpoint(realm, GatewayCore(GatewayPolicy(), None, [])),
], ids=["service", "gateway"])
def test_first_leg_replayed_on_a_second_tcp_connection_is_refused(logged_in, endpoint):
    server = ThreadedFrameServer(endpoint(logged_in), now_fn=lambda: NOW).start()
    first, second = (FrameClient(server.host, server.port) for _ in range(2))
    try:
        leg1, _ = initiator_factory(logged_in)(NOW).step(None, NOW)
        call(first, leg1, codec.SchemaId.CONTEXT_TOKEN)
        with pytest.raises(ReplayDetected):
            call(second, leg1, codec.SchemaId.CONTEXT_TOKEN)
    finally:
        first.close()
        second.close()
        server.stop()


def test_first_leg_replayed_after_a_flood_is_refused(monkeypatch, logged_in):
    monkeypatch.setattr(messages, "REPLAY_CAPACITY", 4)
    endpoint, initiator = service_endpoint(logged_in), initiator_factory(logged_in)
    captured, _ = initiator(NOW).step(None, NOW)
    # fresh first legs in the same second push the captured one out
    for leg1 in [captured] + [initiator(NOW).step(None, NOW)[0] for _ in range(4)]:
        replies, close = endpoint().feed(codec.encode(leg1), NOW)
        assert codec.schema_id_of(replies[0]) == codec.SchemaId.CONTEXT_TOKEN and not close
    replies, close = endpoint().feed(codec.encode(captured), NOW + 10)
    assert close
    assert codec.decode(replies[0], codec.SchemaId.ERROR_REPLY).error == "ReplayWindowLost"


def test_cache_eviction_under_capacity_pressure(logged_in):
    net, core, client, echo = gateway_stack(logged_in, 2)
    served = [client.fetch(resource).served_from for resource in ("/data/a", "/data/b", "/data/c")]
    assert len(echo.requests) == 3
    served.append(client.fetch("/data/a").served_from)  # evicted by /c: a backend trip again
    assert len(echo.requests) == 4
    served.append(client.fetch("/data/c").served_from)  # still resident
    assert len(echo.requests) == 4
    assert served == [SERVED_BACKEND] * 4 + [SERVED_CACHE]


# ------------------------------------------------------- backend keep-alive

class TcpBackend:
    """A real backend server and a connector that keeps every connection it
    makes, so a test can count them."""

    def __init__(self, session_factory, timeout):
        self.server = ThreadedFrameServer(session_factory).start()
        self.timeout = timeout
        self.made: list[FrameClient] = []

    def connect(self) -> FrameClient:
        conn = FrameClient(self.server.host, self.server.port, timeout=self.timeout)
        self.made.append(conn)
        return conn


@pytest.fixture
def tcp_backend():
    started = []

    def start(session_factory=BackendSession, timeout=5.0):
        started.append(TcpBackend(session_factory, timeout))
        return started[-1]

    yield start
    for backend in started:
        backend.server.stop()


class FailsOnSecondRequest:
    """Answers a connection's first request.  On its second it hangs up, or,
    with ``close=False``, stays silent."""

    def __init__(self, seen, close=True):
        self.seen = seen
        self.close = close
        self.answered = False

    def feed(self, payload, now):
        self.seen.append(codec.decode(payload, codec.SchemaId.APP_REQUEST).method)
        if self.answered:
            return [], self.close
        self.answered = True
        return BackendSession().feed(payload, now)


def test_misses_reuse_one_backend_connection(tcp_backend):
    echo = RecordingEcho()
    backend = tcp_backend(lambda: BackendSession(echo))
    core = GatewayCore(GatewayPolicy(), None, [("/", backend.connect)])
    try:
        for i in range(20):
            response = core.handle(AppRequest("GET", "/data", b"%d" % i))
            assert (response.status, response.body) == (200, b"%d" % i)
    finally:
        core.close()
    assert len(echo.requests) == 20
    assert len(backend.made) == 1


def test_idle_connection_closed_by_the_backend_is_not_reused(monkeypatch, tcp_backend):
    monkeypatch.setattr(transport, "DEFAULT_RECV_TIMEOUT", 0.3)
    echo = RecordingEcho()
    backend = tcp_backend(lambda: BackendSession(echo))
    core = GatewayCore(GatewayPolicy(), None, [("/", backend.connect)])
    try:
        assert core.handle(AppRequest("GET", "/data", b"")).status == 200
        time.sleep(0.6)  # past the backend's idle timeout: it has hung up
        hits = len(echo.requests)
        response = core.handle(AppRequest("POST", "/data", b"pay once"))
        assert (response.status, response.body) == (200, b"pay once")
        assert len(echo.requests) == hits + 1
        assert len(backend.made) == 2
    finally:
        core.close()


def test_only_a_get_is_retried_when_a_pooled_connection_drops(tcp_backend):
    seen = []
    backend = tcp_backend(lambda: FailsOnSecondRequest(seen))
    core = GatewayCore(GatewayPolicy(), None, [("/", backend.connect)])
    try:
        assert core.handle(AppRequest("GET", "/data", b"1")).status == 200
        response = core.handle(AppRequest("GET", "/data", b"2"))
        assert (response.status, response.body) == (200, b"2")  # once more, fresh
        assert len(backend.made) == 2
        # the fresh connection's next request is dropped in the same way
        response = core.handle(AppRequest("POST", "/data", b"pay once"))
        assert response.status == 502 and response.body.startswith(b"backend failed")
        assert len(backend.made) == 2
    finally:
        core.close()
    assert seen == ["GET", "GET", "GET", "POST"]  # the backend saw the POST once


def test_pooled_connection_that_times_out_is_not_retried(tcp_backend):
    seen = []
    backend = tcp_backend(lambda: FailsOnSecondRequest(seen, close=False), timeout=0.3)
    core = GatewayCore(GatewayPolicy(), None, [("/", backend.connect)])
    try:
        assert core.handle(AppRequest("GET", "/data", b"1")).status == 200
        response = core.handle(AppRequest("GET", "/data", b"2"))
        assert response.status == 502 and response.body.startswith(b"backend failed")
    finally:
        core.close()
    assert seen == ["GET", "GET"]
    assert len(backend.made) == 1


def test_concurrent_misses_each_get_their_own_reply(tcp_backend):
    echo = RecordingEcho()
    backend = tcp_backend(lambda: BackendSession(echo))
    core = GatewayCore(GatewayPolicy(), None, [("/", backend.connect)])
    errors = []

    def client_loop(n):
        try:
            for i in range(50):
                body = b"%d.%d" % (n, i)
                response = core.handle(AppRequest("GET", "/data", body))
                assert (response.status, response.body) == (200, body)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client_loop, args=(n,)) for n in range(8)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
        core.close()
    assert not any(thread.is_alive() for thread in clients)
    assert errors == []
    assert len(echo.requests) == 400
    # a connection is made only when every earlier one is busy
    assert 1 <= len(backend.made) <= 8


def test_close_leaves_no_backend_connection_open(tcp_backend):
    both_arrived = threading.Barrier(2, timeout=5.0)
    echo = RecordingEcho()

    def wait_for_the_other(request):
        both_arrived.wait()
        return echo(request)

    backend = tcp_backend(lambda: BackendSession(wait_for_the_other))
    core = GatewayCore(GatewayPolicy(), None, [("/", backend.connect)])
    clients = [threading.Thread(target=core.handle, args=(AppRequest("GET", "/data", b""),))
               for _ in range(2)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in clients)
    assert len(echo.requests) == 2 and len(backend.made) == 2
    core.close()
    deadline = time.monotonic() + 2.0
    while backend.server._conns and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not backend.server._conns  # the backend saw both connections end


def test_pooled_sim_connection_with_a_stray_reply_is_replaced():
    net, connector = sim_backend()
    core = GatewayCore(GatewayPolicy(), None, [("/", connector)])
    net.add_fault(Duplicate(1))  # the backend answers the first request twice
    assert core.handle(AppRequest("GET", "/a", b"first")).body == b"first"
    assert core.handle(AppRequest("POST", "/b", b"second")).body == b"second"


def test_pooled_sim_connection_the_backend_closed_is_replaced():
    class AnswerThenHangUp(BackendSession):
        def feed(self, payload, now):
            replies, _ = super().feed(payload, now)
            return replies, True

    net, connector = sim_backend(AnswerThenHangUp)
    core = GatewayCore(GatewayPolicy(), None, [("/", connector)])
    for body in (b"first", b"second"):
        response = core.handle(AppRequest("POST", "/data", body))
        assert (response.status, response.body) == (200, body)
    assert all(record.status == "delivered" for record in net.transcript)


def test_client_hears_the_502_for_a_silent_backend(monkeypatch, logged_in):
    monkeypatch.setattr(gateway, "BACKEND_TIMEOUT", 0.3)
    # the listener completes each connect from its backlog and never answers
    with socket.create_server(("127.0.0.1", 0)) as silent:
        core = GatewayCore(GatewayPolicy.parse("bypass /public\n"), ResponseCache(4),
                           [("/", gateway.backend_connector(*silent.getsockname()))])
        server = ThreadedFrameServer(gateway_endpoint(logged_in, core)).start()
        client = GatewayClient(lambda: FrameClient(server.host, server.port, timeout=1.0),
                               None, lambda: NOW)
        try:
            for _ in range(3):
                response = client.fetch_plain("/public/page")
                assert response.status == 502
                assert response.body.startswith(b"backend failed")
        finally:
            server.stop()
            core.close()
