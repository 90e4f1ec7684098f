"""Framing, the lockstep network simulator, and the threaded socket server."""

import socket
import struct
import sys
import threading
import time

import pytest

from conftest import recv_frame
from kerbpk import codec, transport
from kerbpk.errors import (ConnectionClosed, FrameError, FrameTooLarge,
                           ScenarioParseError, Timeout)
from kerbpk.messages import ErrorReply
from kerbpk.transport import (MAX_FRAME, SIM_CLOCK_START, Delay, Drop,
                              Duplicate, FlipBit, FrameClient, SimClock,
                              SimNetwork, Swap, ThreadedFrameServer,
                              pack_frame, parse_fault, unpack_frame)


class EchoSession:
    """Replies to every frame and stays open, unless told to close."""

    def feed(self, payload, now):
        if payload == b"please-close":
            return [b"bye"], True
        return [b"echo:" + payload], False


def simnet(*faults):
    net = SimNetwork(SimClock(), tuple(faults))
    net.register("svc", EchoSession)
    return net


# -------------------------------------------------------------------- framing

def test_frame_roundtrip():
    assert unpack_frame(pack_frame(b"payload")) == b"payload"
    assert unpack_frame(pack_frame(b"")) == b""


def test_frame_size_limit():
    pack_frame(b"x" * MAX_FRAME)  # at the limit: fine
    with pytest.raises(FrameTooLarge):
        pack_frame(b"x" * (MAX_FRAME + 1))
    with pytest.raises(FrameTooLarge):
        unpack_frame(struct.pack(">I", MAX_FRAME + 1))  # claimed, not carried


def test_frame_header_mismatches():
    with pytest.raises(FrameError):
        unpack_frame(b"\x00\x00")  # shorter than the header itself
    with pytest.raises(FrameError):
        unpack_frame(struct.pack(">I", 3) + b"ab")  # claims 3, carries 2
    with pytest.raises(FrameError):
        unpack_frame(struct.pack(">I", 1) + b"ab")  # claims 1, carries 2


def test_sim_clock():
    clock = SimClock()
    assert clock.now() == SIM_CLOCK_START
    assert clock.advance(5) == SIM_CLOCK_START + 5
    assert clock.advance(0) == SIM_CLOCK_START + 5
    with pytest.raises(ValueError):
        clock.advance(-1)


# ------------------------------------------------------------- fault grammar

def test_parse_fault_forms():
    assert parse_fault(["drop", "5"]) == Drop(5)
    assert parse_fault(["dup", "3"]) == Duplicate(3)
    assert parse_fault(["swap", "7", "8"]) == Swap(7, 8)
    assert parse_fault(["flip", "2", "10", "3"]) == FlipBit(2, 10, 3)
    assert parse_fault(["delay", "2", "10"]) == Delay(2, 10)


@pytest.mark.parametrize("tokens", [
    [], ["jitter", "1"], ["drop"], ["drop", "x"], ["drop", "-1"],
    ["swap", "1"], ["drop", "1", "2"], ["flip", "1", "2"],
])
def test_parse_fault_rejects_bad_specs(tokens):
    with pytest.raises(ScenarioParseError):
        parse_fault(tokens)


# ------------------------------------------------------------------ simulator

def test_sim_request_reply_transcript():
    net = simnet()
    conn = net.connect("svc", "client/svc")
    conn.send(b"hi")
    assert conn.recv() == b"echo:hi"
    first, second = net.transcript
    assert (first.index, first.direction, first.status) == (1, "c->s", "delivered")
    assert (second.index, second.direction, second.status) == (2, "s->c", "delivered")
    assert first.channel == "client/svc"
    assert unpack_frame(first.wire) == b"hi"


def test_sim_connect_requires_a_listener():
    with pytest.raises(ConnectionClosed):
        simnet().connect("nowhere", "c")


def test_sim_sessions_are_per_connection():
    built = []
    net = SimNetwork(SimClock())
    net.register("svc", lambda: built.append(1) or EchoSession())
    net.connect("svc", "a")
    net.connect("svc", "b")
    assert len(built) == 2


def test_sim_session_close_ends_the_connection():
    net = simnet()
    conn = net.connect("svc", "c")
    conn.send(b"please-close")
    assert conn.recv() == b"bye"
    conn.send(b"again")  # lands on a closed server side
    with pytest.raises(ConnectionClosed):
        conn.recv()
    assert net.transcript[-1].status == "stale"


def test_sim_send_after_client_close():
    net = simnet()
    conn = net.connect("svc", "c")
    conn.close()
    with pytest.raises(ConnectionClosed):
        conn.send(b"late")
    with pytest.raises(ConnectionClosed):
        conn.recv()


def test_sim_rejects_what_is_not_a_fault():
    with pytest.raises(TypeError, match="not a fault"):
        simnet("drop 3")


def test_drop_yields_timeout_and_burns_the_wait():
    net = simnet(Drop(1))
    conn = net.connect("svc", "c")
    conn.send(b"hi")
    with pytest.raises(Timeout):
        conn.recv(timeout=30)
    assert net.clock.now() == SIM_CLOCK_START + 30  # waited the full budget
    assert net.transcript[0].status == "dropped"


def test_drop_of_the_reply():
    net = simnet(Drop(2))
    conn = net.connect("svc", "c")
    conn.send(b"hi")
    with pytest.raises(Timeout):
        conn.recv(timeout=5)
    dropped = [r for r in net.transcript if r.status == "dropped"]
    assert [(r.index, r.direction) for r in dropped] == [(2, "s->c")]


def test_duplicate_request_is_answered_twice():
    net = simnet(Duplicate(1))
    conn = net.connect("svc", "c")
    conn.send(b"hi")
    assert conn.recv() == b"echo:hi"
    assert conn.recv() == b"echo:hi"
    statuses = [(r.index, r.status) for r in net.transcript]
    assert (1, "duplicate") in statuses  # the copy keeps the original's index
    assert len([s for i, s in statuses if s == "delivered"]) == 3


def test_swap_inverts_delivery_order():
    net = simnet(Swap(1, 2))
    conn = net.connect("svc", "c")
    conn.send(b"first")
    conn.send(b"second")
    assert conn.recv() == b"echo:second"
    assert conn.recv() == b"echo:first"
    held = [r for r in net.transcript if r.status == "held"]
    assert [(r.index, r.note == "") for r in held] == [(1, True)]
    releases = [r for r in net.transcript if r.note == "released after swap"]
    assert [r.index for r in releases] == [1]


def test_flipped_length_header_is_a_frame_error():
    net = simnet(FlipBit(1, 3, 0))  # low bit of the length word
    conn = net.connect("svc", "c")
    conn.send(b"hi")
    err = codec.decode(conn.recv(), codec.SchemaId.ERROR_REPLY)
    assert err.error == "FrameError"
    with pytest.raises(ConnectionClosed):
        conn.recv()  # one report, then the server hangs up


def test_flipped_high_length_bit_is_too_large():
    net = simnet(FlipBit(1, 0, 0))
    conn = net.connect("svc", "c")
    conn.send(b"hi")
    err = codec.decode(conn.recv(), codec.SchemaId.ERROR_REPLY)
    assert err.error == "FrameTooLarge"


def test_flip_beyond_the_wire_image_is_harmless():
    net = simnet(FlipBit(1, 5000, 0))
    conn = net.connect("svc", "c")
    conn.send(b"hi")
    assert conn.recv() == b"echo:hi"


def test_delay_within_the_timeout_advances_the_clock():
    net = simnet(Delay(2, 10))
    conn = net.connect("svc", "c")
    conn.send(b"hi")
    assert conn.recv(timeout=30) == b"echo:hi"
    assert net.clock.now() == SIM_CLOCK_START + 10  # only as far as needed


def test_delay_beyond_the_timeout_then_recovered():
    net = simnet(Delay(2, 50))
    conn = net.connect("svc", "c")
    conn.send(b"hi")
    with pytest.raises(Timeout):
        conn.recv(timeout=30)
    assert conn.recv(timeout=30) == b"echo:hi"  # still scheduled, arrives later


# ------------------------------------------------------------------- sockets

@pytest.fixture
def tcp_server():
    server = ThreadedFrameServer(EchoSession).start()
    yield server
    server.stop()


def test_tcp_request_reply(tcp_server):
    client = FrameClient(tcp_server.host, tcp_server.port)
    try:
        client.send(b"over tcp")
        assert client.recv() == b"echo:over tcp"
        client.send(b"again")
        assert client.recv() == b"echo:again"
    finally:
        client.close()


def test_tcp_recv_timeout(tcp_server):
    client = FrameClient(tcp_server.host, tcp_server.port)
    try:
        with pytest.raises(Timeout):
            client.recv(timeout=0.2)
    finally:
        client.close()


def test_tcp_session_close(tcp_server):
    client = FrameClient(tcp_server.host, tcp_server.port)
    try:
        client.send(b"please-close")
        assert client.recv() == b"bye"
        with pytest.raises(ConnectionClosed):
            client.recv(timeout=1.0)
    finally:
        client.close()


def test_tcp_mangled_frame_gets_an_error_report(tcp_server):
    sock = socket.create_connection((tcp_server.host, tcp_server.port), timeout=2.0)
    try:
        sock.sendall(struct.pack(">I", MAX_FRAME + 1))  # absurd length claim
        err = codec.decode(recv_frame(sock, timeout=2.0), codec.SchemaId.ERROR_REPLY)
        assert err.error == "FrameTooLarge"
    finally:
        sock.close()


def test_tcp_oversize_send_fails_client_side(tcp_server):
    client = FrameClient(tcp_server.host, tcp_server.port)
    try:
        with pytest.raises(FrameTooLarge):
            client.send(b"x" * (MAX_FRAME + 1))
    finally:
        client.close()


PAUSE, CLOSE = "pause", "close"


@pytest.mark.parametrize("writes,expected", [
    ([pack_frame(b"one") + pack_frame(b"two")], [b"one", b"two"]),
    ([pack_frame(b"split")[:2], PAUSE, pack_frame(b"split")[2:]], [b"split"]),
    ([struct.pack(">I", MAX_FRAME + 1)],
     FrameTooLarge(f"frame header claims {MAX_FRAME + 1} bytes")),
    ([pack_frame(b"half a frame")[:9], CLOSE],
     ConnectionClosed("peer closed the connection mid-frame")),
], ids=["two-frames-one-write", "split-header", "oversize-header", "close-mid-frame"])
def test_client_cuts_frames_from_raw_writes(writes, expected):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = FrameClient(*listener.getsockname(), timeout=2.0)
        conn, _ = listener.accept()

        def write():
            for item in writes:
                if item == PAUSE:
                    time.sleep(0.2)  # the client reads the first part alone
                elif item == CLOSE:
                    conn.close()
                else:
                    conn.sendall(item)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            if isinstance(expected, Exception):
                with pytest.raises(type(expected), match=str(expected)):
                    client.recv()
            else:
                assert [client.recv() for _ in expected] == expected
        finally:
            writer.join(timeout=5.0)
            client.close()
            conn.close()
        assert not writer.is_alive()


def test_client_sees_a_reset_as_connection_closed():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        for first in ("recv", "send"):
            client = FrameClient(*listener.getsockname())
            conn, _ = listener.accept()
            try:
                client.send(b"left unread")
                conn.recv(1, socket.MSG_PEEK)  # the request has arrived...
                conn.close()  # ...so closing over it resets the connection
                with pytest.raises(ConnectionClosed):
                    if first == "recv":
                        client.recv(timeout=2.0)
                    for _ in range(100):  # until the reset has come back
                        client.send(b"late")
                        time.sleep(0.01)
            finally:
                client.close()


@pytest.mark.parametrize("peer_does,unfit", [
    (lambda conn, client: None, False),
    (lambda conn, client: conn.sendall(b"\x00"), True),  # a byte nobody asked for
    (lambda conn, client: conn.close(), True),
    # a second reply waits in the client's buffer
    (lambda conn, client: (conn.sendall(pack_frame(b"one") + pack_frame(b"two")),
                           client.recv()), True),
])
def test_client_sees_whether_an_idle_connection_is_fit_for_reuse(peer_does, unfit):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = FrameClient(*listener.getsockname())
        conn, _ = listener.accept()
        try:
            peer_does(conn, client)
            time.sleep(0.05)
            deadline = time.monotonic() + 2.0
            while client.peer_closed() != unfit and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.peer_closed() == unfit
        finally:
            client.close()
            conn.close()


def test_sim_connection_sees_whether_it_is_fit_for_reuse():
    net = simnet()
    conn = net.connect("svc", "c")
    conn.send(b"hi")
    assert conn.recv() == b"echo:hi" and not conn.peer_closed()
    net.add_fault(Duplicate(3))
    conn.send(b"twice")
    assert conn.recv() == b"echo:twice" and conn.peer_closed()  # one more waits
    closing = net.connect("svc", "d")
    closing.send(b"please-close")
    assert closing.recv() == b"bye" and closing.peer_closed()


# -------------------------------------------------------------- server bounds

@pytest.fixture
def short_idle(monkeypatch):
    monkeypatch.setattr(transport, "DEFAULT_RECV_TIMEOUT", 0.5)


def read_to_end(sock):
    """Everything the server sends until it closes."""
    data = b""
    try:
        while chunk := sock.recv(4096):
            data += chunk
    except ConnectionResetError:
        pass
    return data


def test_tcp_frame_split_by_a_short_stall_comes_back_whole(short_idle, tcp_server):
    wire = pack_frame(b"split frame")
    with socket.create_connection((tcp_server.host, tcp_server.port), timeout=2.0) as sock:
        sock.sendall(wire[:6])
        time.sleep(0.25)
        sock.sendall(wire[6:])
        assert recv_frame(sock) == b"echo:split frame"


def test_tcp_stall_past_the_idle_timeout_closes_without_a_reply(short_idle, tcp_server):
    wire = pack_frame(b"split frame")
    with socket.create_connection((tcp_server.host, tcp_server.port), timeout=3.0) as sock:
        sock.sendall(wire[:6])
        time.sleep(1.0)
        try:
            sock.sendall(wire[6:])  # the tail must not be read as a new header
        except OSError:
            pass
        assert read_to_end(sock) == b""


def test_tcp_sequential_connections_reuse_workers(tcp_server):
    before = threading.active_count()
    for i in range(200):
        client = FrameClient(tcp_server.host, tcp_server.port)
        try:
            client.send(b"%d" % i)
            assert client.recv() == b"echo:%d" % i
        finally:
            client.close()
    assert threading.active_count() <= before + 4


def test_tcp_concurrent_clients_keep_the_pool_consistent(tcp_server):
    errors = []

    def client_loop(n):
        try:
            for i in range(25):
                client = FrameClient(tcp_server.host, tcp_server.port)
                try:
                    client.send(b"%d.%d" % (n, i))
                    assert client.recv() == b"echo:%d.%d" % (n, i)
                finally:
                    client.close()
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
    assert not any(thread.is_alive() for thread in clients)
    assert errors == []
    # once the last connections wind down, every worker is idle again; a lost
    # update to the idle count would show here
    deadline = time.monotonic() + 2.0
    while (tcp_server._idle != len(tcp_server._workers)
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert tcp_server._idle == len(tcp_server._workers) <= transport.MAX_CONNECTIONS


def test_tcp_connections_past_the_cap_wait_for_a_free_worker(monkeypatch):
    monkeypatch.setattr(transport, "MAX_CONNECTIONS", 2)
    server = ThreadedFrameServer(EchoSession).start()
    clients = []
    try:
        for name in (b"a", b"b", b"c"):
            client = FrameClient(server.host, server.port)
            clients.append(client)
            client.send(name)
        assert [c.recv() for c in clients[:2]] == [b"echo:a", b"echo:b"]
        with pytest.raises(Timeout):
            clients[2].recv(timeout=0.3)
        clients[0].close()
        assert clients[2].recv(timeout=2.0) == b"echo:c"
    finally:
        for client in clients:
            client.close()
        server.stop()


def test_tcp_trickling_peer_is_closed_at_the_frame_deadline(monkeypatch):
    monkeypatch.setattr(transport, "MAX_CONNECTIONS", 1)
    monkeypatch.setattr(transport, "FRAME_DEADLINE", 0.5)
    server = ThreadedFrameServer(EchoSession).start()
    slow = socket.create_connection((server.host, server.port), timeout=5.0)
    stop = threading.Event()

    def trickle():
        # one byte every 50 ms: no read waits long, but the frame never ends
        try:
            for byte in pack_frame(b"x" * 1000):
                if stop.is_set():
                    return
                slow.sendall(bytes([byte]))
                time.sleep(0.05)
        except OSError:
            pass  # the server has closed the connection

    started = time.monotonic()
    trickler = threading.Thread(target=trickle)
    trickler.start()
    client = FrameClient(server.host, server.port)  # waits behind the trickler
    try:
        client.send(b"prompt")
        assert read_to_end(slow) == b""
        assert 0.4 < time.monotonic() - started < 2.0
        assert client.recv(timeout=2.0) == b"echo:prompt"
    finally:
        stop.set()
        trickler.join(timeout=5.0)
        client.close()
        slow.close()
        server.stop()
    assert not trickler.is_alive()


def test_tcp_partial_frame_past_its_deadline_is_closed_at_once(monkeypatch, tcp_server):
    monkeypatch.setattr(transport, "FRAME_DEADLINE", 0)
    with socket.create_connection((tcp_server.host, tcp_server.port), timeout=3.0) as sock:
        sock.sendall(pack_frame(b"late")[:3])
        started = time.monotonic()
        assert read_to_end(sock) == b""
        assert time.monotonic() - started < 1.0  # not the 30-s idle timeout
    client = FrameClient(tcp_server.host, tcp_server.port)
    try:
        client.send(b"next")
        assert client.recv(timeout=2.0) == b"echo:next"
    finally:
        client.close()


class CrashOnRequest(EchoSession):
    """Echoes, but fails as a bug would on ``b"crash"``."""

    def feed(self, payload, now):
        if payload == b"crash":
            raise RuntimeError("session bug")
        return super().feed(payload, now)


def wait_until_idle(server):
    deadline = time.monotonic() + 2.0
    while server._idle != len(server._workers) and time.monotonic() < deadline:
        time.sleep(0.01)
    return server._idle == len(server._workers)


def close_with_reset(sock):
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def test_tcp_crashing_session_costs_only_its_connection(capsys):
    server = ThreadedFrameServer(CrashOnRequest).start()
    try:
        with socket.create_connection((server.host, server.port), timeout=3.0) as sock:
            sock.sendall(pack_frame(b"crash"))
            assert read_to_end(sock) == b""
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: session bug" in err
        client = FrameClient(server.host, server.port)
        try:
            client.send(b"after")
            assert client.recv(timeout=2.0) == b"echo:after"
        finally:
            client.close()
        assert wait_until_idle(server)
    finally:
        server.stop()


def test_tcp_peer_that_resets_before_its_reply_costs_only_its_connection(capsys):
    entered, release = threading.Event(), threading.Event()

    class SlowEcho(EchoSession):
        def feed(self, payload, now):
            if payload == b"slow":
                entered.set()
                release.wait(5.0)
            return super().feed(payload, now)

    server = ThreadedFrameServer(SlowEcho).start()
    try:
        sock = socket.create_connection((server.host, server.port), timeout=3.0)
        sock.sendall(pack_frame(b"slow"))
        assert entered.wait(5.0)
        close_with_reset(sock)  # so the reply's send fails
        release.set()
        assert wait_until_idle(server)
        client = FrameClient(server.host, server.port)
        try:
            client.send(b"after")
            assert client.recv(timeout=2.0) == b"echo:after"
        finally:
            client.close()
        assert capsys.readouterr().err == ""  # an expected loss, not a crash
    finally:
        release.set()
        server.stop()


def test_tcp_stop_survives_a_connection_the_peer_already_reset():
    entered = threading.Event()

    class Stalls(EchoSession):
        def feed(self, payload, now):
            entered.set()
            time.sleep(0.3)  # the peer resets and stop() begins meanwhile
            return super().feed(payload, now)

    server = ThreadedFrameServer(Stalls).start()
    sock = socket.create_connection((server.host, server.port), timeout=3.0)
    sock.sendall(pack_frame(b"hi"))
    assert entered.wait(5.0)
    close_with_reset(sock)
    server.stop()  # shutting down the reset connection fails; stop goes on
    assert not any(worker.is_alive() for worker in server._workers)


def test_tcp_stop_closes_idle_connections_promptly():
    before = threading.active_count()
    server = ThreadedFrameServer(EchoSession).start()
    client = FrameClient(server.host, server.port)
    try:
        client.send(b"hi")
        assert client.recv() == b"echo:hi"
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 1.0
        with pytest.raises(ConnectionClosed):
            client.recv(timeout=1.0)
        assert threading.active_count() <= before
    finally:
        client.close()
