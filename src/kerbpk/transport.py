"""Framing and the two transports: real TCP sockets and a deterministic
in-process network simulator.

Every message travels as a frame: a 4-byte big-endian length, then that many
payload bytes (at most 1 MiB).  Both transports carry a byte stream, and every
connection end cuts frames from its own buffer with ``take_frame``, so a bad
length header fails alike on both.  The simulator numbers frames globally in
transmission order (the first of a run is 1) and keeps one table of faults by
frame index, acting on frames as sent: every single-bit flip over the wire
image (header included) applies, then the first present of drop, swap, delay
(in clock ticks) and duplicate, where the last added of each kind counts.

Time in the simulator is a logical tick counter shared by every endpoint, so
runs are reproducible; the TCP server, a bounded set of reused worker threads,
uses the real clock and keeps the same session interface.  A session object
consumes one request payload at a time via ``feed(payload, now) -> (replies,
close)``; both transports reach it through ``serve_frame``, and a client makes
each request/reply step with ``call``.

A failure travels as the error frame, an ErrorReply naming the error class:
``error_reply`` builds one and ``check_reply`` raises the error it names.
This module needs only ``codec`` and ``errors``, so a plain server loads no
crypto and no ticket layer.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union, get_args

from . import codec
from .errors import (
    ConnectionClosed,
    FrameTooLarge,
    KerbPkError,
    ScenarioParseError,
    Timeout,
    raise_by_name,
)

MAX_FRAME = 1 << 20
DEFAULT_RECV_TIMEOUT = 30   # also the TCP server's idle timeout, in seconds
FRAME_DEADLINE = 10         # seconds the TCP server waits from a frame's first byte to its last
MAX_CONNECTIONS = 64        # TCP server workers, and its listen backlog
SIM_CLOCK_START = 1_000_000

_RECV_CHUNK = 1 << 16

_LEN = struct.Struct(">I")


def pack_frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME:
        raise FrameTooLarge(f"payload of {len(payload)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(payload)) + payload


def take_frame(buf: bytearray) -> Optional[bytes]:
    """Cut the next frame's payload off the front of ``buf``; None while the
    frame is incomplete, leaving ``buf`` as it was.  A header that claims more
    than MAX_FRAME raises FrameTooLarge."""
    if len(buf) < _LEN.size:
        return None
    (length,) = _LEN.unpack_from(buf)
    if length > MAX_FRAME:
        raise FrameTooLarge(f"frame header claims {length} bytes")
    end = _LEN.size + length
    if len(buf) < end:
        return None
    payload = bytes(buf[_LEN.size:end])
    del buf[:end]
    return payload


@codec.structure(codec.SchemaId.ERROR_REPLY)
@dataclass(frozen=True)
class ErrorReply:
    error: str
    detail: str


def error_reply(exc: KerbPkError) -> bytes:
    """The encoded ErrorReply that reports ``exc`` to the peer."""
    return codec.encode(ErrorReply(exc.name, str(exc)))


def check_reply(payload: bytes) -> bytes:
    """``payload`` itself, unless it is an ErrorReply: then the error it names raises."""
    if codec.schema_id_of(payload) == codec.SchemaId.ERROR_REPLY:
        err: ErrorReply = codec.decode(payload, codec.SchemaId.ERROR_REPLY)
        raise_by_name(err.error, err.detail)
    return payload


def serve_frame(session, buf: bytearray, now: int) -> Optional[tuple[list[bytes], bool]]:
    """Feed the next frame in a connection's receive buffer to its server
    session: ``(replies, close)``, or None while the frame is incomplete.

    A header over MAX_FRAME never reaches the session; it gets one
    ErrorReply, and then the connection closes.
    """
    try:
        payload = take_frame(buf)
    except FrameTooLarge as exc:
        return [error_reply(exc)], True
    return None if payload is None else session.feed(payload, now)


def call(conn, request, expected: codec.SchemaId):
    """One client step: send ``request``, then decode the reply as
    ``expected``; a transported ErrorReply raises its named error."""
    conn.send(codec.encode(request))
    return codec.decode(check_reply(conn.recv()), expected)


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(pack_frame(payload))


class SimClock:
    """Logical tick counter; never moves unless something advances it."""

    def __init__(self):
        self._now = SIM_CLOCK_START

    def now(self) -> int:
        return self._now

    def advance(self, ticks: int) -> int:
        if ticks < 0:
            raise ValueError("clock only moves forward")
        self._now += ticks
        return self._now


# ---------------------------------------------------------------------------
# fault descriptions


@dataclass(frozen=True)
class Drop:
    frame: int


@dataclass(frozen=True)
class Duplicate:
    frame: int


@dataclass(frozen=True)
class Swap:
    first: int
    second: int


@dataclass(frozen=True)
class FlipBit:
    frame: int
    byte: int
    bit: int


@dataclass(frozen=True)
class Delay:
    frame: int
    ticks: int


Fault = Union[Drop, Duplicate, Swap, FlipBit, Delay]


def is_count(token: str) -> bool:
    """Whether a scenario number is ASCII digits only: no sign, underscore or other script."""
    return token.isascii() and token.isdigit()


def parse_fault(tokens: list[str]) -> Fault:
    """Parse the word list after the ``fault`` keyword of a scenario line."""
    def arg(i: int, what: str) -> int:
        if i >= len(tokens) or not is_count(tokens[i]):
            raise ScenarioParseError(f"fault {tokens[0]}: expected {what} as a count")
        return int(tokens[i])

    if not tokens:
        raise ScenarioParseError("empty fault specification")
    kind, extra = tokens[0], None
    if kind == "drop":
        fault, extra = Drop(arg(1, "frame")), 2
    elif kind == "dup":
        fault, extra = Duplicate(arg(1, "frame")), 2
    elif kind == "swap":
        fault, extra = Swap(arg(1, "first frame"), arg(2, "second frame")), 3
    elif kind == "flip":
        fault, extra = FlipBit(arg(1, "frame"), arg(2, "byte"), arg(3, "bit")), 4
        if fault.bit > 7:
            raise ScenarioParseError(f"fault flip: bit must be 0..7, got {fault.bit}")
    elif kind == "delay":
        fault, extra = Delay(arg(1, "frame"), arg(2, "ticks")), 3
    else:
        raise ScenarioParseError(f"unknown fault kind {kind!r}")
    if len(tokens) != extra:
        raise ScenarioParseError(f"fault {kind}: trailing arguments {tokens[extra:]}")
    return fault


@dataclass
class FrameRecord:
    """One transmission in the simulator's transcript."""
    index: int
    channel: str
    internal: bool
    direction: str          # "c->s" or "s->c"
    wire: bytes             # image as (possibly) corrupted by faults
    tick: int
    status: str             # delivered | dropped | held | duplicate | stale
    note: str = ""


class SimConnection:
    """Client end of one simulated connection."""

    def __init__(self, network: "SimNetwork", channel: str, internal: bool, session):
        self.network = network
        self.channel = channel
        self.internal = internal
        self.session = session
        self.inbox = bytearray()            # bytes the client has yet to read
        self.server_inbox = bytearray()     # bytes the session has yet to read
        self.server_closed = False
        self.client_closed = False

    def send(self, payload: bytes) -> None:
        if self.client_closed:
            raise ConnectionClosed("connection already closed by this side")
        self.network._transmit(self, "c->s", pack_frame(payload))

    def recv(self) -> bytes:
        if self.client_closed:
            raise ConnectionClosed("connection already closed by this side")
        return self.network._await_frame(self, DEFAULT_RECV_TIMEOUT)

    def peer_closed(self) -> bool:
        """True when this idle connection is unfit for reuse: the server side
        closed it, or bytes nobody asked for wait in the inbox."""
        return self.server_closed or bool(self.inbox)

    def close(self) -> None:
        self.client_closed = True
        self.network._forget(self)


class SimNetwork:
    """Deterministic lockstep switch between client steps and server sessions.

    ``connect`` instantiates a fresh session from the factory registered for
    the address, mirroring a new TCP connection.  Sends run the
    whole request/reply cycle synchronously unless a fault holds a frame back.
    """

    def __init__(self, clock: SimClock, faults: tuple[Fault, ...] = ()):
        self.clock = clock
        self.transcript: list[FrameRecord] = []
        self._factories: dict[str, Callable[[], object]] = {}
        self._counter = 0
        self._faults: dict[int, list[Fault]] = {}   # frame index -> faults, a Swap at its first
        self._held: dict[int, tuple] = {}       # trigger -> (record, conn)
        self._pending: list[tuple[int, FrameRecord, SimConnection]] = []
        for fault in faults:
            self.add_fault(fault)

    def add_fault(self, fault: Fault) -> None:
        if not isinstance(fault, get_args(Fault)):
            raise TypeError(f"not a fault: {fault!r}")
        frame = fault.first if isinstance(fault, Swap) else fault.frame
        self._faults.setdefault(frame, []).append(fault)

    def register(self, address: str, factory: Callable[[], object]) -> None:
        self._factories[address] = factory

    def connect(self, address: str, channel: str, internal: bool = False) -> SimConnection:
        try:
            factory = self._factories[address]
        except KeyError:
            raise ConnectionClosed(f"nothing listens at {address!r}") from None
        return SimConnection(self, channel, internal, factory())

    # -- internals ----------------------------------------------------------

    def _transmit(self, conn: SimConnection, direction: str, wire: bytes) -> None:
        self._counter += 1
        index = self._counter
        record = FrameRecord(index, conn.channel, conn.internal, direction,
                             wire, self.clock.now(), "delivered")
        kinds: dict[type, Fault] = {}
        for fault in self._faults.get(index, ()):
            kinds[type(fault)] = fault
            if isinstance(fault, FlipBit) and fault.byte < len(wire):
                mutated = bytearray(wire)
                mutated[fault.byte] ^= 1 << (fault.bit & 7)
                wire = bytes(mutated)
                record.wire = wire
                record.note = f"flipped byte {fault.byte} bit {fault.bit & 7}"
        if Drop in kinds:
            record.status = "dropped"
            self.transcript.append(record)
            self._release_if_triggered(index)
            return
        if Swap in kinds:
            record.status = "held"
            self.transcript.append(record)
            self._held[kinds[Swap].second] = (record, conn)
            return
        if Delay in kinds:
            ready = self.clock.now() + kinds[Delay].ticks
            record.note = (record.note + " " if record.note else "") + f"delayed to tick {ready}"
            self.transcript.append(record)
            self._pending.append((ready, record, conn))
            self._release_if_triggered(index)
            return
        self.transcript.append(record)
        self._deliver(record, conn)
        if Duplicate in kinds:
            copy = replace(record, tick=self.clock.now(), status="duplicate", note="replayed copy")
            self.transcript.append(copy)
            self._deliver(copy, conn)
        self._release_if_triggered(index)

    def _release_if_triggered(self, index: int) -> None:
        held = self._held.pop(index, None)
        if held is not None:
            record, conn = held
            release = replace(record, tick=self.clock.now(), status="delivered",
                              note="released after swap")
            self.transcript.append(release)
            self._deliver(release, conn)

    def _deliver(self, record: FrameRecord, conn: SimConnection) -> None:
        if record.direction == "s->c":
            conn.inbox += record.wire
            return
        if conn.server_closed:
            record.status = "stale"
            record.note = (record.note + " " if record.note else "") + "server side closed"
            return
        conn.server_inbox += record.wire
        while not conn.server_closed:
            served = serve_frame(conn.session, conn.server_inbox, self.clock.now())
            if served is None:
                return
            # a frame released while the last replies go out finds the server closed
            replies, conn.server_closed = served
            for reply in replies:
                self._transmit(conn, "s->c", pack_frame(reply))

    def _pump(self) -> None:
        now = self.clock.now()
        due = [item for item in self._pending if item[0] <= now]
        if not due:
            return
        self._pending = [item for item in self._pending if item[0] > now]
        for _, record, conn in sorted(due, key=lambda item: (item[0], item[1].index)):
            release = replace(record, tick=now, status="delivered", note="released after delay")
            self.transcript.append(release)
            self._deliver(release, conn)

    def _await_frame(self, conn: SimConnection, timeout: int) -> bytes:
        deadline = self.clock.now() + timeout
        while True:
            self._pump()
            if (payload := take_frame(conn.inbox)) is not None:
                return payload
            if conn.server_closed:
                raise ConnectionClosed("server side closed the connection")
            upcoming = [ready for ready, *_ in self._pending if ready <= deadline]
            if not upcoming:
                self.clock.advance(max(0, deadline - self.clock.now()))
                raise Timeout(f"no frame within {timeout} ticks")
            self.clock.advance(min(upcoming) - self.clock.now())

    def _forget(self, conn: SimConnection) -> None:
        self._pending = [item for item in self._pending if item[2] is not conn]


class ThreadedFrameServer:
    """Real-socket counterpart of SimNetwork: reused worker threads, same sessions.

    Workers share the listening socket and block in ``accept`` with no
    timeout; Linux wakes one waiter per connection.  A worker serves its
    connection to the end from a receive buffer it owns, then accepts again.
    The worker that takes the last idle slot starts one more, so the pool
    grows to the peak number of concurrent connections, at most
    ``MAX_CONNECTIONS``; later connections wait in the listen backlog.  A
    connection that sends nothing for ``DEFAULT_RECV_TIMEOUT`` seconds is
    closed, and so is one that takes longer than ``FRAME_DEADLINE`` seconds
    from a frame's first byte to its last, so a peer that trickles bytes
    cannot keep a worker.  A partial frame stays in the buffer across reads,
    so a slow peer cannot desynchronise the framing.
    """

    def __init__(self, session_factory: Callable[[], object],
                 now_fn: Callable[[], int] = lambda: int(time.time()),
                 host: str = "127.0.0.1", port: int = 0):
        self.session_factory = session_factory
        self.now_fn = now_fn
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(MAX_CONNECTIONS)
        self.host, self.port = self._sock.getsockname()
        self._lock = threading.Lock()   # guards the four fields below
        self._workers: list[threading.Thread] = []
        self._idle = 0
        self._conns: set[socket.socket] = set()
        self._stopping = False

    def start(self) -> "ThreadedFrameServer":
        with self._lock:
            self._add_worker()
        return self

    def _add_worker(self) -> None:
        # the caller holds self._lock
        worker = threading.Thread(target=self._work, daemon=True)
        self._workers.append(worker)
        self._idle += 1
        worker.start()

    def _work(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # stop() shut the listening socket down
            with self._lock:
                if self._stopping:
                    conn.close()
                    return
                self._idle -= 1
                if self._idle == 0 and len(self._workers) < MAX_CONNECTIONS:
                    self._add_worker()
                self._conns.add(conn)
            try:
                self._serve(conn)
            except Exception:
                # a failing session loses its connection, not the worker
                traceback.print_exc()
            finally:
                with self._lock:
                    self._conns.discard(conn)
                    self._idle += 1
                conn.close()

    def _serve(self, conn: socket.socket) -> None:
        session = self.session_factory()
        buf = bytearray()
        deadline = None     # set while buf holds part of a frame
        while True:
            served = serve_frame(session, buf, self.now_fn())
            if served is None:
                wait = DEFAULT_RECV_TIMEOUT
                if buf:
                    if deadline is None:
                        deadline = time.monotonic() + FRAME_DEADLINE
                    wait = min(wait, deadline - time.monotonic())
                    if wait <= 0:
                        return
                conn.settimeout(wait)
                try:
                    chunk = conn.recv(_RECV_CHUNK)
                except OSError:
                    return  # idle timeout, frame deadline, reset, or stop()
                if not chunk:
                    return
                buf += chunk
                continue
            deadline = None
            replies, close = served
            try:
                for reply in replies:
                    send_frame(conn, reply)
            except OSError:
                return
            if close:
                return

    def stop(self) -> None:
        with self._lock:
            self._stopping = True
            conns = list(self._conns)
            workers = list(self._workers)
        # shutdown, unlike close, wakes every worker blocked in accept or recv
        for sock in [self._sock, *conns]:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for worker in workers:
            worker.join(timeout=2.0)
        self._sock.close()


class FrameClient:
    """Blocking client for the threaded server; mirrors SimConnection.

    Frames are cut from a receive buffer, as the server cuts them, so bytes
    read past the end of one frame stay for the next ``recv``.  ``timeout``,
    set once on the socket, bounds the connect and every send and receive.
    """

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._buf = bytearray()

    def send(self, payload: bytes) -> None:
        try:
            send_frame(self._sock, payload)
        except (BrokenPipeError, ConnectionResetError):
            raise ConnectionClosed("peer closed the connection") from None

    def recv(self) -> bytes:
        while (payload := take_frame(self._buf)) is None:
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except socket.timeout:
                raise Timeout("timed out waiting for frame data") from None
            except ConnectionResetError:
                raise ConnectionClosed("peer reset the connection") from None
            if not chunk:
                raise ConnectionClosed("peer closed the connection mid-frame"
                                       if self._buf else "peer closed the connection")
            self._buf += chunk
        return payload

    def peer_closed(self) -> bool:
        """True when this idle connection is unfit for reuse: the peer closed
        or reset it, or sent bytes nobody asked for.  The zero-timeout poll
        sends nothing and, unlike ``select.select``, takes any descriptor."""
        if self._buf:
            return True
        poller = select.poll()
        poller.register(self._sock, select.POLLIN)
        return bool(poller.poll(0))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
