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
uses the real clock and keeps the same session interface.  A session answers
one request payload at a time via ``feed(payload, now) -> (replies, close)``,
or raises, and ``refuse(exc)`` answers what it refuses; both transports reach
it through ``serve_frame``, and a client makes each request/reply step with
``call``.  Every server session is a ``TableSession``: a table from schema id
to handler, behind one ``feed`` and one ``refuse``.

A failure travels as the error frame, an ErrorReply naming the error class:
``TableSession.refuse`` builds one and ``check_reply`` raises the error it
names.  ``serve_frame`` is where a server refuses a frame, an oversize header
included; after an ErrorReply the connection closes, after a success it stays
open.  A connection that ends inside a frame is refused with ``Truncated``.

Both TCP ends read and write through a ``FrameStream``: a blocking socket
with kernel timeouts, so each read or write is one system call, and one
frame reader that gives each frame a deadline from its first wait.  A
client's ``timeout`` bounds its connect and each frame it sends or
receives; the server bounds each frame by ``FRAME_DEADLINE``, and its
accepted sockets take their timeouts from the listening socket.  This module needs only ``codec``
and ``errors``, so a plain server loads no crypto and no ticket layer.
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
    Truncated,
    raise_by_name,
)

MAX_FRAME = 1 << 20
DEFAULT_RECV_TIMEOUT = 30   # also the TCP server's idle timeout, in seconds
FRAME_DEADLINE = 10         # seconds the TCP server gives a frame, first byte to last, or a reply's write
MAX_CONNECTIONS = 64        # TCP server workers, and its listen backlog
SIM_CLOCK_START = 1_000_000

_RECV_CHUNK = 1 << 16

_LEN = struct.Struct(">I")
_TIMEVAL = struct.Struct("@ll")    # struct timeval: seconds, microseconds


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


def check_reply(payload: bytes) -> bytes:
    """``payload`` itself, unless it is an ErrorReply: then the error it names raises."""
    if codec.schema_id_of(payload) == codec.SchemaId.ERROR_REPLY:
        err: ErrorReply = codec.decode(payload, codec.SchemaId.ERROR_REPLY)
        raise_by_name(err.error, err.detail)
    return payload


class TableSession:
    """A server session that answers each frame from a table of handlers.

    ``handlers`` maps a schema id to ``handler(request, now) -> reply``.  A
    frame is decoded once, as the schema its first byte names, and the reply
    is encoded once.  A frame of a schema the table lacks is decoded as the
    table's first schema, so the codec names the fault: ``SchemaMismatch``,
    ``UnknownTag`` for an id no schema has, or ``Truncated``.  ``feed``
    answers a frame or raises; ``refuse`` answers a KerbPkError with one
    ErrorReply, and then the connection closes.
    """

    def __init__(self, handlers: dict[int, Callable]):
        self.handlers = handlers

    def feed(self, payload: bytes, now: int) -> tuple[list[bytes], bool]:
        served = payload and payload[0] in self.handlers
        schema = payload[0] if served else next(iter(self.handlers))
        return [codec.encode(self.handlers[schema](codec.decode(payload, schema), now))], False

    def refuse(self, exc: KerbPkError) -> tuple[list[bytes], bool]:
        return [codec.encode(ErrorReply(exc.name, str(exc)))], True


def serve_frame(session, buf: bytearray, now: int) -> Optional[tuple[list[bytes], bool]]:
    """Feed the next frame in a connection's receive buffer to its server
    session: ``(replies, close)``, or None while the frame is incomplete.

    This is where a server refuses a frame: a header over MAX_FRAME, or any
    KerbPkError the session raises, is answered by ``session.refuse``.
    """
    try:
        payload = take_frame(buf)
        return None if payload is None else session.feed(payload, now)
    except KerbPkError as exc:
        return session.refuse(exc)


def call(conn, request, expected: codec.SchemaId):
    """One client step: send ``request``, then decode the reply as
    ``expected``; a transported ErrorReply raises its named error."""
    conn.send(codec.encode(request))
    return codec.decode(check_reply(conn.recv()), expected)


def _arm(sock: socket.socket, option: int, seconds: float) -> None:
    """Set the kernel timeout ``option`` (SO_RCVTIMEO or SO_SNDTIMEO) of a
    blocking socket; at least 1 us, since 0 would mean none."""
    usec = max(1, int(seconds * 1_000_000))
    sock.setsockopt(socket.SOL_SOCKET, option, _TIMEVAL.pack(*divmod(usec, 1_000_000)))


class FrameStream:
    """One connected socket as either TCP end reads and writes it, and the
    receive buffer it cuts frames from.

    The socket blocks, and kernel timeouts (socket(7) SO_RCVTIMEO and
    SO_SNDTIMEO) bound each call, so every read or write is one system call.
    ``armed`` is the receive timeout the socket already has.  It is set
    again only when the wait changes: a frame that arrives in one read costs
    that one ``recv`` and nothing more.
    """

    def __init__(self, sock: socket.socket, armed: float):
        self.sock = sock
        self.buf = bytearray()
        self._armed = armed

    def read(self, wait: float) -> None:
        """Add what one ``recv`` brings, within ``wait`` seconds, to ``buf``;
        Timeout when nothing comes, ConnectionClosed at end of file or reset."""
        if wait <= 0:
            raise Timeout("timed out waiting for frame data")
        if wait != self._armed:
            _arm(self.sock, socket.SO_RCVTIMEO, wait)
            self._armed = wait
        try:
            chunk = self.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            raise Timeout("timed out waiting for frame data") from None
        except ConnectionResetError:
            raise ConnectionClosed("peer reset the connection") from None
        if not chunk:
            raise ConnectionClosed("peer closed the connection mid-frame"
                                   if self.buf else "peer closed the connection")
        self.buf += chunk

    def next_frame(self, cut: Callable[[bytearray], object], wait: float):
        """``cut(buf)`` once it is not None, that is once the current frame is
        whole, reading until then; the frame's deadline is ``wait`` seconds
        from its first wait."""
        result = cut(self.buf)
        if result is None:
            deadline = time.monotonic() + wait
            self.read(wait)
            while (result := cut(self.buf)) is None:
                self.read(deadline - time.monotonic())
        return result

    def send(self, frame: bytes) -> None:
        """Write ``frame`` in one ``send``.  One call's waits together are
        bounded by the send timeout, so a short count, like nothing sent at
        all, means the peer took too long: Timeout."""
        try:
            sent = self.sock.send(frame)
        except BlockingIOError:
            sent = 0
        if sent < len(frame):
            raise Timeout("timed out sending a frame")


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
    status: str             # delivered | dropped | held | duplicate | stale


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
        if self.server_inbox and not self.server_closed:
            self.server_closed = True
            self.session.refuse(Truncated("connection ended inside a frame"))


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
        record = FrameRecord(index, conn.channel, conn.internal, direction, wire, "delivered")
        kinds: dict[type, Fault] = {}
        for fault in self._faults.get(index, ()):
            kinds[type(fault)] = fault
            if isinstance(fault, FlipBit) and fault.byte < len(wire):
                mutated = bytearray(wire)
                mutated[fault.byte] ^= 1 << (fault.bit & 7)
                wire = bytes(mutated)
                record.wire = wire
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
            self.transcript.append(record)
            self._pending.append((self.clock.now() + kinds[Delay].ticks, record, conn))
            self._release_if_triggered(index)
            return
        self.transcript.append(record)
        self._deliver(record, conn)
        if Duplicate in kinds:
            copy = replace(record, status="duplicate")
            self.transcript.append(copy)
            self._deliver(copy, conn)
        self._release_if_triggered(index)

    def _release_if_triggered(self, index: int) -> None:
        held = self._held.pop(index, None)
        if held is not None:
            record, conn = held
            release = replace(record, status="delivered")
            self.transcript.append(release)
            self._deliver(release, conn)

    def _deliver(self, record: FrameRecord, conn: SimConnection) -> None:
        if record.direction == "s->c":
            conn.inbox += record.wire
            return
        if conn.server_closed:
            record.status = "stale"
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
            release = replace(record, status="delivered")
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

    Workers share the listening socket and block in ``accept``, and accept
    again when its idle timeout passes; Linux wakes one waiter per
    connection.  A worker serves its connection to the end from a receive
    buffer it owns, then accepts again.  The worker that takes the last
    idle slot starts one more, so the pool grows to the peak number of
    concurrent connections, at most ``MAX_CONNECTIONS``; later connections
    wait in the listen backlog.  A connection that sends nothing for
    ``DEFAULT_RECV_TIMEOUT`` seconds is closed, and so is one that takes
    longer than ``FRAME_DEADLINE`` seconds from a frame's first byte to its
    last, or to take a reply frame, so a peer that trickles bytes, or never
    reads, cannot keep a worker.  A partial frame stays in the buffer across
    reads, so a slow peer cannot desynchronise the framing, and is refused
    with ``Truncated`` if the connection ends first.
    """

    def __init__(self, session_factory: Callable[[], object],
                 now_fn: Callable[[], int] = lambda: int(time.time()),
                 host: str = "127.0.0.1", port: int = 0):
        self.session_factory = session_factory
        self.now_fn = now_fn
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        # Linux copies both kernel timeouts to every accepted socket, so a
        # connection starts with them at no cost; accept waits idle too
        self._idle = DEFAULT_RECV_TIMEOUT
        _arm(self._sock, socket.SO_RCVTIMEO, self._idle)
        _arm(self._sock, socket.SO_SNDTIMEO, FRAME_DEADLINE)
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
            except BlockingIOError:
                continue  # no connection within the idle timeout
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
        idle = DEFAULT_RECV_TIMEOUT
        frame_wait = min(FRAME_DEADLINE, idle)  # a stall inside a frame is idle too
        stream = FrameStream(conn, self._idle)

        def cut(buf: bytearray):
            return serve_frame(session, buf, self.now_fn())

        while True:
            try:
                if not stream.buf:
                    stream.read(idle)   # until a frame begins
                replies, close = stream.next_frame(cut, frame_wait)
            except (KerbPkError, OSError):
                # idle timeout, frame deadline, end of file, reset, or stop()
                if stream.buf:
                    session.refuse(Truncated("connection ended inside a frame"))
                return
            try:
                for reply in replies:
                    stream.send(pack_frame(reply))
            except (KerbPkError, OSError):
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
    read past the end of one frame stay for the next ``recv``.  ``timeout``
    bounds the connect, and each frame, per frame, kernel-enforced: a
    ``recv`` raises Timeout unless its whole frame arrives within
    ``timeout`` of its first wait, and a ``send`` unless its frame is
    written within ``timeout``.
    """

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        _arm(sock, socket.SO_RCVTIMEO, timeout)
        _arm(sock, socket.SO_SNDTIMEO, timeout)     # which bounds the connect too
        try:
            sock.connect((host, port))
        except OSError as exc:
            sock.close()
            if isinstance(exc, BlockingIOError):    # the send timeout ran out
                raise TimeoutError(f"timed out connecting to {host}:{port}") from None
            raise
        self._sock = sock
        self._stream = FrameStream(sock, timeout)
        self._timeout = timeout
        self._poll = None

    def send(self, payload: bytes) -> None:
        try:
            self._stream.send(pack_frame(payload))
        except (BrokenPipeError, ConnectionResetError):
            raise ConnectionClosed("peer closed the connection") from None

    def recv(self) -> bytes:
        return self._stream.next_frame(take_frame, self._timeout)

    def peer_closed(self) -> bool:
        """True when this idle connection is unfit for reuse: the peer closed
        or reset it, or sent bytes nobody asked for.  A zero-timeout poll,
        which sends nothing and reads nothing, on one poll object per
        connection, built at its first probe."""
        if self._stream.buf:
            return True
        if self._poll is None:
            self._poll = select.poll()
            self._poll.register(self._sock, select.POLLIN)
        return bool(self._poll.poll(0))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
