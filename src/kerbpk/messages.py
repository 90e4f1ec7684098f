"""Wire structures for the three exchanges, plus shared validation.

Message flow: the client asks the authentication server for a ticket-granting
ticket (AsRequest/AsReply, proving identity with a certificate and signature),
trades it at the ticket-granting server for a service ticket
(TgsRequest/TgsReply, proving freshness with a sealed authenticator), then
presents the service ticket to the application acceptor (ApRequest/ApReply).

Plaintext request fields are bound to the sealed authenticator through a
SHA-256 digest of the request body, so no byte of a request can be altered
without detection; replies bind their plaintext hints to sealed content via
client-side cross checks.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from . import codec
from .crypto import SealedBox, SymmetricKey
from .errors import (
    KerbPkError,
    MalformedName,
    PrincipalMismatch,
    ReplayDetected,
    SkewExceeded,
    TicketExpired,
    TicketNotYetValid,
    raise_by_name,
)

#: TicketBody.flags bit set only by the authentication server on fresh TGTs.
FLAG_INITIAL = 0x1

#: Realm-wide clock-skew allowance, in seconds, for every time check.
CLOCK_SKEW = 300

#: Ticket lifetime, in seconds, that a client asks for when it names none.
DEFAULT_LIFETIME = 28800

_NAME_OK = frozenset(chr(c) for c in range(0x21, 0x7F))


def _check_name(value: str, what: str, allow_slash: bool) -> None:
    if not value:
        raise MalformedName(f"{what} must be non-empty")
    bad = set(value) - _NAME_OK
    if bad:
        raise MalformedName(f"{what} contains non-printable or non-ASCII characters: {sorted(bad)!r}")
    if not allow_slash and "/" in value:
        raise MalformedName(f"{what} must not contain '/'")


@dataclass(frozen=True)
class Principal:
    name: str
    realm: str

    def __post_init__(self):
        _check_name(self.name, "principal name", allow_slash=True)
        _check_name(self.realm, "realm", allow_slash=False)


@dataclass(frozen=True)
class Certificate:
    subject: Principal
    public_key: bytes
    serial: int


@dataclass(frozen=True)
class Validity:
    # Seconds since the epoch; a well-formed window has from_time < till.
    from_time: int
    till: int


@dataclass(frozen=True)
class TicketBody:
    flags: int
    session_key: SymmetricKey
    client_realm: str
    client_id: str
    client_address: str
    validity: Validity


@dataclass(frozen=True)
class SealedTicket:
    # server is a plaintext routing hint; everything that matters is in box.
    server: Principal
    box: SealedBox


@dataclass(frozen=True)
class Authenticator:
    client_id: str
    client_realm: str
    timestamp: int


@dataclass(frozen=True)
class AsRequest:
    options: int
    client: Principal
    tgs_id: str
    requested_validity: Validity
    nonce1: bytes
    certificate: Certificate
    signature: bytes


@dataclass(frozen=True)
class AsEncPart:
    wrapped_session_key: bytes
    validity: Validity
    nonce1: bytes
    tgs_realm: str
    tgs_id: str


@dataclass(frozen=True)
class AsReply:
    client: Principal
    ticket: SealedTicket
    enc_part: SealedBox


@dataclass(frozen=True)
class TgsRequest:
    options: int
    service_id: str
    requested_validity: Validity
    nonce2: bytes
    ticket: SealedTicket
    authenticator: SealedBox


@dataclass(frozen=True)
class TgsAuthenticator:
    """Sealed body of a ticket-granting request authenticator."""
    authenticator: Authenticator
    request_digest: bytes


@dataclass(frozen=True)
class TgsEncPart:
    session_key: SymmetricKey
    validity: Validity
    nonce2: bytes
    service_realm: str
    service_id: str


@dataclass(frozen=True)
class TgsReply:
    client: Principal
    ticket: SealedTicket
    enc_part: SealedBox


@dataclass(frozen=True)
class ApRequest:
    options: int
    ticket: SealedTicket
    authenticator: SealedBox


@dataclass(frozen=True)
class ApEncPart:
    ts2: int
    subkey: SymmetricKey
    initial_seq: int


@dataclass(frozen=True)
class ApReply:
    enc_part: SealedBox


@dataclass(frozen=True)
class ErrorReply:
    error: str
    detail: str


codec.register(Principal, codec.SchemaId.PRINCIPAL, [
    ("name", "str"),
    ("realm", "str"),
])
codec.register(Certificate, codec.SchemaId.CERTIFICATE, [
    ("subject", "struct", Principal),
    ("public_key", "bytes"),
    ("serial", "u64"),
])
codec.register(Validity, codec.SchemaId.VALIDITY, [
    ("from_time", "u64"),
    ("till", "u64"),
])
codec.register(TicketBody, codec.SchemaId.TICKET_BODY, [
    ("flags", "u32"),
    ("session_key", "struct", SymmetricKey),
    ("client_realm", "str"),
    ("client_id", "str"),
    ("client_address", "str"),
    ("validity", "struct", Validity),
])
codec.register(SealedTicket, codec.SchemaId.TICKET_SEALED, [
    ("server", "struct", Principal),
    ("box", "struct", SealedBox),
])
codec.register(Authenticator, codec.SchemaId.AUTHENTICATOR, [
    ("client_id", "str"),
    ("client_realm", "str"),
    ("timestamp", "u64"),
])
codec.register(AsRequest, codec.SchemaId.AS_REQUEST, [
    ("options", "u32"),
    ("client", "struct", Principal),
    ("tgs_id", "str"),
    ("requested_validity", "struct", Validity),
    ("nonce1", "bytes"),
    ("certificate", "struct", Certificate),
    ("signature", "bytes"),
])
codec.register(AsEncPart, codec.SchemaId.ENC_PART_AS, [
    ("wrapped_session_key", "bytes"),
    ("validity", "struct", Validity),
    ("nonce1", "bytes"),
    ("tgs_realm", "str"),
    ("tgs_id", "str"),
])
codec.register(AsReply, codec.SchemaId.AS_REPLY, [
    ("client", "struct", Principal),
    ("ticket", "struct", SealedTicket),
    ("enc_part", "struct", SealedBox),
])
codec.register(TgsRequest, codec.SchemaId.TGS_REQUEST, [
    ("options", "u32"),
    ("service_id", "str"),
    ("requested_validity", "struct", Validity),
    ("nonce2", "bytes"),
    ("ticket", "struct", SealedTicket),
    ("authenticator", "struct", SealedBox),
])
codec.register(TgsAuthenticator, codec.SchemaId.TGS_AUTHENTICATOR, [
    ("authenticator", "struct", Authenticator),
    ("request_digest", "bytes"),
])
codec.register(TgsEncPart, codec.SchemaId.ENC_PART_TGS, [
    ("session_key", "struct", SymmetricKey),
    ("validity", "struct", Validity),
    ("nonce2", "bytes"),
    ("service_realm", "str"),
    ("service_id", "str"),
])
codec.register(TgsReply, codec.SchemaId.TGS_REPLY, [
    ("client", "struct", Principal),
    ("ticket", "struct", SealedTicket),
    ("enc_part", "struct", SealedBox),
])
codec.register(ApRequest, codec.SchemaId.AP_REQUEST, [
    ("options", "u32"),
    ("ticket", "struct", SealedTicket),
    ("authenticator", "struct", SealedBox),
])
codec.register(ApEncPart, codec.SchemaId.ENC_PART_AP, [
    ("ts2", "u64"),
    ("subkey", "struct", SymmetricKey),
    ("initial_seq", "u64"),
])
codec.register(ApReply, codec.SchemaId.AP_REPLY, [
    ("enc_part", "struct", SealedBox),
])
codec.register(ErrorReply, codec.SchemaId.ERROR_REPLY, [
    ("error", "str"),
    ("detail", "str"),
])


def decode_reply(payload: bytes, expected: codec.SchemaId):
    """Decode a reply frame; a transported ErrorReply raises its named error."""
    if codec.schema_id_of(payload) == codec.SchemaId.ERROR_REPLY:
        err: ErrorReply = codec.decode(payload, codec.SchemaId.ERROR_REPLY)
        raise_by_name(err.error, err.detail)
    return codec.decode(payload, expected)


def error_reply(exc: KerbPkError) -> bytes:
    """The encoded ErrorReply that reports ``exc`` to the peer."""
    return codec.encode(ErrorReply(exc.name, str(exc)))


def as_request_signable(req: AsRequest) -> bytes:
    """Canonical bytes the initial-auth signature covers: all but the signature."""
    return codec.encode_body(req, codec.SchemaId.AS_REQ_BODY)


def tgs_request_digest(req: TgsRequest) -> bytes:
    """Digest the sealed authenticator binds: all but the authenticator box."""
    return hashlib.sha256(codec.encode_body(req, codec.SchemaId.TGS_REQ_BODY)).digest()


def ap_request_digest(req: ApRequest) -> bytes:
    """Digest the sealed context authenticator binds: all but its box."""
    return hashlib.sha256(codec.encode_body(req, codec.SchemaId.AP_REQ_BODY)).digest()


def validate_times(validity: Validity, now: int, skew: int) -> None:
    """Accept iff from_time - skew <= now <= till + skew."""
    if now < validity.from_time - skew:
        raise TicketNotYetValid(f"valid from {validity.from_time}, now {now}, skew {skew}")
    if now > validity.till + skew:
        raise TicketExpired(f"expired {validity.till}, now {now}, skew {skew}")


class ReplayCache:
    """Bounded, windowed set of (client_id, realm, timestamp) triples.

    Entries older than the window are pruned; beyond ``capacity`` entries the
    oldest inserted goes first.  Thread-safe.
    """

    def __init__(self, window: int = 2 * CLOCK_SKEW, capacity: int = 4096):
        self.window = window
        self.capacity = capacity
        self._seen: OrderedDict[tuple, int] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)

    def check_and_insert(self, triple: tuple, now: int) -> None:
        with self._lock:
            cutoff = now - self.window
            while self._seen:
                oldest_key = next(iter(self._seen))
                if self._seen[oldest_key] >= cutoff:
                    break
                self._seen.popitem(last=False)
            if triple in self._seen:
                raise ReplayDetected(f"authenticator triple {triple!r} seen before")
            self._seen[triple] = now
            while len(self._seen) > self.capacity:
                self._seen.popitem(last=False)


def validate_authenticator(auth: Authenticator, expected: Principal, now: int,
                           skew: int, replay_cache: Optional[ReplayCache],
                           box_digest: bytes = b"") -> None:
    """Identity, freshness, then uniqueness; inserts into the cache only on ok.

    ``box_digest`` is a hash of the sealed authenticator bytes: a wire replay
    carries the identical ciphertext and collides, while two honest exchanges
    in the same second differ (their envelopes carry fresh nonces).
    """
    if auth.client_id != expected.name or auth.client_realm != expected.realm:
        raise PrincipalMismatch(
            f"authenticator names {auth.client_id}@{auth.client_realm}, "
            f"ticket names {expected.name}@{expected.realm}")
    if abs(now - auth.timestamp) > skew:
        raise SkewExceeded(f"authenticator timestamp {auth.timestamp}, now {now}, skew {skew}")
    if replay_cache is not None:
        replay_cache.check_and_insert(
            (auth.client_realm, auth.client_id, auth.timestamp, box_digest), now)
