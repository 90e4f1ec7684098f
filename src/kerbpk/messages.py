"""Wire structures for the three exchanges, plus shared validation.

Message flow: the client asks the authentication server for a ticket-granting
ticket (AsRequest/AsReply, proving identity with a certificate and signature),
trades it at the ticket-granting server for a service ticket
(TgsRequest/TgsReply, proving freshness with a sealed authenticator), then
presents the service ticket to the application acceptor (ApRequest/ApReply).

Plaintext request fields are bound to the sealed authenticator through a
SHA-256 digest of the request body, so no byte of a request can be altered
without detection; replies bind their plaintext hints to sealed content via
client-side cross checks.  Digests, the request digest and the replay-cache
key alike, go through the caller's crypto provider, so this module imports no
hash library of its own.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Union

from . import codec
from .crypto import CryptoProvider, SealLabel, SymmetricKey
from .errors import (
    AuthenticatorIntegrityError,
    IntegrityError,
    MalformedName,
    PrincipalMismatch,
    ReplayDetected,
    ReplayWindowLost,
    RequestDigestMismatch,
    SchemaMismatch,
    SkewExceeded,
    TicketExpired,
    TicketIntegrityError,
    TicketNotYetValid,
)
from .transport import check_reply

#: Realm-wide clock-skew allowance, in seconds, for every time check.
CLOCK_SKEW = 300

#: Ticket lifetime, in seconds, that a client asks for when it names none.
DEFAULT_LIFETIME = 28800

#: Longest ticket lifetime, in seconds, the KDC grants.
MAX_LIFETIME = 28800

#: Name of the realm's ticket-granting service principal.
TGS_NAME = "krbtgt"

#: Seconds a replay cache remembers an authenticator: both sides of the skew.
REPLAY_WINDOW = 2 * CLOCK_SKEW

#: Most authenticators a replay cache holds; beyond it the oldest goes first.
REPLAY_CAPACITY = 4096

_NAME_OK = frozenset(chr(c) for c in range(0x21, 0x7F))


def _check_name(value: str, what: str, allow_slash: bool) -> None:
    if not value:
        raise MalformedName(f"{what} must be non-empty")
    # printable ASCII but space: exactly the characters 0x21-0x7e
    if not (value.isascii() and value.isprintable()) or " " in value:
        bad = set(value) - _NAME_OK
        raise MalformedName(f"{what} contains non-printable or non-ASCII characters: {sorted(bad)!r}")
    if not allow_slash and "/" in value:
        raise MalformedName(f"{what} must not contain '/'")


@codec.structure(codec.SchemaId.PRINCIPAL)
@dataclass(frozen=True)
class Principal:
    name: str
    realm: str

    def __post_init__(self):
        _check_name(self.name, "principal name", allow_slash=True)
        _check_name(self.realm, "realm", allow_slash=False)


@codec.structure(codec.SchemaId.CERTIFICATE)
@dataclass(frozen=True)
class Certificate:
    subject: Principal
    public_key: bytes
    serial: codec.U64


@codec.structure(codec.SchemaId.VALIDITY)
@dataclass(frozen=True)
class Validity:
    # Seconds since the epoch; a well-formed window has from_time < till.
    from_time: codec.U64
    till: codec.U64


@codec.structure(codec.SchemaId.TICKET_BODY)
@dataclass(frozen=True)
class TicketBody:
    session_key: SymmetricKey
    client_realm: str
    client_id: str
    client_address: str
    validity: Validity


@codec.structure(codec.SchemaId.TICKET_SEALED)
@dataclass(frozen=True)
class SealedTicket:
    # server is a plaintext routing hint; everything that matters is in box.
    server: Principal
    box: bytes


@codec.structure(codec.SchemaId.AUTHENTICATOR)
@dataclass(frozen=True)
class Authenticator:
    client_id: str
    client_realm: str
    timestamp: codec.U64


@codec.structure(codec.SchemaId.AS_REQUEST)
@dataclass(frozen=True)
class AsRequest:
    client: Principal
    tgs_id: str
    requested_validity: Validity
    nonce1: bytes
    certificate: Certificate
    signature: bytes


@codec.structure(codec.SchemaId.ENC_PART_AS)
@dataclass(frozen=True)
class AsEncPart:
    wrapped_session_key: bytes
    validity: Validity
    nonce1: bytes
    tgs_realm: str
    tgs_id: str


@codec.structure(codec.SchemaId.AS_REPLY)
@dataclass(frozen=True)
class AsReply:
    client: Principal
    ticket: SealedTicket
    enc_part: bytes


@codec.structure(codec.SchemaId.TGS_REQUEST)
@dataclass(frozen=True)
class TgsRequest:
    service_id: str
    requested_validity: Validity
    nonce2: bytes
    ticket: SealedTicket
    authenticator: bytes


@codec.structure(codec.SchemaId.TGS_AUTHENTICATOR)
@dataclass(frozen=True)
class TgsAuthenticator:
    """Sealed body of a ticket-granting request authenticator."""
    authenticator: Authenticator
    request_digest: bytes


@codec.structure(codec.SchemaId.ENC_PART_TGS)
@dataclass(frozen=True)
class TgsEncPart:
    session_key: SymmetricKey
    validity: Validity
    nonce2: bytes
    service_realm: str
    service_id: str


@codec.structure(codec.SchemaId.TGS_REPLY)
@dataclass(frozen=True)
class TgsReply:
    client: Principal
    ticket: SealedTicket
    enc_part: bytes


@codec.structure(codec.SchemaId.AP_REQUEST)
@dataclass(frozen=True)
class ApRequest:
    ticket: SealedTicket
    authenticator: bytes


@codec.structure(codec.SchemaId.ENC_PART_AP)
@dataclass(frozen=True)
class ApEncPart:
    ts2: codec.U64
    subkey: SymmetricKey
    initial_seq: codec.U64


@codec.structure(codec.SchemaId.AP_REPLY)
@dataclass(frozen=True)
class ApReply:
    enc_part: bytes


def decode_reply(payload: bytes, expected: codec.SchemaId):
    """Decode a reply frame; a transported ErrorReply raises its named error."""
    return codec.decode(check_reply(payload), expected)


def as_request_signable(req: AsRequest) -> bytes:
    """Canonical bytes the initial-auth signature covers: all but the signature."""
    return codec.encode_body(req, codec.SchemaId.AS_REQ_BODY)


def request_digest(req: Union[TgsRequest, ApRequest], provider: CryptoProvider) -> bytes:
    """Digest the sealed authenticator binds: all but the authenticator box."""
    body_id = (codec.SchemaId.TGS_REQ_BODY if isinstance(req, TgsRequest)
               else codec.SchemaId.AP_REQ_BODY)
    return provider.digest(codec.encode_body(req, body_id))


def validate_times(validity: Validity, now: int) -> None:
    """Accept iff from_time - CLOCK_SKEW <= now <= till + CLOCK_SKEW."""
    if now < validity.from_time - CLOCK_SKEW:
        raise TicketNotYetValid(f"valid from {validity.from_time}, now {now}, skew {CLOCK_SKEW}")
    if now > validity.till + CLOCK_SKEW:
        raise TicketExpired(f"expired {validity.till}, now {now}, skew {CLOCK_SKEW}")


class ReplayCache:
    """Bounded, windowed set of (realm, client, timestamp, box digest) keys.

    Entries older than ``REPLAY_WINDOW`` are pruned; beyond ``REPLAY_CAPACITY``
    entries the oldest inserted goes first, and from then on every timestamp of
    its (realm, client) at or below the evicted one is refused (RFC 4120 3.2.3).
    A flood thus locks out only its sender.  Thread-safe.
    """

    def __init__(self):
        self._seen: OrderedDict[tuple, int] = OrderedDict()
        self._lock = threading.Lock()
        self._floors: dict[tuple, int] = {}    # (realm, client) -> highest evicted timestamp

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)

    def check_and_insert(self, triple: tuple, now: int) -> None:
        with self._lock:
            cutoff = now - REPLAY_WINDOW
            while self._seen:
                oldest_key = next(iter(self._seen))
                if self._seen[oldest_key] >= cutoff:
                    break
                self._seen.popitem(last=False)
            if triple in self._seen:
                raise ReplayDetected(f"authenticator triple {triple!r} seen before")
            who, floor = triple[:2], self._floors.get(triple[:2], -1)
            if floor < cutoff:
                # every timestamp at or below it is outside the skew already
                self._floors.pop(who, None)
            elif triple[2] <= floor:
                raise ReplayWindowLost(f"timestamp {triple[2]} not above evicted {floor}")
            self._seen[triple] = now
            while len(self._seen) > REPLAY_CAPACITY:
                evicted, _ = self._seen.popitem(last=False)
                self._floors[evicted[:2]] = max(self._floors.get(evicted[:2], -1), evicted[2])


def validate_authenticator(auth: Authenticator, expected: Principal, now: int,
                           replay_cache: ReplayCache, box: bytes,
                           provider: CryptoProvider) -> None:
    """Identity, freshness, then uniqueness; inserts into the cache only on ok.

    The replay key ends with a hash of ``box``, the sealed authenticator: a
    wire replay carries the identical ciphertext and collides, while two honest
    exchanges in the same second differ (their envelopes carry fresh nonces).
    """
    if auth.client_id != expected.name or auth.client_realm != expected.realm:
        raise PrincipalMismatch(
            f"authenticator names {auth.client_id}@{auth.client_realm}, "
            f"ticket names {expected.name}@{expected.realm}")
    if abs(now - auth.timestamp) > CLOCK_SKEW:
        raise SkewExceeded(f"authenticator timestamp {auth.timestamp}, now {now}, "
                           f"skew {CLOCK_SKEW}")
    replay_cache.check_and_insert((auth.client_realm, auth.client_id, auth.timestamp,
                                   provider.digest(box)), now)


def accept_ticket(req: Union[TgsRequest, ApRequest], key: SymmetricKey,
                  sealed_id: codec.SchemaId, now: int, replay_cache: ReplayCache,
                  provider: CryptoProvider) -> tuple[TicketBody, Any]:
    """Open ``req.ticket`` under the server's ``key``, check its window, open
    the authenticator as ``sealed_id`` under the ticket's session key, match
    its request digest and validate it.  Returns the body and authenticator."""
    try:
        body_bytes = provider.open(key, req.ticket.box, SealLabel.TICKET)
    except IntegrityError as exc:
        raise TicketIntegrityError(str(exc)) from None
    body: TicketBody = codec.decode(body_bytes, codec.SchemaId.TICKET_BODY)
    validate_times(body.validity, now)
    try:
        sealed = codec.decode(provider.open(body.session_key, req.authenticator,
                                            SealLabel.AUTHENTICATOR), sealed_id)
    except (IntegrityError, SchemaMismatch) as exc:
        raise AuthenticatorIntegrityError(str(exc)) from None
    if sealed.request_digest != request_digest(req, provider):
        raise RequestDigestMismatch("request fields do not match the sealed digest")
    validate_authenticator(sealed.authenticator, Principal(body.client_id, body.client_realm),
                           now, replay_cache, req.authenticator, provider)
    return body, sealed
