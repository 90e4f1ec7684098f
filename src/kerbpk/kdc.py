"""Key distribution center: principal database plus the two issuing services.

The authentication service checks a certificate-backed signature on the
request, whose signed ``from_time`` must be within the skew and unseen, and
answers with a ticket-granting ticket whose session key travels doubly
protected: wrapped under the client's public key, inside a part sealed under
the client's password-derived key.  The ticket-granting service opens a
presented ticket, validates the sealed authenticator (freshness, identity,
uniqueness, request digest) and issues a service ticket.

One process owns the database; registrations rewrite the backing file
atomically.  Handlers are thread-safe.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from . import codec
from .crypto import CryptoProvider, SealLabel, SymmetricKey
from .errors import (
    AddressMismatch,
    BadValidityWindow,
    CertificateMismatch,
    DbParseError,
    DuplicatePrincipal,
    NoCertificateOnFile,
    SignatureInvalid,
    SkewExceeded,
    UnknownPrincipal,
    UnknownService,
)
from .messages import (
    CLOCK_SKEW,
    MAX_LIFETIME,
    TGS_NAME,
    AsEncPart,
    AsReply,
    AsRequest,
    Certificate,
    Principal,
    ReplayCache,
    SealedTicket,
    TgsEncPart,
    TgsReply,
    TgsRequest,
    TicketBody,
    Validity,
    accept_ticket,
    as_request_signable,
)
from .transport import TableSession


class RecordKind(IntEnum):
    USER = 1
    SERVICE = 2
    TGS_SERVICE = 3


@codec.structure(codec.SchemaId.PRINCIPAL_RECORD)
@dataclass(frozen=True)
class PrincipalRecord:
    principal: Principal
    long_term_key: SymmetricKey
    certificate: Optional[Certificate]
    kind: codec.U8


@codec.structure(codec.SchemaId.SERVICE_KEY_FILE)
@dataclass(frozen=True)
class ServiceKeyFile:
    """What a service process needs on disk: its principal and long-term key."""
    principal: Principal
    key: SymmetricKey


def save_service_key(record: "PrincipalRecord", path: str) -> None:
    codec.save_records(path, [ServiceKeyFile(record.principal, record.long_term_key)])


def load_service_key(path: str) -> ServiceKeyFile:
    return codec.load_record(path, codec.SchemaId.SERVICE_KEY_FILE, DbParseError,
                             "service key file")


class PrincipalDb:
    """All principals of one realm; exactly one ticket-granting service.

    Each principal holds exactly one long-term key, so the key count grows as
    users + services + 1 instead of users x services pairwise secrets.
    """

    def __init__(self, realm: str, tgs_record: PrincipalRecord):
        self.realm = realm
        self.tgs_name = tgs_record.principal.name
        self._records: dict[str, PrincipalRecord] = {tgs_record.principal.name: tgs_record}
        self._lock = threading.Lock()

    @classmethod
    def create(cls, realm: str, provider: CryptoProvider) -> "PrincipalDb":
        record = PrincipalRecord(Principal(TGS_NAME, realm), provider.random_session_key(),
                                 None, int(RecordKind.TGS_SERVICE))
        return cls(realm, record)

    def _insert(self, record: PrincipalRecord) -> None:
        with self._lock:
            if record.principal.name in self._records:
                raise DuplicatePrincipal(f"{record.principal.name}@{self.realm} already registered")
            self._records[record.principal.name] = record

    def _next_serial(self) -> int:
        serials = [r.certificate.serial for r in self._records.values() if r.certificate]
        return max(serials, default=0) + 1

    def register_user(self, name: str, password: str, public_key: bytes,
                      provider: CryptoProvider) -> PrincipalRecord:
        principal = Principal(name, self.realm)
        cert = Certificate(principal, public_key, self._next_serial())
        record = PrincipalRecord(principal, provider.derive_key_from_password(password, name, self.realm),
                                 cert, int(RecordKind.USER))
        self._insert(record)
        return record

    def register_service(self, name: str, provider: CryptoProvider) -> PrincipalRecord:
        record = PrincipalRecord(Principal(name, self.realm), provider.random_session_key(),
                                 None, int(RecordKind.SERVICE))
        self._insert(record)
        return record

    def lookup(self, name: str) -> Optional[PrincipalRecord]:
        with self._lock:
            return self._records.get(name)

    def tgs_record(self) -> PrincipalRecord:
        return self._records[self.tgs_name]

    def records(self) -> list[PrincipalRecord]:
        with self._lock:
            return list(self._records.values())

    def key_count(self) -> int:
        with self._lock:
            return len(self._records)

    def save(self, path: str) -> None:
        """One PrincipalRecord per line; atomic rewrite."""
        codec.save_records(path, self.records())

    @classmethod
    def load(cls, path: str) -> "PrincipalDb":
        records = codec.load_records(path, codec.SchemaId.PRINCIPAL_RECORD, DbParseError,
                                     "principal db")
        tgs = [r for r in records if r.kind == int(RecordKind.TGS_SERVICE)]
        if len(tgs) != 1:
            raise DbParseError(f"{path}: expected exactly one ticket-granting record, found {len(tgs)}")
        db = cls(tgs[0].principal.realm, tgs[0])
        for record in records:
            if record is not tgs[0]:
                db._insert(record)
        return db


def _grant(requested: Validity, now: int, latest: int) -> Validity:
    """The window to issue: from now until the requested end, but no later
    than ``latest``.  An inverted request or an empty grant is refused."""
    if requested.from_time >= requested.till:
        raise BadValidityWindow(f"from {requested.from_time} >= till {requested.till}")
    granted = Validity(now, min(requested.till, latest))
    if granted.till <= now:
        raise BadValidityWindow(f"nothing left to grant: till {granted.till}, now {now}")
    return granted


def handle_as_request(db: PrincipalDb, req: AsRequest, now: int, replay_cache: ReplayCache,
                      provider: CryptoProvider, client_address: str = "") -> AsReply:
    """Initial authentication: certificate, signature, freshness, uniqueness, TGT issue."""
    if req.client.realm != db.realm:
        raise UnknownPrincipal(f"realm {req.client.realm} not served here")
    record = db.lookup(req.client.name)
    if record is None:
        raise UnknownPrincipal(f"{req.client.name}@{req.client.realm}")
    if record.certificate is None:
        raise NoCertificateOnFile(f"{req.client.name} has no certificate on file")
    if req.certificate.public_key != record.certificate.public_key:
        raise CertificateMismatch(f"presented public key differs from registered one for {req.client.name}")
    if req.certificate.subject != req.client:
        raise CertificateMismatch("certificate subject does not name the requesting client")
    if not provider.verify(record.certificate.public_key, as_request_signable(req), req.signature):
        raise SignatureInvalid(f"request signature does not verify for {req.client.name}")
    signed_at = req.requested_validity.from_time
    if abs(now - signed_at) > CLOCK_SKEW:
        raise SkewExceeded(f"request signed at {signed_at}, now {now}, skew {CLOCK_SKEW}")
    replay_cache.check_and_insert((req.client.realm, req.client.name, signed_at,
                                   provider.digest(req.signature)), now)
    granted = _grant(req.requested_validity, now, now + MAX_LIFETIME)
    tgs = db.lookup(req.tgs_id)
    if tgs is None or tgs.kind != int(RecordKind.TGS_SERVICE):
        raise UnknownPrincipal(f"no ticket-granting service named {req.tgs_id}")

    session_key = provider.random_session_key()
    body = TicketBody(session_key, req.client.realm, req.client.name, client_address, granted)
    ticket = SealedTicket(tgs.principal,
                          provider.seal(tgs.long_term_key, codec.encode(body), SealLabel.TICKET))
    enc = AsEncPart(provider.pk_encrypt(record.certificate.public_key, session_key.data),
                    granted, req.nonce1, tgs.principal.realm, tgs.principal.name)
    enc_part = provider.seal(record.long_term_key, codec.encode(enc), SealLabel.AS_ENC_PART)
    return AsReply(req.client, ticket, enc_part)


def handle_tgs_request(db: PrincipalDb, req: TgsRequest, now: int, replay_cache: ReplayCache,
                       provider: CryptoProvider, client_address: str = "") -> TgsReply:
    """Ticket exchange: open TGT, validate authenticator, issue service ticket."""
    body, _ = accept_ticket(req, db.tgs_record().long_term_key, codec.SchemaId.TGS_AUTHENTICATOR,
                            now, replay_cache, provider)
    if body.client_address and body.client_address != client_address:
        raise AddressMismatch(f"ticket bound to {body.client_address}, request from {client_address}")
    service = db.lookup(req.service_id)
    if service is None or service.kind != int(RecordKind.SERVICE):
        raise UnknownService(f"no service named {req.service_id}")

    # a service ticket never outlives the ticket-granting ticket (RFC 4120 3.3.3)
    granted = _grant(req.requested_validity, now, min(now + MAX_LIFETIME, body.validity.till))
    session_key = provider.random_session_key()
    service_body = TicketBody(session_key, body.client_realm, body.client_id,
                              body.client_address, granted)
    ticket = SealedTicket(service.principal,
                          provider.seal(service.long_term_key, codec.encode(service_body),
                                        SealLabel.TICKET))
    enc = TgsEncPart(session_key, granted, req.nonce2, service.principal.realm,
                     service.principal.name)
    enc_part = provider.seal(body.session_key, codec.encode(enc), SealLabel.TGS_ENC_PART)
    return TgsReply(Principal(body.client_id, body.client_realm), ticket, enc_part)


ROLE_AS = "as"
ROLE_TGS = "tgs"

# endpoint role -> (the request schema it serves, its handler)
_ENDPOINTS = {ROLE_AS: (codec.SchemaId.AS_REQUEST, handle_as_request),
              ROLE_TGS: (codec.SchemaId.TGS_REQUEST, handle_tgs_request)}


def _endpoint(role: str):
    try:
        return _ENDPOINTS[role]
    except KeyError:
        raise ValueError(f"unknown KDC endpoint role {role!r}") from None


@dataclass
class KdcService:
    """Shared state for both endpoints, usable from any transport."""

    db: PrincipalDb
    provider: CryptoProvider
    replay_cache: ReplayCache = field(default_factory=ReplayCache)

    def handle(self, role: str, request, now: int, client_address: str = ""):
        """Answer one decoded request for the given endpoint role."""
        return _endpoint(role)[1](self.db, request, now, self.replay_cache, self.provider,
                                  client_address)


class KdcFrameSession(TableSession):
    """Per-connection session for one KDC endpoint: every frame is one
    request of the role's schema and gets exactly one reply frame.  Like every
    server session, it closes the connection after an ErrorReply (RFC 4120
    5.9.1 has the KDC answer each failure with KRB-ERROR)."""

    def __init__(self, service: KdcService, role: str, client_address: str = ""):
        schema, _ = _endpoint(role)
        super().__init__({schema: lambda request, now:
                          service.handle(role, request, now, client_address)})
