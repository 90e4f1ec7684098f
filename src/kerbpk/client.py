"""Client agent: initial authentication and the ticket-granting exchange.

The agent owns an identity (principal, password, key pair, certificate) and a
credential cache.  One successful initial authentication plus one ticket
exchange is enough for any number of application handshakes afterwards; the
cache can round-trip through a single-line hex file so separate processes can
share it.

Reply unwrap order is fixed: first open the password-key box, then unwrap the
public-key-encrypted session key found inside it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import codec
from .crypto import CryptoProvider, KeyPair, SealLabel, SymmetricKey
from .errors import (
    CcacheParseError,
    DecryptFailure,
    IntegrityError,
    NonceMismatch,
    NoTgt,
    PkDecryptFailure,
    PrincipalMismatch,
    WrongPassword,
)
from .messages import (
    CLOCK_SKEW,
    DEFAULT_LIFETIME,
    TGS_NAME,
    AsEncPart,
    AsReply,
    AsRequest,
    Authenticator,
    Certificate,
    Principal,
    SealedTicket,
    TgsAuthenticator,
    TgsEncPart,
    TgsReply,
    TgsRequest,
    Validity,
    as_request_signable,
    request_digest,
)


@dataclass(frozen=True)
class ClientIdentity:
    principal: Principal
    password: str = field(repr=False)
    keypair: KeyPair
    certificate: Certificate

    def __post_init__(self):
        if self.certificate.subject != self.principal:
            raise ValueError("certificate subject does not match the principal")
        if self.certificate.public_key != self.keypair.public_key:
            raise ValueError("certificate public key does not match the key pair")


@codec.structure(codec.SchemaId.CRED_ENTRY)
@dataclass(frozen=True)
class CredEntry:
    ticket: SealedTicket
    key: SymmetricKey
    validity: Validity


@codec.structure(codec.SchemaId.SERVICE_CRED)
@dataclass(frozen=True)
class ServiceCred:
    service_id: str
    entry: CredEntry


@codec.structure(codec.SchemaId.CREDENTIAL_CACHE)
@dataclass(frozen=True)
class CredentialCacheFile:
    client: Principal
    tgt: Optional[CredEntry]
    services: list[ServiceCred]


@codec.structure(codec.SchemaId.IDENTITY_FILE)
@dataclass(frozen=True)
class IdentityFile:
    """On-disk identity: everything but the password, which the user types."""
    principal: Principal
    public_key: bytes
    private_key: bytes = field(repr=False)
    certificate: Certificate


class CredentialCache:
    """TGT plus per-service credentials, evicting entries past till + skew."""

    def __init__(self, client: Principal, skew: int = CLOCK_SKEW):
        self.client = client
        self.skew = skew
        self._tgt: Optional[CredEntry] = None
        self._services: dict[str, CredEntry] = {}
        self._lock = threading.Lock()

    def _fresh(self, entry: Optional[CredEntry], now: int) -> Optional[CredEntry]:
        if entry is not None and entry.validity.till + self.skew < now:
            return None
        return entry

    def store_tgt(self, entry: CredEntry) -> None:
        with self._lock:
            self._tgt = entry

    def get_tgt(self, now: int) -> Optional[CredEntry]:
        with self._lock:
            self._tgt = self._fresh(self._tgt, now)
            return self._tgt

    def store_service(self, service_id: str, entry: CredEntry) -> None:
        with self._lock:
            self._services[service_id] = entry

    def get_service(self, service_id: str, now: int) -> Optional[CredEntry]:
        with self._lock:
            entry = self._fresh(self._services.get(service_id), now)
            if entry is None:
                self._services.pop(service_id, None)
            return entry

    def peek_service(self, service_id: str) -> Optional[CredEntry]:
        """The stored entry as-is, leaving freshness for the server to judge."""
        with self._lock:
            return self._services.get(service_id)

    # --- single-line hex file form ---

    def to_file_struct(self) -> CredentialCacheFile:
        with self._lock:
            services = [ServiceCred(sid, entry)
                        for sid, entry in sorted(self._services.items())]
            return CredentialCacheFile(self.client, self._tgt, services)

    def save(self, path: str) -> None:
        codec.save_records(path, [self.to_file_struct()])

    @classmethod
    def load(cls, path: str) -> "CredentialCache":
        parsed: CredentialCacheFile = codec.load_record(
            path, codec.SchemaId.CREDENTIAL_CACHE, CcacheParseError, "credential cache")
        cache = cls(parsed.client)
        cache._tgt = parsed.tgt
        cache._services = {sc.service_id: sc.entry for sc in parsed.services}
        return cache


class ClientAgent:
    """Drives the two KDC exchanges and maintains the credential cache."""

    def __init__(self, identity: ClientIdentity, provider: CryptoProvider,
                 cache: Optional[CredentialCache] = None, skew: int = CLOCK_SKEW):
        self.identity = identity
        self.provider = provider
        self.skew = skew
        self.cache = cache if cache is not None else CredentialCache(identity.principal, skew)

    def build_as_request(self, tgs_id: str, requested_validity: Validity) -> AsRequest:
        """Fresh nonce; signature covers every other request field."""
        fields = (0, self.identity.principal, tgs_id, requested_validity,
                  self.provider.random_nonce(), self.identity.certificate)
        signature = self.provider.sign(self.identity.keypair.private_key,
                                       as_request_signable(AsRequest(*fields, b"")))
        return AsRequest(*fields, signature)

    def process_as_reply(self, reply: AsReply, sent_nonce1: bytes) -> CredEntry:
        """Open with the password key, then unwrap the pk-encrypted session key."""
        if reply.client != self.identity.principal:
            raise PrincipalMismatch("reply addressed to a different principal")
        k_c = self.provider.derive_key_from_password(
            self.identity.password, self.identity.principal.name, self.identity.principal.realm)
        try:
            plain = self.provider.open(k_c, reply.enc_part, SealLabel.AS_ENC_PART)
        except IntegrityError as exc:
            raise WrongPassword(f"cannot open the reply with the password-derived key: {exc}") from None
        enc: AsEncPart = codec.decode(plain, codec.SchemaId.ENC_PART_AS)
        if enc.nonce1 != sent_nonce1:
            raise NonceMismatch("reply nonce does not echo the request nonce")
        if reply.ticket.server != Principal(enc.tgs_id, enc.tgs_realm):
            raise PrincipalMismatch("ticket server hint does not match the sealed issuer identity")
        try:
            key_bytes = self.provider.pk_decrypt(self.identity.keypair.private_key,
                                                 enc.wrapped_session_key)
        except DecryptFailure as exc:
            raise PkDecryptFailure(str(exc)) from None
        entry = CredEntry(reply.ticket, SymmetricKey(key_bytes, self.provider.provider_id),
                          enc.validity)
        self.cache.store_tgt(entry)
        return entry

    def kinit(self, send_as: Callable[[AsRequest], AsReply], now: int,
              requested_validity: Optional[Validity] = None) -> CredEntry:
        req = self.build_as_request(TGS_NAME, requested_validity or Validity(now, now + DEFAULT_LIFETIME))
        return self.process_as_reply(send_as(req), req.nonce1)

    def get_service_ticket(self, service_id: str, now: int,
                           send_tgs: Callable[[TgsRequest], TgsReply]) -> CredEntry:
        """One ticket-granting exchange; requires a fresh TGT in the cache."""
        return request_service_ticket(self.cache, self.provider, service_id, now, send_tgs)


def request_service_ticket(cache: CredentialCache, provider: CryptoProvider,
                           service_id: str, now: int,
                           send_tgs: Callable[[TgsRequest], TgsReply]) -> CredEntry:
    """Ticket-granting exchange driven purely by the cache contents.

    Needs no password and no key pair, only the TGT; the sealed authenticator
    binds a digest of every request field so nothing travels unprotected.
    """
    tgt = cache.get_tgt(now)
    if tgt is None:
        raise NoTgt("no fresh ticket-granting ticket in the cache")
    validity = Validity(now, now + DEFAULT_LIFETIME)
    nonce2 = provider.random_nonce()
    fields = (0, service_id, validity, nonce2, tgt.ticket)  # all but the authenticator box
    sealed = TgsAuthenticator(Authenticator(cache.client.name, cache.client.realm, now),
                              request_digest(TgsRequest(*fields, None)))
    box = provider.seal(tgt.key, codec.encode(sealed), SealLabel.AUTHENTICATOR)
    req = TgsRequest(*fields, box)

    reply = send_tgs(req)
    if reply.client != cache.client:
        raise PrincipalMismatch("reply addressed to a different principal")
    plain = provider.open(tgt.key, reply.enc_part, SealLabel.TGS_ENC_PART)
    enc: TgsEncPart = codec.decode(plain, codec.SchemaId.ENC_PART_TGS)
    if enc.nonce2 != nonce2:
        raise NonceMismatch("reply nonce does not echo the request nonce")
    if reply.ticket.server != Principal(enc.service_id, enc.service_realm):
        raise PrincipalMismatch("ticket server hint does not match the sealed service identity")
    entry = CredEntry(reply.ticket, enc.session_key, enc.validity)
    cache.store_service(service_id, entry)
    return entry


def save_identity(identity: ClientIdentity, path: str) -> None:
    codec.save_records(path, [IdentityFile(identity.principal, identity.keypair.public_key,
                                           identity.keypair.private_key, identity.certificate)])


def load_identity(path: str, password: str) -> ClientIdentity:
    blob: IdentityFile = codec.load_record(path, codec.SchemaId.IDENTITY_FILE,
                                           CcacheParseError, "identity file")
    return ClientIdentity(blob.principal, password,
                          KeyPair(blob.public_key, blob.private_key), blob.certificate)
