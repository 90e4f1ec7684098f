"""Security contexts over the ticket exchange, in the style of a generic
security-service API.

Callers name principals directly, acquire a credential bound to a usage
(Initiate for clients holding a credential cache, Accept for services holding
their long-term key), then drive ``step`` until the context is complete.  The
mechanism needs exactly two legs: the initiator presents a service ticket with
a fresh sealed authenticator, the acceptor answers with a sealed timestamp
echo, a fresh subkey, and its initial sequence number.

Mutual authentication, replay detection, and sequence checking are all
mandatory; an initiator asking for less is refused.  Established contexts
exchange WrapTokens sealed under the subkey only, with the sequence number and
direction bound into the sealed bytes, and deliver strictly in order: each
side expects exactly the next sequence number, so a lower one is a replay and
a higher one is out of sequence.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Optional

from . import codec
from .crypto import CryptoProvider, SealedBox, SealLabel, SymmetricKey
from .errors import (
    IntegrityError,
    MissingBacking,
    MutualAuthFailure,
    OutOfSequence,
    ReplayDetected,
    RequiredFlagMissing,
    StateError,
    TokenIntegrityError,
    UsageViolation,
    WrapIntegrityError,
    WrongDirection,
)
from .messages import (
    CLOCK_SKEW,
    ApEncPart,
    ApReply,
    ApRequest,
    Authenticator,
    Principal,
    ReplayCache,
    TicketBody,
    ap_request_digest,
    validate_authenticator,
    validate_times,
)

MECHANISM = "kerbpk-ticket"

LEG_INIT = 1
LEG_REPLY = 2

DIR_INITIATOR_TO_ACCEPTOR = 1
DIR_ACCEPTOR_TO_INITIATOR = 2

#: Mutual, replay, and sequence, sealed into every leg-1 authenticator.
ALL_FLAGS = 0x7


class NameType(IntEnum):
    PRINCIPAL_NAME = 2


class CredentialUsage(IntEnum):
    INITIATE = 1
    ACCEPT = 2


class ContextState(Enum):
    INITIAL = "initial"
    AWAITING_REPLY = "awaiting-reply"
    COMPLETE = "complete"
    FAILED = "failed"


@dataclass(frozen=True)
class MechanismName:
    principal: Principal
    name_type: NameType
    mechanism: str


@dataclass(frozen=True)
class ReqFlags:
    """The services a caller asks for; all three are mandatory."""
    mutual: bool = True
    replay: bool = True
    sequence: bool = True


@dataclass(frozen=True)
class ContextCredential:
    name: MechanismName
    usage: CredentialUsage
    backing: object


def acquire_credential(name: MechanismName, usage: CredentialUsage, backing) -> ContextCredential:
    """Bind a name to a usage; the backing must fit the usage."""
    from .client import CredentialCache  # local import to avoid a cycle

    if usage == CredentialUsage.INITIATE:
        if not isinstance(backing, CredentialCache):
            raise MissingBacking("initiate credentials need a credential cache")
    elif usage == CredentialUsage.ACCEPT:
        if not isinstance(backing, SymmetricKey):
            raise MissingBacking("accept credentials need the service long-term key")
    else:
        raise MissingBacking(f"unknown usage {usage!r}")
    return ContextCredential(name, CredentialUsage(usage), backing)


@dataclass(frozen=True)
class ContextAuthenticator:
    """Sealed leg-1 body: the plain authenticator plus the context bindings."""
    authenticator: Authenticator
    flags: int
    initial_seq: int
    request_digest: bytes


@dataclass(frozen=True)
class ContextToken:
    leg: int
    body: bytes


@dataclass(frozen=True)
class WrapToken:
    seq: int
    direction: int
    box: SealedBox


@dataclass(frozen=True)
class WrapBody:
    seq: int
    direction: int
    payload: bytes


codec.register(ContextAuthenticator, codec.SchemaId.CONTEXT_AUTHENTICATOR, [
    ("authenticator", "struct", Authenticator),
    ("flags", "u32"),
    ("initial_seq", "u64"),
    ("request_digest", "bytes"),
])
codec.register(ContextToken, codec.SchemaId.CONTEXT_TOKEN, [
    ("leg", "u8"),
    ("body", "bytes"),
])
codec.register(WrapToken, codec.SchemaId.WRAP_TOKEN, [
    ("seq", "u64"),
    ("direction", "u8"),
    ("box", "struct", SealedBox),
])
codec.register(WrapBody, codec.SchemaId.WRAP_BODY, [
    ("seq", "u64"),
    ("direction", "u8"),
    ("payload", "bytes"),
])


class SecurityContext:
    """State shared by both roles once the handshake settles."""

    def __init__(self, role: CredentialUsage, provider: CryptoProvider):
        self.role = role
        self.provider = provider
        self.state = ContextState.INITIAL
        self.session_key: Optional[SymmetricKey] = None
        self.subkey: Optional[SymmetricKey] = None
        self.send_seq = 0
        self.recv_seq = 0
        self.peer: Optional[Principal] = None
        self._lock = threading.Lock()

    @property
    def established(self) -> bool:
        return self.state is ContextState.COMPLETE

    def _send_direction(self) -> int:
        return (DIR_INITIATOR_TO_ACCEPTOR if self.role == CredentialUsage.INITIATE
                else DIR_ACCEPTOR_TO_INITIATOR)

    def wrap(self, payload: bytes) -> WrapToken:
        """Seal a payload under the subkey, tagged with seq and direction."""
        if not self.established:
            raise StateError("wrap before the context is complete")
        with self._lock:
            seq = self.send_seq
            self.send_seq += 1
        direction = self._send_direction()
        body = codec.encode(WrapBody(seq, direction, payload))
        return WrapToken(seq, direction, self.provider.seal(self.subkey, body, SealLabel.WRAP))

    def unwrap(self, token: WrapToken) -> bytes:
        """Direction, integrity, binding, then the strict sequence check."""
        if not self.established:
            raise StateError("unwrap before the context is complete")
        expected_dir = (DIR_ACCEPTOR_TO_INITIATOR if self.role == CredentialUsage.INITIATE
                        else DIR_INITIATOR_TO_ACCEPTOR)
        if token.direction != expected_dir:
            raise WrongDirection(f"token direction {token.direction}, expected {expected_dir}")
        try:
            plain = self.provider.open(self.subkey, token.box, SealLabel.WRAP)
        except IntegrityError as exc:
            raise WrapIntegrityError(str(exc)) from None
        body: WrapBody = codec.decode(plain, codec.SchemaId.WRAP_BODY)
        if body.seq != token.seq or body.direction != token.direction:
            raise WrapIntegrityError("sealed seq/direction do not match the token header")
        with self._lock:
            # below the next expected number: accepted before, or never sealed
            if body.seq < self.recv_seq:
                raise ReplayDetected(f"wrap token seq {body.seq} already accepted")
            if body.seq > self.recv_seq:
                raise OutOfSequence(f"wrap token seq {body.seq}, expected {self.recv_seq}")
            self.recv_seq += 1
        return body.payload


class ContextInitiator:
    """Client half of the handshake; drives ``step`` with received tokens.

    ``ticket_source(target, now)`` returns the (ticket, session key) pair to
    present; it decides whether a ticket exchange happens first.
    """

    def __init__(self, cred: ContextCredential, target: MechanismName, flags: ReqFlags,
                 provider: CryptoProvider, ticket_source: Callable):
        if cred.usage != CredentialUsage.INITIATE:
            raise UsageViolation("initiator needs an Initiate credential")
        if not (flags.mutual and flags.replay and flags.sequence):
            raise RequiredFlagMissing("mutual, replay, and sequence flags are all mandatory")
        self.cred = cred
        self.target = target
        self.provider = provider
        self.ticket_source = ticket_source
        self.context = SecurityContext(CredentialUsage.INITIATE, provider)
        self._ts1: Optional[int] = None

    def step(self, input_token: Optional[ContextToken], now: int) -> tuple[Optional[ContextToken], ContextState]:
        ctx = self.context
        if ctx.state is ContextState.INITIAL:
            if input_token is not None:
                raise StateError("first initiator step takes no input token")
            ticket, session_key = self.ticket_source(self.target.principal, now)
            initial_seq = int.from_bytes(self.provider.random_nonce(), "big") >> 1
            fields = (0, ticket)  # all but the authenticator box
            auth = Authenticator(self.cred.name.principal.name,
                                 self.cred.name.principal.realm, now)
            sealed = ContextAuthenticator(auth, ALL_FLAGS, initial_seq,
                                          ap_request_digest(ApRequest(*fields, None)))
            box = self.provider.seal(session_key, codec.encode(sealed), SealLabel.AUTHENTICATOR)
            request = ApRequest(*fields, box)
            ctx.session_key = session_key
            ctx.send_seq = initial_seq
            ctx.state = ContextState.AWAITING_REPLY
            self._ts1 = now
            return ContextToken(LEG_INIT, codec.encode(request)), ctx.state
        if ctx.state is ContextState.AWAITING_REPLY:
            if input_token is None:
                raise StateError("initiator is waiting for the acceptor's token")
            try:
                if input_token.leg != LEG_REPLY:
                    raise StateError(f"expected leg {LEG_REPLY}, got {input_token.leg}")
                reply: ApReply = codec.decode(input_token.body, codec.SchemaId.AP_REPLY)
                try:
                    plain = self.provider.open(ctx.session_key, reply.enc_part,
                                               SealLabel.AP_ENC_PART)
                except IntegrityError as exc:
                    raise TokenIntegrityError(str(exc)) from None
                enc: ApEncPart = codec.decode(plain, codec.SchemaId.ENC_PART_AP)
                if enc.ts2 != self._ts1:
                    raise MutualAuthFailure(
                        f"acceptor echoed {enc.ts2}, expected our timestamp {self._ts1}")
            except Exception:
                ctx.state = ContextState.FAILED
                raise
            ctx.subkey = enc.subkey
            ctx.recv_seq = enc.initial_seq
            ctx.peer = self.target.principal
            ctx.state = ContextState.COMPLETE
            return None, ctx.state
        raise StateError(f"initiator stepped in state {ctx.state.value}")


def initiator_for(cache, service: str, provider: CryptoProvider,
                  ticket_source: Callable) -> ContextInitiator:
    """Initiator for the cache's client toward ``service`` in the client's realm."""
    cred = acquire_credential(MechanismName(cache.client, NameType.PRINCIPAL_NAME, MECHANISM),
                              CredentialUsage.INITIATE, cache)
    target = MechanismName(Principal(service, cache.client.realm),
                           NameType.PRINCIPAL_NAME, MECHANISM)
    return ContextInitiator(cred, target, ReqFlags(), provider, ticket_source)


class ContextAcceptor:
    """Service half; validates leg 1 and answers with the sealed echo.

    ``replay_cache`` is the service's own, shared by every connection it
    accepts, so a first leg replayed on another connection is caught.
    """

    def __init__(self, cred: ContextCredential, provider: CryptoProvider,
                 replay_cache: ReplayCache):
        if cred.usage != CredentialUsage.ACCEPT:
            raise UsageViolation("acceptor needs an Accept credential")
        self.cred = cred
        self.provider = provider
        self.replay_cache = replay_cache
        self.context = SecurityContext(CredentialUsage.ACCEPT, provider)

    def step(self, input_token: ContextToken, now: int) -> tuple[Optional[ContextToken], ContextState]:
        ctx = self.context
        if ctx.state is not ContextState.INITIAL:
            raise StateError(f"acceptor stepped in state {ctx.state.value}")
        try:
            if input_token is None or input_token.leg != LEG_INIT:
                raise StateError("acceptor expects the handshake's first token")
            request: ApRequest = codec.decode(input_token.body, codec.SchemaId.AP_REQUEST)
            try:
                body_bytes = self.provider.open(self.cred.backing, request.ticket.box,
                                                SealLabel.TICKET)
            except IntegrityError as exc:
                raise TokenIntegrityError(f"ticket does not open under this service key: {exc}") from None
            body: TicketBody = codec.decode(body_bytes, codec.SchemaId.TICKET_BODY)
            validate_times(body.validity, now, CLOCK_SKEW)
            try:
                auth_bytes = self.provider.open(body.session_key, request.authenticator,
                                                SealLabel.AUTHENTICATOR)
            except IntegrityError as exc:
                raise TokenIntegrityError(f"authenticator does not open: {exc}") from None
            sealed: ContextAuthenticator = codec.decode(
                auth_bytes, codec.SchemaId.CONTEXT_AUTHENTICATOR)
            if sealed.request_digest != ap_request_digest(request):
                raise TokenIntegrityError("request fields do not match the sealed digest")
            if sealed.flags & ALL_FLAGS != ALL_FLAGS:
                raise RequiredFlagMissing("peer did not assert all mandatory context flags")
            validate_authenticator(sealed.authenticator,
                                   Principal(body.client_id, body.client_realm),
                                   now, CLOCK_SKEW, self.replay_cache,
                                   hashlib.sha256(request.authenticator.ciphertext).digest())
        except Exception:
            ctx.state = ContextState.FAILED
            raise

        subkey = self.provider.random_session_key()
        initial_seq = int.from_bytes(self.provider.random_nonce(), "big") >> 1
        enc = ApEncPart(sealed.authenticator.timestamp, subkey, initial_seq)
        box = self.provider.seal(body.session_key, codec.encode(enc), SealLabel.AP_ENC_PART)
        ctx.session_key = body.session_key
        ctx.subkey = subkey
        ctx.send_seq = initial_seq
        ctx.recv_seq = sealed.initial_seq
        ctx.peer = Principal(body.client_id, body.client_realm)
        ctx.state = ContextState.COMPLETE
        return ContextToken(LEG_REPLY, codec.encode(ApReply(box))), ctx.state

