"""Security contexts over the ticket exchange, in the style of a generic
security-service API.

Callers name principals directly: a client acquires an Initiate credential
over its credential cache, a service hands its acceptor its long-term key, and
both drive ``step`` until the context is complete.  The mechanism needs
exactly two legs: the initiator presents a service ticket with a fresh sealed
authenticator (an ApRequest), the acceptor answers with a sealed timestamp
echo, a fresh subkey, and its initial sequence number (an ApReply).  Each leg
travels as a frame of its own, named by its schema id alone, as a context
token is by its token ID (RFC 4121 4.1); no wrapper repeats it.

Mutual authentication, replay detection, and sequence checking are all
mandatory; an initiator asking for less is refused.  Established contexts
exchange WrapTokens, each its payload sealed under the subkey only with the
token's header (sequence number, direction) as associated data: the seal
protects the header, not a copy of it (RFC 4121 4.2.4).  Tokens deliver
strictly in order: each side expects exactly the next sequence number, so a
lower one is a replay and a higher one is out of sequence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Optional

from . import codec
from .crypto import CryptoProvider, SealLabel, SymmetricKey
from .errors import (
    AuthenticatorIntegrityError,
    IntegrityError,
    MissingBacking,
    MutualAuthFailure,
    OutOfSequence,
    ReplayDetected,
    RequestDigestMismatch,
    RequiredFlagMissing,
    StateError,
    TicketIntegrityError,
    TokenIntegrityError,
    UsageViolation,
    WrapIntegrityError,
    WrongDirection,
)
from .messages import (
    ApEncPart,
    ApReply,
    ApRequest,
    Authenticator,
    Principal,
    ReplayCache,
    Validity,
    accept_ticket,
    request_digest,
)

MECHANISM = "kerbpk-ticket"

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
    """Bind a client's name to the Initiate usage; the backing must be its
    credential cache.  An acceptor takes the service key itself."""
    from .client import CredentialCache  # local import to avoid a cycle

    if usage != CredentialUsage.INITIATE:
        raise MissingBacking(f"only initiate credentials are acquired, not usage {usage!r}")
    if not isinstance(backing, CredentialCache):
        raise MissingBacking("initiate credentials need a credential cache")
    return ContextCredential(name, CredentialUsage.INITIATE, backing)


@codec.structure(codec.SchemaId.CONTEXT_AUTHENTICATOR)
@dataclass(frozen=True)
class ContextAuthenticator:
    """Sealed leg-1 body: the plain authenticator plus the context bindings."""
    authenticator: Authenticator
    flags: codec.U32
    initial_seq: codec.U64
    request_digest: bytes


@codec.structure(codec.SchemaId.WRAP_TOKEN)
@dataclass(frozen=True)
class WrapToken:
    seq: codec.U64
    direction: codec.U8
    box: bytes  # the payload, sealed with wrap_header(seq, direction) as associated data


def wrap_header(seq: int, direction: int) -> bytes:
    """The associated data a wrap token's seal binds: seq (u64) then direction (u8)."""
    return seq.to_bytes(8, "big") + bytes([direction])


class SecurityContext:
    """State shared by both roles once the handshake settles."""

    def __init__(self, role: CredentialUsage, provider: CryptoProvider):
        initiator = role == CredentialUsage.INITIATE
        self._send_dir = DIR_INITIATOR_TO_ACCEPTOR if initiator else DIR_ACCEPTOR_TO_INITIATOR
        self._recv_dir = DIR_ACCEPTOR_TO_INITIATOR if initiator else DIR_INITIATOR_TO_ACCEPTOR
        self.provider = provider
        self.state = ContextState.INITIAL
        self.session_key: Optional[SymmetricKey] = None
        self.subkey: Optional[SymmetricKey] = None
        self.send_seq = 0
        self.recv_seq = 0
        self.peer: Optional[Principal] = None
        self.validity: Optional[Validity] = None
        self._lock = threading.Lock()

    @property
    def established(self) -> bool:
        return self.state is ContextState.COMPLETE

    def wrap(self, payload: bytes) -> WrapToken:
        """Seal a payload under the subkey, binding its seq and direction."""
        if not self.established:
            raise StateError("wrap before the context is complete")
        with self._lock:
            seq = self.send_seq
            self.send_seq += 1
        box = self.provider.seal(self.subkey, payload, SealLabel.WRAP,
                                 wrap_header(seq, self._send_dir))
        return WrapToken(seq, self._send_dir, box)

    def unwrap(self, token: WrapToken) -> bytes:
        """Direction, integrity (seq and direction included), then the strict sequence check."""
        if not self.established:
            raise StateError("unwrap before the context is complete")
        if token.direction != self._recv_dir:
            raise WrongDirection(f"token direction {token.direction}, expected {self._recv_dir}")
        try:
            payload = self.provider.open(self.subkey, token.box, SealLabel.WRAP,
                                         wrap_header(token.seq, token.direction))
        except IntegrityError as exc:
            raise WrapIntegrityError(str(exc)) from None
        with self._lock:
            # below the next expected number: accepted before, or never sealed
            if token.seq < self.recv_seq:
                raise ReplayDetected(f"wrap token seq {token.seq} already accepted")
            if token.seq > self.recv_seq:
                raise OutOfSequence(f"wrap token seq {token.seq}, expected {self.recv_seq}")
            self.recv_seq += 1
        return payload


class ContextInitiator:
    """Client half of the handshake: ``step(None)`` returns the ApRequest to
    send, and ``step`` of the acceptor's ApReply completes the context.

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

    def step(self, input_token: Optional[ApReply], now: int) -> tuple[Optional[ApRequest], ContextState]:
        ctx = self.context
        if ctx.state is ContextState.INITIAL:
            if input_token is not None:
                raise StateError("first initiator step takes no input token")
            ticket, session_key = self.ticket_source(self.target.principal, now)
            initial_seq = int.from_bytes(self.provider.random_nonce(), "big") >> 1
            fields = (ticket,)  # all but the authenticator box
            auth = Authenticator(self.cred.name.principal.name,
                                 self.cred.name.principal.realm, now)
            sealed = ContextAuthenticator(auth, ALL_FLAGS, initial_seq,
                                          request_digest(ApRequest(*fields, None), self.provider))
            box = self.provider.seal(session_key, codec.encode(sealed), SealLabel.AUTHENTICATOR)
            request = ApRequest(*fields, box)
            ctx.session_key = session_key
            ctx.send_seq = initial_seq
            ctx.state = ContextState.AWAITING_REPLY
            self._ts1 = now
            return request, ctx.state
        if ctx.state is ContextState.AWAITING_REPLY:
            if input_token is None:
                raise StateError("initiator is waiting for the acceptor's token")
            try:
                try:
                    plain = self.provider.open(ctx.session_key, input_token.enc_part,
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
    """Service half; validates the ApRequest and answers with the ApReply that
    carries the sealed echo.

    ``key`` is the service's long-term key, which opens the presented ticket.
    ``replay_cache`` is the service's own, shared by every connection it
    accepts, so a first leg replayed on another connection is caught.
    """

    def __init__(self, key: SymmetricKey, provider: CryptoProvider, replay_cache: ReplayCache):
        self.key = key
        self.provider = provider
        self.replay_cache = replay_cache
        self.context = SecurityContext(CredentialUsage.ACCEPT, provider)

    def step(self, input_token: ApRequest, now: int) -> tuple[ApReply, ContextState]:
        ctx = self.context
        if ctx.state is not ContextState.INITIAL:
            raise StateError(f"acceptor stepped in state {ctx.state.value}")
        try:
            if input_token is None:
                raise StateError("acceptor expects the handshake's first token")
            try:
                body, sealed = accept_ticket(input_token, self.key,
                                             codec.SchemaId.CONTEXT_AUTHENTICATOR, now,
                                             self.replay_cache, self.provider)
            except (TicketIntegrityError, AuthenticatorIntegrityError,
                    RequestDigestMismatch) as exc:
                raise TokenIntegrityError(str(exc)) from None
            if sealed.flags & ALL_FLAGS != ALL_FLAGS:
                raise RequiredFlagMissing("peer did not assert all mandatory context flags")
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
        ctx.validity = body.validity
        ctx.state = ContextState.COMPLETE
        return ApReply(box), ctx.state

