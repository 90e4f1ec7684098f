"""Exception hierarchy shared by every layer.

Every protocol-visible failure has its own class so callers can match on type
and servers can report the class name over the wire.  ``error_by_name`` maps a
reported name back to the matching class on the client side.
"""


class KerbPkError(Exception):
    """Base class for every error raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


# --- codec ---

class CodecError(KerbPkError):
    pass


class FieldTooLarge(CodecError):
    pass


class Truncated(CodecError):
    pass


class UnknownTag(CodecError):
    pass


class SchemaMismatch(CodecError):
    pass


class TrailingGarbage(CodecError):
    pass


class MalformedValue(CodecError):
    pass


# --- crypto provider ---

class CryptoError(KerbPkError):
    pass


class EmptyPassword(CryptoError):
    pass


class IntegrityError(CryptoError):
    pass


class ProviderMismatch(CryptoError):
    pass


class MalformedKey(CryptoError):
    pass


class PayloadTooLarge(CryptoError):
    pass


class DecryptFailure(CryptoError):
    pass


# --- protocol core ---

class ProtocolError(KerbPkError):
    pass


class MalformedName(ProtocolError):
    pass


class TicketNotYetValid(ProtocolError):
    pass


class TicketExpired(ProtocolError):
    pass


class SkewExceeded(ProtocolError):
    pass


class ReplayDetected(ProtocolError):
    pass


class PrincipalMismatch(ProtocolError):
    pass


class RequestDigestMismatch(ProtocolError):
    pass


# --- kdc ---

class KdcError(KerbPkError):
    pass


class UnknownPrincipal(KdcError):
    pass


class NoCertificateOnFile(KdcError):
    pass


class CertificateMismatch(KdcError):
    pass


class SignatureInvalid(KdcError):
    pass


class BadValidityWindow(KdcError):
    pass


class DuplicatePrincipal(KdcError):
    pass


class UnknownService(KdcError):
    pass


class TicketIntegrityError(KdcError):
    pass


class AuthenticatorIntegrityError(KdcError):
    pass


class AddressMismatch(KdcError):
    pass


class DbParseError(KdcError):
    pass


# --- client agent ---

class ClientError(KerbPkError):
    pass


class WrongPassword(ClientError):
    pass


class PkDecryptFailure(ClientError):
    pass


class NonceMismatch(ClientError):
    pass


class NoTgt(ClientError):
    pass


class CcacheParseError(ClientError):
    pass


# --- security context ---

class ContextError(KerbPkError):
    pass


class MissingBacking(ContextError):
    pass


class UsageViolation(ContextError):
    pass


class NoTicket(ContextError):
    pass


class RequiredFlagMissing(ContextError):
    pass


class MutualAuthFailure(ContextError):
    pass


class TokenIntegrityError(ContextError):
    pass


class StateError(ContextError):
    pass


class WrapIntegrityError(ContextError):
    pass


class OutOfSequence(ContextError):
    pass


class WrongDirection(ContextError):
    pass


# --- transport / harness ---

class TransportError(KerbPkError):
    pass


class FrameTooLarge(TransportError):
    pass


class FrameError(TransportError):
    pass


class ConnectionClosed(TransportError):
    pass


class Timeout(TransportError):
    pass


class ScenarioParseError(TransportError):
    pass


# --- gateway demo ---

class GatewayError(KerbPkError):
    pass


class PolicyParseError(GatewayError):
    pass


class BackendUnreachable(GatewayError):
    pass


class FetchError(GatewayError):
    """Client-side fetch failure with the pipeline step that failed.

    ``step`` is one of "AS", "TGS", "handshake", "channel".
    """

    def __init__(self, step: str, cause: KerbPkError):
        super().__init__(f"{step}: {cause.name}: {cause}")
        self.step = step
        self.cause = cause


class UnknownRemoteError(KerbPkError):
    """A peer reported an error name this build does not know."""


def _walk(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _walk(sub)


#: class-name -> exception class, for surfacing wire error reports verbatim.
error_by_name = {cls.__name__: cls for cls in _walk(KerbPkError)}


def raise_by_name(name: str, detail: str = "") -> "KerbPkError":
    """Raise the error class a peer reported, or UnknownRemoteError."""
    cls = error_by_name.get(name)
    if cls is None:
        raise UnknownRemoteError(f"{name}: {detail}")
    if cls is FetchError:
        raise UnknownRemoteError(f"{name}: {detail}")
    raise cls(detail)
