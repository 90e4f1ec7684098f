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

class EmptyPassword(KerbPkError):
    pass


class IntegrityError(KerbPkError):
    pass


class ProviderMismatch(KerbPkError):
    pass


class MalformedKey(KerbPkError):
    pass


class PayloadTooLarge(KerbPkError):
    pass


class DecryptFailure(KerbPkError):
    pass


# --- protocol core ---

class MalformedName(KerbPkError):
    pass


class TicketNotYetValid(KerbPkError):
    pass


class TicketExpired(KerbPkError):
    pass


class SkewExceeded(KerbPkError):
    pass


class ReplayDetected(KerbPkError):
    pass


class ReplayWindowLost(KerbPkError):
    pass


class PrincipalMismatch(KerbPkError):
    pass


class RequestDigestMismatch(KerbPkError):
    pass


# --- kdc ---

class UnknownPrincipal(KerbPkError):
    pass


class NoCertificateOnFile(KerbPkError):
    pass


class CertificateMismatch(KerbPkError):
    pass


class SignatureInvalid(KerbPkError):
    pass


class BadValidityWindow(KerbPkError):
    pass


class DuplicatePrincipal(KerbPkError):
    pass


class UnknownService(KerbPkError):
    pass


class TicketIntegrityError(KerbPkError):
    pass


class AuthenticatorIntegrityError(KerbPkError):
    pass


class AddressMismatch(KerbPkError):
    pass


class DbParseError(KerbPkError):
    pass


# --- client agent ---

class WrongPassword(KerbPkError):
    pass


class PkDecryptFailure(KerbPkError):
    pass


class NonceMismatch(KerbPkError):
    pass


class NoTgt(KerbPkError):
    pass


class CcacheParseError(KerbPkError):
    pass


# --- security context ---

class MissingBacking(KerbPkError):
    pass


class UsageViolation(KerbPkError):
    pass


class NoTicket(KerbPkError):
    pass


class RequiredFlagMissing(KerbPkError):
    pass


class MutualAuthFailure(KerbPkError):
    pass


class TokenIntegrityError(KerbPkError):
    pass


class StateError(KerbPkError):
    pass


class WrapIntegrityError(KerbPkError):
    pass


class OutOfSequence(KerbPkError):
    pass


class WrongDirection(KerbPkError):
    pass


# --- transport / harness ---

class FrameTooLarge(KerbPkError):
    pass


class ConnectionClosed(KerbPkError):
    pass


class Timeout(KerbPkError):
    pass


class ScenarioParseError(KerbPkError):
    pass


# --- gateway demo ---

class PolicyParseError(KerbPkError):
    pass


class BackendUnreachable(KerbPkError):
    pass


class FetchError(KerbPkError):
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
