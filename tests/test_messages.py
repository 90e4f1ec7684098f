"""Protocol message helpers: time windows, replay cache, authenticator checks."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerbpk import codec
from kerbpk.crypto import ToyProvider, get_provider
from kerbpk.errors import (MalformedName, PrincipalMismatch, ReplayDetected,
                           ReplayWindowLost, SkewExceeded, TicketExpired,
                           TicketNotYetValid, UnknownPrincipal, UnknownRemoteError)
from kerbpk import messages
from kerbpk.transport import ErrorReply
from kerbpk.messages import (CLOCK_SKEW, ApRequest, AsRequest, Authenticator,
                             Certificate, Principal, ReplayCache, SealedTicket,
                             TgsRequest, Validity, as_request_signable, decode_reply,
                             request_digest, validate_authenticator, validate_times)


# ---------------------------------------------------------------- time window

def test_validity_window_boundaries():
    window = Validity(1000, 2000)
    validate_times(window, 1000 - CLOCK_SKEW)  # earliest acceptable instant
    validate_times(window, 2000 + CLOCK_SKEW)  # latest acceptable instant
    with pytest.raises(TicketNotYetValid):
        validate_times(window, 1000 - CLOCK_SKEW - 1)
    with pytest.raises(TicketExpired):
        validate_times(window, 2000 + CLOCK_SKEW + 1)


# ------------------------------------------------------------- request bodies

def test_request_bodies_are_pinned():
    # Signatures and sealed digests already issued cover these exact bytes.
    alice = Principal("alice", "EXAMPLE")
    validity = Validity(1_000_000, 1_028_800)
    ticket = SealedTicket(Principal("krbtgt", "EXAMPLE"), b"\xa5" * 48)
    box = b"\x5a" * 40
    as_req = AsRequest(alice, "krbtgt", validity, b"\x01" * 16,
                       Certificate(alice, bytes(range(32)), 7), b"\x02" * 64)
    signable = as_request_signable(as_req)
    assert signable[:5] == bytes.fromhex("1c000000ac")  # AS_REQ_BODY, 172 bytes
    assert hashlib.sha256(signable).hexdigest() == \
        "ff7f09a1f8b35bc920e4a77ec1efc7aacb3c35cc2caa6c9fcbcadc71293a0110"
    tgs_req = TgsRequest("echo", validity, b"\x03" * 16, ticket, box)
    for provider in (get_provider("toy"), get_provider("standard")):  # the same SHA-256
        assert request_digest(tgs_req, provider).hex() == \
            "2413d5247d8464a35700d4ea0a2cca8ffbe29973e37411a51ea3ad4c5dc17762"
        assert request_digest(ApRequest(ticket, box), provider).hex() == \
            "048c312799033d6cc0650f44819dcbf506d235906e830b0f8261ea7c2b378857"


# --------------------------------------------------------------- replay cache

def test_replay_cache_detects_duplicates():
    cache = ReplayCache()
    cache.check_and_insert(("EXAMPLE", "alice", 100, b"d1"), now=100)
    with pytest.raises(ReplayDetected):
        cache.check_and_insert(("EXAMPLE", "alice", 100, b"d1"), now=105)
    # a different sealed envelope in the same second is not a replay
    cache.check_and_insert(("EXAMPLE", "alice", 100, b"d2"), now=105)


def test_replay_cache_window_pruning():
    assert messages.REPLAY_WINDOW == 2 * CLOCK_SKEW
    cache = ReplayCache()
    key = ("EXAMPLE", "alice", 100, b"d")
    cache.check_and_insert(key, now=100)
    with pytest.raises(ReplayDetected):
        cache.check_and_insert(key, now=100 + 600)  # still inside the window
    cache.check_and_insert(key, now=100 + 601)  # pruned; accepted again


def test_replay_cache_capacity_evicts_oldest(monkeypatch):
    monkeypatch.setattr(messages, "REPLAY_CAPACITY", 3)
    cache = ReplayCache()
    for i in range(4):
        cache.check_and_insert(("R", "u", i, b""), now=i)
    assert len(cache) == 3
    with pytest.raises(ReplayWindowLost):
        cache.check_and_insert(("R", "u", 0, b""), now=10)  # evicted, so at the floor
    with pytest.raises(ReplayDetected):
        cache.check_and_insert(("R", "u", 3, b""), now=10)
    cache.check_and_insert(("R", "u", 1, b"other"), now=10)  # above the floor
    with pytest.raises(ReplayWindowLost):
        cache.check_and_insert(("R", "u", 1, b""), now=10)  # evicted just now


def test_replay_cache_floor_is_the_evicted_principals_alone(monkeypatch):
    monkeypatch.setattr(messages, "REPLAY_CAPACITY", 2)
    cache = ReplayCache()
    for i in range(3):  # bob's entry at 100 is evicted
        cache.check_and_insert(("R", "bob", 100 + i, bytes([i])), now=100)
    cache.check_and_insert(("R", "alice", 50, b""), now=100)  # below bob's floor: no matter
    with pytest.raises(ReplayWindowLost):  # evicting bob's 101 raised his floor
        cache.check_and_insert(("R", "bob", 101, b"new"), now=100)
    late = 100 + messages.REPLAY_WINDOW + 2  # the floor fell out of the window
    cache.check_and_insert(("R", "bob", 101, b"new"), now=late)


# -------------------------------------------------------- authenticator checks

ALICE = Principal("alice", "EXAMPLE")
BOX = b"\x01" * 32  # the sealed authenticator, as it came off the wire
PROVIDER = ToyProvider()  # hashes the replay key


def test_authenticator_accepts_matching_fresh_unique():
    cache = ReplayCache()
    validate_authenticator(Authenticator("alice", "EXAMPLE", 1000), ALICE, 1000, cache, BOX,
                           PROVIDER)
    assert len(cache) == 1


def test_authenticator_identity_checked_before_freshness():
    # a stale AND misnamed authenticator reports the name problem
    stale_wrong = Authenticator("mallory", "EXAMPLE", 0)
    with pytest.raises(PrincipalMismatch):
        validate_authenticator(stale_wrong, ALICE, 10_000, ReplayCache(), BOX, PROVIDER)
    with pytest.raises(PrincipalMismatch):
        validate_authenticator(Authenticator("alice", "ELSEWHERE", 1000), ALICE,
                               1000, ReplayCache(), BOX, PROVIDER)


def test_authenticator_freshness_checked_before_uniqueness():
    cache = ReplayCache()
    stale = Authenticator("alice", "EXAMPLE", 1000)
    with pytest.raises(SkewExceeded):
        validate_authenticator(stale, ALICE, 1000 + CLOCK_SKEW + 1, cache, BOX, PROVIDER)
    assert len(cache) == 0  # failed checks leave no trace


def test_authenticator_replay_detected():
    cache = ReplayCache()
    auth = Authenticator("alice", "EXAMPLE", 1000)
    validate_authenticator(auth, ALICE, 1000, cache, BOX, PROVIDER)
    with pytest.raises(ReplayDetected):
        validate_authenticator(auth, ALICE, 1001, cache, BOX, PROVIDER)
    validate_authenticator(auth, ALICE, 1001, cache, b"\x02" * 32, PROVIDER)


# ------------------------------------------------------------ name validation

def test_principal_name_rules():
    Principal("svc/host.example.test", "EXAMPLE")  # slash fine in names
    with pytest.raises(MalformedName):
        Principal("", "EXAMPLE")
    with pytest.raises(MalformedName):
        Principal("al ice", "EXAMPLE")
    with pytest.raises(MalformedName):
        Principal("ålice", "EXAMPLE")
    with pytest.raises(MalformedName):
        Principal("alice", "EX/MPLE")  # realms never contain slashes
    with pytest.raises(MalformedName):
        Principal("alice", "")


def _set_rule(value: str, what: str, allow_slash: bool) -> str:
    """The message the set-difference rule gave for ``value``, or "" if it passed."""
    if not value:
        return f"{what} must be non-empty"
    bad = set(value) - frozenset(chr(c) for c in range(0x21, 0x7F))
    if bad:
        return f"{what} contains non-printable or non-ASCII characters: {sorted(bad)!r}"
    if not allow_slash and "/" in value:
        return f"{what} must not contain '/'"
    return ""


_NEAR_NAMES = st.text(alphabet=st.sampled_from(
    [chr(c) for c in range(0x00, 0x81)] + ["\xa0", "\xe5", "\u2028", "\u3000", "\U0001f600"]))


@given(st.text() | _NEAR_NAMES, st.booleans())
@settings(max_examples=400, deadline=None)
def test_name_check_matches_the_set_rule(value, allow_slash):
    expected = _set_rule(value, "name", allow_slash)
    try:
        messages._check_name(value, "name", allow_slash)
    except MalformedName as exc:
        assert str(exc) == expected
    else:
        assert expected == ""


# ---------------------------------------------------------------- decode_reply

def test_decode_reply_passes_expected_schema():
    blob = codec.encode(Validity(1, 2))
    assert decode_reply(blob, codec.SchemaId.VALIDITY) == Validity(1, 2)


def test_decode_reply_raises_transported_error_by_name():
    blob = codec.encode(ErrorReply("UnknownPrincipal", "no such user"))
    with pytest.raises(UnknownPrincipal, match="no such user"):
        decode_reply(blob, codec.SchemaId.VALIDITY)


def test_decode_reply_unknown_error_name():
    blob = codec.encode(ErrorReply("TotallyMadeUp", "??"))
    with pytest.raises(UnknownRemoteError):
        decode_reply(blob, codec.SchemaId.VALIDITY)
    # a client-side wrapper is never a peer's error to report
    blob = codec.encode(ErrorReply("FetchError", "AS: NoTgt"))
    with pytest.raises(UnknownRemoteError, match="FetchError"):
        decode_reply(blob, codec.SchemaId.VALIDITY)
