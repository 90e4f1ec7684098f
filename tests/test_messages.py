"""Protocol message helpers: time windows, replay cache, authenticator checks."""

import hashlib

import pytest

from kerbpk import codec
from kerbpk.crypto import SealedBox
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
    ticket = SealedTicket(Principal("krbtgt", "EXAMPLE"), SealedBox(b"\xa5" * 48, 1))
    box = SealedBox(b"\x5a" * 40, 3)
    as_req = AsRequest(0, alice, "krbtgt", validity, b"\x01" * 16,
                       Certificate(alice, bytes(range(32)), 7), b"\x02" * 64)
    signable = as_request_signable(as_req)
    assert signable[:5] == bytes.fromhex("1c000000c9")  # AS_REQ_BODY, 201 bytes
    assert hashlib.sha256(signable).hexdigest() == \
        "2b9239304a5ceb2f0f1f84e6e170d007fcd6be0cf9334ca744dd6b4e5393e0f4"
    tgs_req = TgsRequest(0, "echo", validity, b"\x03" * 16, ticket, box)
    assert request_digest(tgs_req).hex() == \
        "3d5dd19e23ca077ad79f3d324c0c5a729aecb584be44094e1f4ed435156332fc"
    assert request_digest(ApRequest(0, ticket, box)).hex() == \
        "3c656e4a609cde23de4d0eccd79c1875ca53751ffa6bf988f5f33bd7d49ef1f2"


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


# -------------------------------------------------------- authenticator checks

ALICE = Principal("alice", "EXAMPLE")
BOX = SealedBox(b"\x01" * 32, 4)  # the sealed authenticator, as it came off the wire


def test_authenticator_accepts_matching_fresh_unique():
    cache = ReplayCache()
    validate_authenticator(Authenticator("alice", "EXAMPLE", 1000), ALICE, 1000, cache, BOX)
    assert len(cache) == 1


def test_authenticator_identity_checked_before_freshness():
    # a stale AND misnamed authenticator reports the name problem
    stale_wrong = Authenticator("mallory", "EXAMPLE", 0)
    with pytest.raises(PrincipalMismatch):
        validate_authenticator(stale_wrong, ALICE, 10_000, ReplayCache(), BOX)
    with pytest.raises(PrincipalMismatch):
        validate_authenticator(Authenticator("alice", "ELSEWHERE", 1000), ALICE,
                               1000, ReplayCache(), BOX)


def test_authenticator_freshness_checked_before_uniqueness():
    cache = ReplayCache()
    stale = Authenticator("alice", "EXAMPLE", 1000)
    with pytest.raises(SkewExceeded):
        validate_authenticator(stale, ALICE, 1000 + CLOCK_SKEW + 1, cache, BOX)
    assert len(cache) == 0  # failed checks leave no trace


def test_authenticator_replay_detected():
    cache = ReplayCache()
    auth = Authenticator("alice", "EXAMPLE", 1000)
    validate_authenticator(auth, ALICE, 1000, cache, BOX)
    with pytest.raises(ReplayDetected):
        validate_authenticator(auth, ALICE, 1001, cache, BOX)
    validate_authenticator(auth, ALICE, 1001, cache, SealedBox(b"\x02" * 32, 4))


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
