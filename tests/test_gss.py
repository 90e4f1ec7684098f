"""Security contexts: credentials, the two-leg handshake, and the wrapped tunnel."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NOW, REALM, Realm, cache_ticket_source, initiator_factory
from kerbpk import codec, crypto
from kerbpk.crypto import SealLabel, get_provider
from kerbpk.errors import (IntegrityError, MissingBacking, MutualAuthFailure,
                           NoTicket, OutOfSequence, ReplayDetected,
                           RequiredFlagMissing, SchemaMismatch, SkewExceeded, StateError,
                           TicketExpired, TokenIntegrityError, UsageViolation,
                           WrapIntegrityError, WrongDirection)
from kerbpk.gss import (ALL_FLAGS, MECHANISM,
                        ContextAcceptor, ContextAuthenticator, ContextCredential,
                        ContextInitiator, ContextState, CredentialUsage,
                        MechanismName, NameType, ReqFlags, WrapToken,
                        acquire_credential, wrap_header)
from kerbpk.messages import (ApReply, ApRequest, Authenticator, Principal, ReplayCache,
                             request_digest)


def alice_name():
    return MechanismName(Principal("alice", REALM), NameType.PRINCIPAL_NAME, MECHANISM)


def echo_name():
    return MechanismName(Principal("echo", REALM), NameType.PRINCIPAL_NAME, MECHANISM)


def contexts(realm):
    init = initiator_factory(realm)(NOW)
    acc = ContextAcceptor(realm.service.long_term_key, realm.provider, ReplayCache())
    return init, acc


def established(logged_in):
    init, acc = contexts(logged_in)
    token, _ = init.step(None, NOW)
    reply, _ = acc.step(token, NOW)
    init.step(reply, NOW)
    return init, acc


def test_flag_bits_roundtrip(logged_in):
    # leg 1 seals the one mandatory flag set; the acceptor opens the same bits
    init, _ = contexts(logged_in)
    request, _ = init.step(None, NOW)
    plain = logged_in.provider.open(init.context.session_key, request.authenticator,
                                    SealLabel.AUTHENTICATOR)
    sealed = codec.decode(plain, codec.SchemaId.CONTEXT_AUTHENTICATOR)
    assert sealed.flags == ALL_FLAGS


# ---------------------------------------------------------------- credentials

def test_acquire_credential_checks_backing(logged_in):
    with pytest.raises(MissingBacking):
        acquire_credential(alice_name(), CredentialUsage.INITIATE,
                           logged_in.service.long_term_key)
    with pytest.raises(MissingBacking):
        acquire_credential(alice_name(), CredentialUsage.ACCEPT,
                           logged_in.service.long_term_key)  # acceptors take the key itself
    with pytest.raises(MissingBacking):
        acquire_credential(alice_name(), 99, logged_in.agent.cache)


def test_context_roles_check_credential_usage(logged_in):
    acred = ContextCredential(alice_name(), CredentialUsage.ACCEPT,
                              logged_in.service.long_term_key)
    source = cache_ticket_source(logged_in.agent.cache)
    with pytest.raises(UsageViolation):
        ContextInitiator(acred, echo_name(), ReqFlags(), logged_in.provider, source)


def test_all_three_flags_are_mandatory(logged_in):
    icred = acquire_credential(alice_name(), CredentialUsage.INITIATE, logged_in.agent.cache)
    source = cache_ticket_source(logged_in.agent.cache)
    for flags in (ReqFlags(mutual=False), ReqFlags(replay=False), ReqFlags(sequence=False)):
        with pytest.raises(RequiredFlagMissing):
            ContextInitiator(icred, echo_name(), flags, logged_in.provider, source)


# ------------------------------------------------------------------- handshake

def test_handshake_completes_in_two_legs(logged_in):
    init, acc = contexts(logged_in)
    token, state = init.step(None, NOW)
    assert (type(token), state) == (ApRequest, ContextState.AWAITING_REPLY)
    reply, state = acc.step(token, NOW)
    assert (type(reply), state) == (ApReply, ContextState.COMPLETE)
    assert init.step(reply, NOW) == (None, ContextState.COMPLETE)  # nothing more to send
    assert init.context.established and acc.context.established
    assert init.context.peer == Principal("echo", REALM)
    assert acc.context.peer == Principal("alice", REALM)


def test_handshake_agrees_on_subkey_and_sequence_numbers(logged_in):
    init, acc = established(logged_in)
    assert init.context.subkey == acc.context.subkey
    assert init.context.subkey != init.context.session_key  # fresh per context
    assert acc.context.recv_seq == init.context.send_seq
    assert init.context.recv_seq == acc.context.send_seq


def test_handshake_without_a_ticket(realm):
    init, _ = contexts(realm)  # never logged in: cache is empty
    with pytest.raises(NoTicket):
        init.step(None, NOW)
    assert init.context.state is ContextState.INITIAL


def test_acceptor_echoes_the_initiator_timestamp(logged_in):
    init, acc = contexts(logged_in)
    token1, _ = init.step(None, NOW)
    reply, _ = acc.step(token1, NOW)
    plain = logged_in.provider.open(init.context.session_key, reply.enc_part,
                                    SealLabel.AP_ENC_PART)
    assert codec.decode(plain, codec.SchemaId.ENC_PART_AP).ts2 == NOW


def test_stale_reply_fails_mutual_auth(logged_in):
    # a reply captured from an earlier handshake echoes the wrong timestamp
    init1, acc = contexts(logged_in)
    token1, _ = init1.step(None, NOW)
    old_reply, _ = acc.step(token1, NOW)
    init2, _ = contexts(logged_in)
    init2.step(None, NOW + 5)
    with pytest.raises(MutualAuthFailure):
        init2.step(old_reply, NOW + 5)
    assert init2.context.state is ContextState.FAILED


def test_initiator_rejects_a_reply_that_does_not_open(logged_in):
    init, acc = contexts(logged_in)
    token, _ = init.step(None, NOW)
    reply, _ = acc.step(token, NOW)
    mutated = bytearray(reply.enc_part)
    mutated[0] ^= 1
    forged = dataclasses.replace(reply, enc_part=bytes(mutated))
    with pytest.raises(TokenIntegrityError):
        init.step(forged, NOW)
    assert init.context.state is ContextState.FAILED


def test_acceptor_rejects_second_step(logged_in):
    init, acc = contexts(logged_in)
    token1, _ = init.step(None, NOW)
    acc.step(token1, NOW)
    with pytest.raises(StateError):
        acc.step(token1, NOW)


def test_acceptor_rejects_wrong_leg(logged_in):
    _, acc = contexts(logged_in)
    with pytest.raises(StateError):
        acc.step(None, NOW)
    assert acc.context.state is ContextState.FAILED
    # on the wire a leg is named by its frame's schema id alone
    init, acc = contexts(logged_in)
    reply, _ = acc.step(init.step(None, NOW)[0], NOW)
    with pytest.raises(SchemaMismatch):
        codec.decode(codec.encode(reply), codec.SchemaId.AP_REQUEST)


def test_initiator_step_ordering_enforced(logged_in):
    init, acc = contexts(logged_in)
    token1, _ = init.step(None, NOW)
    with pytest.raises(StateError):
        init.step(None, NOW)  # waiting for the reply, got nothing
    reply, _ = acc.step(token1, NOW)
    with pytest.raises(SchemaMismatch):  # a first leg where the reply belongs
        codec.decode(codec.encode(token1), codec.SchemaId.AP_REPLY)
    init2, acc2 = established(logged_in)
    with pytest.raises(StateError):
        init2.step(None, NOW)  # already complete
    init3, _ = contexts(logged_in)
    with pytest.raises(StateError):
        init3.step(reply, NOW)  # a first step sends; it takes no token


# --------------------------------------------------------- leg-1 verification

def leg1(logged_in, now=NOW):
    init, acc = contexts(logged_in)
    token, _ = init.step(None, now)
    return init, acc, token


def test_acceptor_rejects_tampered_ticket(logged_in):
    _, acc, request = leg1(logged_in)
    mutated = bytearray(request.ticket.box)
    mutated[3] ^= 0x10
    forged = dataclasses.replace(
        request, ticket=dataclasses.replace(request.ticket, box=bytes(mutated)))
    with pytest.raises(TokenIntegrityError):
        acc.step(forged, NOW)
    assert acc.context.state is ContextState.FAILED


def test_acceptor_rejects_tampered_authenticator(logged_in):
    _, acc, request = leg1(logged_in)
    mutated = bytearray(request.authenticator)
    mutated[0] ^= 1
    forged = dataclasses.replace(request, authenticator=bytes(mutated))
    with pytest.raises(TokenIntegrityError):
        acc.step(forged, NOW)


def test_acceptor_rejects_request_outside_sealed_digest(logged_in):
    _, acc, request = leg1(logged_in)
    # the box still opens, but the plaintext server hint is covered by the digest
    forged = dataclasses.replace(
        request, ticket=dataclasses.replace(request.ticket, server=Principal("other", REALM)))
    with pytest.raises(TokenIntegrityError):
        acc.step(forged, NOW)


def test_acceptor_requires_all_flags_asserted(logged_in):
    entry = logged_in.agent.cache.peek_service("echo")
    sealed = ContextAuthenticator(Authenticator("alice", REALM, NOW), 0x3, 17,
                                  request_digest(ApRequest(entry.ticket, None),
                                                 logged_in.provider))
    box = logged_in.provider.seal(entry.key, codec.encode(sealed), SealLabel.AUTHENTICATOR)
    token = ApRequest(entry.ticket, box)
    cache = ReplayCache()
    acc = ContextAcceptor(logged_in.service.long_term_key, logged_in.provider, cache)
    with pytest.raises(RequiredFlagMissing):
        acc.step(token, NOW)
    # the flags are checked after the authenticator, which is recorded
    assert len(cache) == 1


def test_acceptor_rejects_expired_ticket(logged_in):
    _, acc, token = leg1(logged_in)
    entry = logged_in.agent.cache.peek_service("echo")
    late = entry.validity.till + 301
    with pytest.raises(TicketExpired):
        acc.step(token, late)


def test_acceptor_rejects_stale_authenticator(logged_in):
    _, acc, token = leg1(logged_in, now=NOW)
    with pytest.raises(SkewExceeded):
        acc.step(token, NOW + 301)


def test_shared_replay_cache_spans_acceptor_instances(logged_in):
    shared = ReplayCache()
    init, _ = contexts(logged_in)
    token, _ = init.step(None, NOW)
    key = logged_in.service.long_term_key
    first = ContextAcceptor(key, logged_in.provider, shared)
    second = ContextAcceptor(key, logged_in.provider, shared)
    first.step(token, NOW)
    with pytest.raises(ReplayDetected):
        second.step(token, NOW)  # fresh context, same cache: still a replay


# --------------------------------------------------------------------- tunnel

def test_wrap_unwrap_both_directions(logged_in):
    init, acc = established(logged_in)
    assert acc.context.unwrap(init.context.wrap(b"ping")) == b"ping"
    assert init.context.unwrap(acc.context.wrap(b"pong")) == b"pong"


def test_wrap_refused_before_establishment(logged_in):
    init, _ = contexts(logged_in)
    with pytest.raises(StateError):
        init.context.wrap(b"early")
    with pytest.raises(StateError):
        init.context.unwrap(WrapToken(0, 1, None))


def test_tunnel_uses_the_subkey_not_the_ticket_key(logged_in):
    init, acc = established(logged_in)
    token = init.context.wrap(b"secret")
    header = wrap_header(token.seq, token.direction)
    with pytest.raises(IntegrityError):
        logged_in.provider.open(init.context.session_key, token.box, SealLabel.WRAP, header)
    assert logged_in.provider.open(init.context.subkey, token.box, SealLabel.WRAP,
                                   header) == b"secret"


def test_unwrap_rejects_own_direction(logged_in):
    init, _ = established(logged_in)
    token = init.context.wrap(b"x")
    with pytest.raises(WrongDirection):
        init.context.unwrap(token)


def test_unwrap_rejects_tampered_box(logged_in):
    init, acc = established(logged_in)
    token = init.context.wrap(b"x")
    mutated = bytearray(token.box)
    mutated[1] ^= 0x80
    forged = dataclasses.replace(token, box=bytes(mutated))
    with pytest.raises(WrapIntegrityError):
        acc.context.unwrap(forged)


def test_unwrap_rejects_relabeled_header(logged_in):
    # the seal binds the header's seq as associated data
    init, acc = established(logged_in)
    token = init.context.wrap(b"x")
    with pytest.raises(WrapIntegrityError):
        acc.context.unwrap(dataclasses.replace(token, seq=token.seq + 1))


def test_every_header_bit_flip_is_refused_without_advancing(logged_in):
    init, acc = established(logged_in)
    for sender, receiver in ((init.context, acc.context), (acc.context, init.context)):
        token = sender.wrap(b"x")
        expected_seq = receiver.recv_seq
        flips = ([dataclasses.replace(token, seq=token.seq ^ (1 << bit)) for bit in range(64)]
                 + [dataclasses.replace(token, direction=token.direction ^ (1 << bit))
                    for bit in range(8)])
        for forged in flips:
            with pytest.raises((WrapIntegrityError, WrongDirection)):
                receiver.unwrap(forged)
            assert receiver.recv_seq == expected_seq
        assert receiver.unwrap(token) == b"x"  # the genuine token is still next


def test_unwrap_rejects_replay(logged_in):
    init, acc = established(logged_in)
    token = init.context.wrap(b"x")
    acc.context.unwrap(token)
    with pytest.raises(ReplayDetected):
        acc.context.unwrap(token)


def test_unwrap_rejects_reordering(logged_in):
    init, acc = established(logged_in)
    first, second = init.context.wrap(b"1"), init.context.wrap(b"2")
    with pytest.raises(OutOfSequence):
        acc.context.unwrap(second)
    # strict ordering does not consume the sequence number on failure
    assert acc.context.unwrap(first) == b"1"
    assert acc.context.unwrap(second) == b"2"


def test_replay_reported_before_ordering(logged_in):
    init, acc = established(logged_in)
    first = init.context.wrap(b"1")
    acc.context.unwrap(first)
    # its number is now below the next expected one: a replay, not a reorder
    with pytest.raises(ReplayDetected):
        acc.context.unwrap(first)


def test_replay_is_reported_however_long_the_context_lives():
    # a replay stays a replay after thousands of accepted messages, and a
    # number skipped ahead stays out of sequence without consuming anything
    realm = Realm(get_provider("standard"))
    realm.agent.kinit(realm.send_as, NOW)
    realm.agent.get_service_ticket("echo", NOW, realm.send_tgs)
    init, acc = established(realm)
    first = init.context.wrap(b"0")
    assert acc.context.unwrap(first) == b"0"
    for i in range(4096):
        acc.context.unwrap(init.context.wrap(i.to_bytes(2, "big")))
    with pytest.raises(ReplayDetected):
        acc.context.unwrap(first)
    expected = acc.context.recv_seq
    init.context.wrap(b"skipped")
    ahead = init.context.wrap(b"ahead")
    with pytest.raises(OutOfSequence):
        acc.context.unwrap(ahead)
    assert acc.context.recv_seq == expected


def test_a_context_builds_one_cipher_per_key(monkeypatch):
    # the standard provider keeps each key's AES-GCM object with the key
    get_provider("standard")  # binds crypto.AESGCM
    built = Counter()
    real = crypto.AESGCM

    def counting(key_bytes):
        built[key_bytes] += 1
        return real(key_bytes)

    monkeypatch.setattr(crypto, "AESGCM", counting)
    realm = Realm(get_provider("standard"))
    realm.agent.kinit(realm.send_as, NOW)
    realm.agent.get_service_ticket("echo", NOW, realm.send_tgs)
    init, acc = established(realm)
    subkey = init.context.subkey.data
    assert built[subkey] == 0  # the handshake seals under the ticket's session key
    for i in range(500):
        payload = i.to_bytes(2, "big")
        assert acc.context.unwrap(init.context.wrap(payload)) == payload
        assert init.context.unwrap(acc.context.wrap(payload)) == payload
    # 1,000 wraps and 1,000 unwraps, and each end's key object built one
    assert built[subkey] == 2
    assert all(count <= 2 for count in built.values())


def test_wrap_sequence_numbers_are_consecutive(logged_in):
    init, acc = established(logged_in)
    start = init.context.send_seq
    tokens = [init.context.wrap(bytes([i])) for i in range(5)]
    assert [t.seq for t in tokens] == list(range(start, start + 5))
    for i, token in enumerate(tokens):
        assert acc.context.unwrap(token) == bytes([i])


@given(st.lists(st.binary(max_size=120), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_ordered_tunnel_delivers_any_payload_stream(payloads):
    realm = Realm(get_provider("toy", seed=6))
    realm.agent.kinit(realm.send_as, NOW)
    realm.agent.get_service_ticket("echo", NOW, realm.send_tgs)
    init, acc = established(realm)
    for payload in payloads:
        assert acc.context.unwrap(init.context.wrap(payload)) == payload
        assert init.context.unwrap(acc.context.wrap(payload)) == payload
