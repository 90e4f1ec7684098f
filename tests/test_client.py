"""Client agent: reply cross-checks, credential cache, on-disk file forms."""

import dataclasses
import os

import pytest

from conftest import NOW, REALM
from kerbpk import codec
from kerbpk.client import (ClientAgent, ClientIdentity, CredentialCache, CredEntry,
                           IdentityFile, load_identity, request_service_ticket, save_identity)
from kerbpk.crypto import SymmetricKey
from kerbpk.kdc import ServiceKeyFile
from kerbpk.errors import (CcacheParseError, NonceMismatch, NoTgt,
                           PkDecryptFailure, PrincipalMismatch, WrongPassword)
from kerbpk.messages import DEFAULT_LIFETIME, Certificate, Principal, SealedTicket, Validity

HOUR = Validity(NOW, NOW + 3600)


def is_empty(cache: CredentialCache) -> bool:
    snapshot = cache.to_file_struct()
    return snapshot.tgt is None and not snapshot.services


# ---------------------------------------------------------------- initial auth

def test_kinit_fills_the_cache(realm):
    entry = realm.agent.kinit(realm.send_as, NOW)
    assert realm.agent.cache.get_tgt(NOW) == entry
    assert entry.validity == Validity(NOW, NOW + DEFAULT_LIFETIME)
    assert entry.key.provider_id == realm.provider.provider_id


def test_reply_for_someone_else_rejected(realm):
    req = realm.agent.build_as_request("krbtgt", HOUR)
    reply = realm.send_as(req)
    # a different user must not accept alice's reply
    pair = realm.provider.generate_keypair()
    bob = Principal("bob", REALM)
    ident = ClientIdentity(bob, "pw", pair, Certificate(bob, pair.public_key, 7))
    other = ClientAgent(ident, realm.provider)
    with pytest.raises(PrincipalMismatch):
        other.process_as_reply(reply, req.nonce1)
    assert is_empty(other.cache)


def test_wrong_password_cannot_open_the_reply(realm):
    bad_identity = dataclasses.replace(realm.identity, password="wrong")
    agent = ClientAgent(bad_identity, realm.provider)
    with pytest.raises(WrongPassword):
        agent.kinit(realm.send_as, NOW)
    assert is_empty(agent.cache)  # nothing is cached on a failed login


def test_nonce_echo_is_checked(realm):
    req = realm.agent.build_as_request("krbtgt", HOUR)
    reply = realm.send_as(req)
    with pytest.raises(NonceMismatch):
        realm.agent.process_as_reply(reply, b"\x00" * 8)
    assert is_empty(realm.agent.cache)


def test_swapped_ticket_hint_is_caught(realm):
    req = realm.agent.build_as_request("krbtgt", HOUR)
    reply = realm.send_as(req)
    swapped = dataclasses.replace(
        reply, ticket=dataclasses.replace(reply.ticket, server=Principal("echo", REALM)))
    with pytest.raises(PrincipalMismatch):
        realm.agent.process_as_reply(swapped, req.nonce1)


def test_key_wrapped_for_a_different_key_pair(realm):
    req = realm.agent.build_as_request("krbtgt", HOUR)
    reply = realm.send_as(req)
    pair = realm.provider.generate_keypair()
    imposter = ClientIdentity(realm.identity.principal, "hunter2", pair,
                              Certificate(realm.identity.principal, pair.public_key, 8))
    agent = ClientAgent(imposter, realm.provider)
    with pytest.raises(PkDecryptFailure):
        agent.process_as_reply(reply, req.nonce1)
    assert is_empty(agent.cache)


# -------------------------------------------------------------- service ticket

def test_service_ticket_requires_a_tgt(realm):
    with pytest.raises(NoTgt):
        realm.agent.get_service_ticket("echo", NOW, realm.send_tgs)


def test_service_ticket_stored_under_its_name(logged_in):
    entry = logged_in.agent.cache.get_service("echo", NOW)
    assert entry is not None
    assert entry.ticket.server == Principal("echo", REALM)


def test_service_credential_reuses_fresh_entry(logged_in):
    before = logged_in.sent["tgs"]
    entry = logged_in.agent.cache.get_service("echo", NOW)
    assert logged_in.sent["tgs"] == before  # cache hit, no new exchange
    assert entry is not None and entry == logged_in.agent.cache.peek_service("echo")


def test_tgs_reply_is_cross_checked_like_the_as_reply(logged_in):
    cache = logged_in.agent.cache
    earlier = []

    def replay_earlier(req):
        earlier.append(logged_in.send_tgs(req))
        return earlier[0]

    def for_bob(req):
        return dataclasses.replace(logged_in.send_tgs(req), client=Principal("bob", REALM))

    def swapped_hint(req):
        reply = logged_in.send_tgs(req)
        return dataclasses.replace(reply, ticket=dataclasses.replace(
            reply.ticket, server=Principal("web", REALM)))

    request_service_ticket(cache, logged_in.provider, "echo", NOW, replay_earlier)
    stored = cache.peek_service("echo")
    with pytest.raises(PrincipalMismatch, match="different principal"):
        request_service_ticket(cache, logged_in.provider, "echo", NOW, for_bob)
    with pytest.raises(PrincipalMismatch, match="ticket server hint"):
        request_service_ticket(cache, logged_in.provider, "echo", NOW, swapped_hint)
    with pytest.raises(NonceMismatch):  # the reply to an earlier request
        request_service_ticket(cache, logged_in.provider, "echo", NOW, replay_earlier)
    assert cache.peek_service("echo") == stored  # no failed exchange stored anything


def test_request_service_ticket_needs_only_the_cache(logged_in, tmp_path):
    # a process holding just the ccache file can fetch more tickets
    path = str(tmp_path / "cc")
    logged_in.agent.cache.save(path)
    cache = CredentialCache.load(path)
    entry = request_service_ticket(cache, logged_in.provider, "echo", NOW + 1,
                                   lambda req: logged_in.send_tgs(req, NOW + 1))
    assert entry.ticket.server == Principal("echo", REALM)
    assert cache.get_service("echo", NOW + 1) == entry


# ------------------------------------------------------------ credential cache

def _entry(till: int) -> CredEntry:
    ticket = SealedTicket(Principal("echo", REALM), b"\x01")
    return CredEntry(ticket, SymmetricKey(b"\x00" * 32, "toy"), Validity(0, till))


def test_cache_evicts_at_till_plus_skew():
    cache = CredentialCache(Principal("alice", REALM), skew=300)
    cache.store_tgt(_entry(till=1000))
    cache.store_service("echo", _entry(till=1000))
    assert cache.get_tgt(1300) is not None  # the last acceptable instant
    assert cache.get_tgt(1301) is None
    assert cache.get_service("echo", 1301) is None
    assert cache.peek_service("echo") is None  # get_service dropped it
    assert is_empty(cache)


def test_cache_peek_ignores_freshness():
    cache = CredentialCache(Principal("alice", REALM), skew=0)
    cache.store_service("echo", _entry(till=10))
    assert cache.peek_service("echo") is not None  # stale but still present
    assert cache.get_service("echo", 99) is None


def test_cache_file_roundtrip(logged_in, tmp_path):
    path = str(tmp_path / "alice.ccache")
    logged_in.agent.cache.save(path)
    loaded = CredentialCache.load(path)
    assert loaded.client == Principal("alice", REALM)
    assert loaded.get_tgt(NOW) == logged_in.agent.cache.get_tgt(NOW)
    assert loaded.get_service("echo", NOW) == logged_in.agent.cache.get_service("echo", NOW)
    with open(path) as fh:
        content = fh.read()
    assert content.endswith("\n") and len(content.splitlines()) == 1
    bytes.fromhex(content.strip())  # the single line is hex


def test_cache_rewrite_replaces_the_file_whole(logged_in, tmp_path):
    # a reader that opened the ccache before a rewrite still sees the old
    # file in full, never a truncated or half-written one
    path = str(tmp_path / "alice.ccache")
    logged_in.agent.cache.save(path)
    with open(path) as reader:
        emptied = CredentialCache(Principal("alice", REALM))
        emptied.save(path)
        old = reader.read()
    assert bytes.fromhex(old.strip()) == codec.encode(logged_in.agent.cache.to_file_struct())
    assert is_empty(CredentialCache.load(path))
    assert not list(tmp_path.glob("*.tmp.*"))


def test_cache_file_errors(tmp_path):
    with pytest.raises(CcacheParseError):
        CredentialCache.load(str(tmp_path / "absent"))
    bad = tmp_path / "bad"
    bad.write_text("zz zz\n")
    with pytest.raises(CcacheParseError):
        CredentialCache.load(str(bad))


# --------------------------------------------------------------- identity file

def test_identity_file_roundtrip(realm, tmp_path):
    path = str(tmp_path / "alice.id")
    save_identity(realm.identity, path)
    loaded = load_identity(path, "hunter2")
    assert loaded == realm.identity
    assert os.stat(path).st_mode & 0o077 == 0  # the private key is the owner's alone


def test_secrets_stay_out_of_reprs(realm, tmp_path):
    tgt = realm.agent.kinit(realm.send_as, NOW)
    path = str(tmp_path / "alice.id")
    save_identity(realm.identity, path)
    identity_file = codec.load_record(path, codec.SchemaId.IDENTITY_FILE, ValueError, "id")
    assert isinstance(identity_file, IdentityFile)
    service = realm.service
    cases = [
        (service, service.long_term_key.data),
        (ServiceKeyFile(service.principal, service.long_term_key), service.long_term_key.data),
        (realm.user, realm.user.long_term_key.data),
        (tgt, tgt.key.data),
        (identity_file, identity_file.private_key),
        (realm.keypair, realm.keypair.private_key),
        (realm.identity, realm.keypair.private_key),
    ]
    for holder, secret in cases:
        text = repr(holder)
        assert type(holder).__name__ in text
        assert repr(secret) not in text and secret.hex() not in text, text
    assert "hunter2" not in repr(realm.identity)
    assert realm.identity.password == "hunter2"  # hidden from repr, not from use


def test_identity_loaded_with_wrong_password_fails_at_kinit(realm, tmp_path):
    # the password never touches the disk, so the mistake surfaces on use
    path = str(tmp_path / "alice.id")
    save_identity(realm.identity, path)
    agent = ClientAgent(load_identity(path, "guess"), realm.provider)
    with pytest.raises(WrongPassword):
        agent.kinit(realm.send_as, NOW)


def test_identity_file_errors(tmp_path):
    with pytest.raises(CcacheParseError):
        load_identity(str(tmp_path / "absent"), "pw")
    bad = tmp_path / "bad.id"
    bad.write_text("0102\n")
    with pytest.raises(CcacheParseError):
        load_identity(str(bad), "pw")


def test_identity_consistency_enforced(realm):
    other = realm.provider.generate_keypair()
    with pytest.raises(ValueError):
        ClientIdentity(realm.identity.principal, "pw", other, realm.identity.certificate)
    with pytest.raises(ValueError):
        ClientIdentity(Principal("bob", REALM), "pw", realm.keypair,
                       realm.identity.certificate)
