"""KDC handlers: the full rejection ladder, ticket issue, and db persistence."""

import dataclasses

import pytest

from conftest import NOW, REALM, Realm, serve
from kerbpk import codec, messages
from kerbpk.client import ClientAgent, ClientIdentity
from kerbpk.crypto import SealLabel
from kerbpk.errors import (AddressMismatch, AuthenticatorIntegrityError,
                           BadValidityWindow, CertificateMismatch, DbParseError,
                           DuplicatePrincipal, NoCertificateOnFile,
                           PrincipalMismatch, ReplayDetected, ReplayWindowLost,
                           RequestDigestMismatch, SignatureInvalid, SkewExceeded,
                           TicketExpired, TicketIntegrityError, UnknownPrincipal,
                           UnknownService)
from kerbpk.kdc import (KdcFrameSession, PrincipalDb, RecordKind, handle_as_request,
                        handle_tgs_request, load_service_key, save_service_key)
from kerbpk.messages import (Authenticator, Principal, ReplayCache, TgsAuthenticator,
                             TgsRequest, Validity, request_digest)

HOUR = Validity(NOW, NOW + 3600)


def make_tgs_request(realm, entry, now, service_id="echo", *, auth=None,
                     digest=None, nonce2=b"\x11" * 8, validity=HOUR):
    """Hand-rolled ticket-granting request so tests can bend each field."""
    if digest is None:
        digest = request_digest(
            TgsRequest(service_id, validity, nonce2, entry.ticket, None),
            realm.provider)
    if auth is None:
        auth = Authenticator("alice", REALM, now)
    sealed = TgsAuthenticator(auth, digest)
    box = realm.provider.seal(entry.key, codec.encode(sealed), SealLabel.AUTHENTICATOR)
    return TgsRequest(service_id, validity, nonce2, entry.ticket, box)


# -------------------------------------------------------------- initial auth

def test_as_rejects_foreign_realm(realm):
    req = realm.agent.build_as_request("krbtgt", HOUR)
    bad = dataclasses.replace(req, client=Principal("alice", "ELSEWHERE"))
    with pytest.raises(UnknownPrincipal):
        handle_as_request(realm.db, bad, NOW, ReplayCache(), realm.provider)


def test_as_rejects_unknown_user(realm):
    pair = realm.provider.generate_keypair()
    from kerbpk.messages import Certificate
    mallory = Principal("mallory", REALM)
    ident = ClientIdentity(mallory, "pw", pair, Certificate(mallory, pair.public_key, 9))
    req = ClientAgent(ident, realm.provider).build_as_request("krbtgt", HOUR)
    with pytest.raises(UnknownPrincipal):
        handle_as_request(realm.db, req, NOW, ReplayCache(), realm.provider)


def test_as_rejects_principal_without_certificate(realm):
    req = realm.agent.build_as_request("krbtgt", HOUR)
    bad = dataclasses.replace(req, client=Principal("echo", REALM))
    with pytest.raises(NoCertificateOnFile):
        handle_as_request(realm.db, bad, NOW, ReplayCache(), realm.provider)


def test_as_rejects_substituted_public_key(realm):
    from kerbpk.messages import Certificate
    rogue = realm.provider.generate_keypair()
    req = realm.agent.build_as_request("krbtgt", HOUR)
    forged = Certificate(req.client, rogue.public_key, req.certificate.serial)
    bad = dataclasses.replace(req, certificate=forged,
                              signature=realm.provider.sign(rogue.private_key, b"x"))
    with pytest.raises(CertificateMismatch):
        handle_as_request(realm.db, bad, NOW, ReplayCache(), realm.provider)


def test_as_rejects_certificate_naming_someone_else(realm):
    # carol registered with alice's public key: key matches, subject does not
    realm.db.register_user("carol", "pw", realm.keypair.public_key, realm.provider)
    req = realm.agent.build_as_request("krbtgt", HOUR)
    bad = dataclasses.replace(req, client=Principal("carol", REALM))
    with pytest.raises(CertificateMismatch):
        handle_as_request(realm.db, bad, NOW, ReplayCache(), realm.provider)


def test_as_rejects_forged_signature(realm):
    from kerbpk.messages import as_request_signable
    rogue = realm.provider.generate_keypair()
    req = realm.agent.build_as_request("krbtgt", HOUR)
    bad = dataclasses.replace(
        req, signature=realm.provider.sign(rogue.private_key, as_request_signable(req)))
    with pytest.raises(SignatureInvalid):
        handle_as_request(realm.db, bad, NOW, ReplayCache(), realm.provider)


def test_as_signature_covers_every_request_field(realm):
    req = realm.agent.build_as_request("krbtgt", HOUR)
    tampered = dataclasses.replace(req, nonce1=bytes(8))
    with pytest.raises(SignatureInvalid):
        handle_as_request(realm.db, tampered, NOW, ReplayCache(), realm.provider)
    tampered = dataclasses.replace(req, requested_validity=Validity(NOW, NOW + 60))
    with pytest.raises(SignatureInvalid):
        handle_as_request(realm.db, tampered, NOW, ReplayCache(), realm.provider)
    # a signing time moved beyond the skew fails the signature first, unrecorded
    cache = ReplayCache()
    tampered = dataclasses.replace(req, requested_validity=Validity(NOW - 1000, NOW + 3600))
    with pytest.raises(SignatureInvalid):
        handle_as_request(realm.db, tampered, NOW, cache, realm.provider)
    assert len(cache) == 0


def test_as_rejects_inverted_validity_window(realm):
    req = realm.agent.build_as_request("krbtgt", Validity(NOW + 10, NOW + 10))
    with pytest.raises(BadValidityWindow):
        handle_as_request(realm.db, req, NOW, ReplayCache(), realm.provider)


def test_as_rejects_unknown_ticket_granting_service(realm):
    req = realm.agent.build_as_request("krbtgt2", HOUR)
    with pytest.raises(UnknownPrincipal):
        handle_as_request(realm.db, req, NOW, ReplayCache(), realm.provider)
    # a plain service cannot stand in for the ticket-granting one
    req = realm.agent.build_as_request("echo", HOUR)
    with pytest.raises(UnknownPrincipal):
        handle_as_request(realm.db, req, NOW, ReplayCache(), realm.provider)


def test_as_issues_capped_initial_ticket(realm):
    req = realm.agent.build_as_request("krbtgt", Validity(NOW, NOW + 1_000_000))
    reply = handle_as_request(realm.db, req, NOW, ReplayCache(), realm.provider)
    assert reply.client == realm.user.principal
    assert reply.ticket.server == Principal("krbtgt", REALM)
    tgs_key = realm.db.tgs_record().long_term_key
    body = codec.decode(realm.provider.open(tgs_key, reply.ticket.box, SealLabel.TICKET),
                        codec.SchemaId.TICKET_BODY)
    assert body.validity == Validity(NOW, NOW + 28800)  # capped, not the full ask
    assert (body.client_id, body.client_realm) == ("alice", REALM)


def test_as_refuses_a_replay_inside_the_skew(realm):
    req = realm.agent.build_as_request("krbtgt", HOUR)
    realm.send_as(req)
    with pytest.raises(ReplayDetected):
        realm.send_as(req, now=NOW + 1)


def test_as_refuses_a_request_signed_beyond_the_skew(realm):
    req = realm.agent.build_as_request("krbtgt", HOUR)
    realm.send_as(req)
    with pytest.raises(SkewExceeded):
        realm.send_as(req, now=NOW + 301)
    early = realm.agent.build_as_request("krbtgt", Validity(NOW + 301, NOW + 3600))
    with pytest.raises(SkewExceeded):  # a clock ahead is refused alike
        realm.send_as(early)


def test_two_honest_kinits_in_one_second_both_pass(realm):
    first = realm.agent.kinit(realm.send_as, NOW)
    second = realm.agent.kinit(realm.send_as, NOW)
    assert first.key != second.key
    assert len(realm.kdc.replay_cache) == 2


# ------------------------------------------------------------ ticket granting

def tgt_of(realm):
    return realm.agent.kinit(realm.send_as, NOW)


def test_tgs_rejects_tampered_ticket(realm):
    entry = tgt_of(realm)
    mutated = bytearray(entry.ticket.box)
    mutated[0] ^= 1
    forged = dataclasses.replace(
        entry, ticket=dataclasses.replace(entry.ticket, box=bytes(mutated)))
    req = make_tgs_request(realm, forged, NOW)
    with pytest.raises(TicketIntegrityError):
        handle_tgs_request(realm.db, req, NOW, ReplayCache(), realm.provider)


def test_tgs_rejects_expired_tgt(realm):
    entry = tgt_of(realm)
    late = entry.validity.till + 301
    req = make_tgs_request(realm, entry, late)
    with pytest.raises(TicketExpired):
        handle_tgs_request(realm.db, req, late, ReplayCache(), realm.provider)


def test_tgs_rejects_tampered_authenticator(realm):
    entry = tgt_of(realm)
    req = make_tgs_request(realm, entry, NOW)
    mutated = bytearray(req.authenticator)
    mutated[-1] ^= 1
    bad = dataclasses.replace(req, authenticator=bytes(mutated))
    with pytest.raises(AuthenticatorIntegrityError):
        handle_tgs_request(realm.db, bad, NOW, ReplayCache(), realm.provider)


def test_tgs_rejects_wrong_structure_inside_authenticator(realm):
    entry = tgt_of(realm)
    plain = codec.encode(Authenticator("alice", REALM, NOW))  # not a TgsAuthenticator
    box = realm.provider.seal(entry.key, plain, SealLabel.AUTHENTICATOR)
    req = dataclasses.replace(make_tgs_request(realm, entry, NOW), authenticator=box)
    with pytest.raises(AuthenticatorIntegrityError):
        handle_tgs_request(realm.db, req, NOW, ReplayCache(), realm.provider)


def test_tgs_rejects_request_not_matching_sealed_digest(realm):
    entry = tgt_of(realm)
    wrong = request_digest(
        TgsRequest("other-service", HOUR, b"\x11" * 8, entry.ticket, None),
        realm.provider)
    req = make_tgs_request(realm, entry, NOW, digest=wrong)
    with pytest.raises(RequestDigestMismatch):
        handle_tgs_request(realm.db, req, NOW, ReplayCache(), realm.provider)


def test_tgs_digest_pins_the_service_name(realm):
    # swap the service id after sealing: digest no longer matches
    entry = tgt_of(realm)
    req = make_tgs_request(realm, entry, NOW, service_id="echo")
    swapped = dataclasses.replace(req, service_id="other")
    with pytest.raises(RequestDigestMismatch):
        handle_tgs_request(realm.db, swapped, NOW, ReplayCache(), realm.provider)


def test_tgs_rejects_authenticator_naming_someone_else(realm):
    entry = tgt_of(realm)
    req = make_tgs_request(realm, entry, NOW, auth=Authenticator("mallory", REALM, NOW))
    with pytest.raises(PrincipalMismatch):
        handle_tgs_request(realm.db, req, NOW, ReplayCache(), realm.provider)


def test_tgs_rejects_stale_authenticator(realm):
    entry = tgt_of(realm)
    req = make_tgs_request(realm, entry, NOW, auth=Authenticator("alice", REALM, NOW - 301))
    with pytest.raises(SkewExceeded):
        handle_tgs_request(realm.db, req, NOW, ReplayCache(), realm.provider)


def test_tgs_rejects_replayed_request(realm):
    entry = tgt_of(realm)
    cache = ReplayCache()
    req = make_tgs_request(realm, entry, NOW)
    handle_tgs_request(realm.db, req, NOW, cache, realm.provider)
    with pytest.raises(ReplayDetected):
        handle_tgs_request(realm.db, req, NOW + 1, cache, realm.provider)


def test_tgs_refuses_a_replay_once_a_flood_has_evicted_it(monkeypatch, realm):
    monkeypatch.setattr(messages, "REPLAY_CAPACITY", 8)
    # the kinit's own entry, a second earlier, is the first to go
    entry = realm.agent.kinit(lambda req: realm.send_as(req, NOW - 1), NOW - 1)
    captured = make_tgs_request(realm, entry, NOW)
    realm.send_tgs(captured)
    for i in range(8):  # honest requests in the same second push it out
        realm.send_tgs(make_tgs_request(realm, entry, NOW, nonce2=bytes([i]) * 8))
    with pytest.raises(ReplayWindowLost):
        realm.send_tgs(captured, now=NOW + 10)
    realm.send_tgs(make_tgs_request(realm, entry, NOW + 10), now=NOW + 10)  # later ones pass


def test_tgs_flood_by_one_principal_locks_out_only_that_principal(monkeypatch, realm):
    monkeypatch.setattr(messages, "REPLAY_CAPACITY", 8)
    bob_tgt = realm.enroll("bob").kinit(realm.send_as, NOW)

    def bob_at_the_skew_edge(i):
        return make_tgs_request(realm, bob_tgt, NOW, nonce2=bytes([i]) * 8,
                                auth=Authenticator("bob", REALM, NOW + 300))
    for i in range(9):  # one more than fits: his first entry is evicted
        realm.send_tgs(bob_at_the_skew_edge(i))
    realm.send_tgs(make_tgs_request(realm, tgt_of(realm), NOW))  # alice is still served
    with pytest.raises(ReplayWindowLost):
        realm.send_tgs(bob_at_the_skew_edge(9))  # the loss was bob's


def test_tgs_rejects_unknown_service(realm):
    entry = tgt_of(realm)
    req = make_tgs_request(realm, entry, NOW, service_id="missing")
    with pytest.raises(UnknownService):
        handle_tgs_request(realm.db, req, NOW, ReplayCache(), realm.provider)
    # the ticket-granting service itself is not orderable as a plain service
    req = make_tgs_request(realm, entry, NOW, service_id="krbtgt", nonce2=b"\x22" * 8)
    with pytest.raises(UnknownService):
        handle_tgs_request(realm.db, req, NOW, ReplayCache(), realm.provider)


def test_tgs_issues_service_ticket(realm):
    entry = tgt_of(realm)
    req = make_tgs_request(realm, entry, NOW)
    reply = handle_tgs_request(realm.db, req, NOW, ReplayCache(), realm.provider)
    assert reply.client == realm.user.principal
    assert reply.ticket.server == Principal("echo", REALM)
    body = codec.decode(
        realm.provider.open(realm.service.long_term_key, reply.ticket.box, SealLabel.TICKET),
        codec.SchemaId.TICKET_BODY)
    assert (body.client_id, body.client_realm) == ("alice", REALM)
    assert body.session_key != entry.key  # fresh key per service leg


def test_tgs_never_grants_past_the_tgt(realm):
    entry = realm.agent.kinit(realm.send_as, NOW, requested_validity=Validity(NOW, NOW + 600))
    assert entry.validity.till == NOW + 600
    now = NOW + 100
    req = make_tgs_request(realm, entry, now, validity=Validity(now, now + 3600))
    reply = handle_tgs_request(realm.db, req, now, ReplayCache(), realm.provider)
    body = codec.decode(
        realm.provider.open(realm.service.long_term_key, reply.ticket.box, SealLabel.TICKET),
        codec.SchemaId.TICKET_BODY)
    assert body.validity == Validity(now, NOW + 600)  # capped at the TGT's end
    # past the TGT's end but inside the skew window, nothing is left to grant
    late = NOW + 600 + 299
    req = make_tgs_request(realm, entry, late, validity=Validity(late, late + 3600))
    with pytest.raises(BadValidityWindow):
        handle_tgs_request(realm.db, req, late, ReplayCache(), realm.provider)


def test_tgs_rejects_inverted_validity_window(realm):
    entry = tgt_of(realm)
    req = make_tgs_request(realm, entry, NOW, validity=Validity(NOW, NOW - 5000))
    with pytest.raises(BadValidityWindow):
        handle_tgs_request(realm.db, req, NOW, ReplayCache(), realm.provider)


def test_tgs_enforces_ticket_address_binding(toy):
    realm = Realm(toy)
    req = realm.agent.build_as_request("krbtgt", HOUR)
    reply = handle_as_request(realm.db, req, NOW, ReplayCache(), realm.provider, "10.0.0.1")
    entry = realm.agent.process_as_reply(reply, req.nonce1)
    treq = make_tgs_request(realm, entry, NOW)
    with pytest.raises(AddressMismatch):
        handle_tgs_request(realm.db, treq, NOW, ReplayCache(), realm.provider, "10.9.9.9")
    treq = make_tgs_request(realm, entry, NOW + 1, nonce2=b"\x22" * 8)
    handle_tgs_request(realm.db, treq, NOW + 1, ReplayCache(), realm.provider, "10.0.0.1")


# ------------------------------------------------------------------ principal db

def test_db_key_count_grows_linearly(toy):
    db = PrincipalDb.create(REALM, toy)
    assert db.key_count() == 1  # the ticket-granting service itself
    for i in range(4):
        pair = toy.generate_keypair()
        db.register_user(f"user{i}", "pw", pair.public_key, toy)
    for i in range(3):
        db.register_service(f"svc{i}", toy)
    assert db.key_count() == 4 + 3 + 1
    kinds = [r.kind for r in db.records()]
    assert kinds.count(RecordKind.USER) == 4
    assert kinds.count(RecordKind.SERVICE) == 3
    assert kinds.count(RecordKind.TGS_SERVICE) == 1


def test_db_certificate_serials_are_distinct(toy):
    db = PrincipalDb.create(REALM, toy)
    serials = [db.register_user(f"u{i}", "pw", toy.generate_keypair().public_key, toy)
                 .certificate.serial
               for i in range(5)]
    assert len(set(serials)) == 5


def test_db_rejects_duplicate_names(realm):
    with pytest.raises(DuplicatePrincipal):
        realm.db.register_service("echo", realm.provider)
    with pytest.raises(DuplicatePrincipal):
        realm.db.register_user("alice", "x", realm.keypair.public_key, realm.provider)


def test_db_save_load_roundtrip(realm, tmp_path):
    path = str(tmp_path / "realm.db")
    realm.db.save(path)
    loaded = PrincipalDb.load(path)
    assert loaded.realm == REALM
    assert sorted(r.principal.name for r in loaded.records()) == \
        sorted(r.principal.name for r in realm.db.records())
    assert loaded.lookup("alice").long_term_key == realm.user.long_term_key
    assert loaded.lookup("alice").certificate == realm.user.certificate
    assert not list(tmp_path.glob("*.tmp.*"))  # atomic rewrite leaves no droppings


def test_db_load_reports_corrupt_line(realm, tmp_path):
    path = tmp_path / "realm.db"
    realm.db.save(str(path))
    lines = path.read_text().splitlines()
    lines[0] = "zz-not-hex"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DbParseError, match=r"realm\.db:1"):
        PrincipalDb.load(str(path))


def test_db_load_requires_exactly_one_ticket_granting_record(realm, tmp_path):
    path = tmp_path / "realm.db"
    realm.db.save(str(path))
    tgs_hex = codec.encode(realm.db.tgs_record()).hex()
    remaining = [ln for ln in path.read_text().splitlines() if ln != tgs_hex]
    path.write_text("\n".join(remaining) + "\n")
    with pytest.raises(DbParseError, match="exactly one"):
        PrincipalDb.load(str(path))


def test_db_load_missing_file(tmp_path):
    with pytest.raises(DbParseError):
        PrincipalDb.load(str(tmp_path / "absent.db"))


def test_db_load_rejects_a_file_that_is_not_ascii(tmp_path):
    path = tmp_path / "realm.db"
    path.write_bytes(b"\xff\n")
    with pytest.raises(DbParseError, match="cannot read principal db"):
        PrincipalDb.load(str(path))


def test_service_key_file_roundtrip(realm, tmp_path):
    path = str(tmp_path / "echo.keytab")
    save_service_key(realm.service, path)
    loaded = load_service_key(path)
    assert loaded.principal == realm.service.principal
    assert loaded.key == realm.service.long_term_key
    (tmp_path / "junk.keytab").write_text("not hex\n")
    with pytest.raises(DbParseError):
        load_service_key(str(tmp_path / "junk.keytab"))


# ------------------------------------------------------------- service facade

def test_each_client_exchange_is_one_kdc_request(realm):
    assert sum(realm.sent.values()) == 0
    realm.agent.kinit(realm.send_as, NOW)
    assert (realm.sent["as"], realm.sent["tgs"]) == (1, 0)
    realm.agent.get_service_ticket("echo", NOW, realm.send_tgs)
    assert (realm.sent["as"], realm.sent["tgs"]) == (1, 1)
    assert sum(realm.sent.values()) == 2
    with pytest.raises(ValueError):
        realm.kdc.handle("mystery-role", None, NOW)
    with pytest.raises(ValueError):  # when the session is built, not per request
        KdcFrameSession(realm.kdc, "mystery-role")


def test_kdc_frame_session_reports_errors_and_closes(realm):
    session = KdcFrameSession(realm.kdc, "as")
    replies, close = serve(session, b"\x00garbage")
    assert close  # an ErrorReply ends the connection, as at every endpoint
    err = codec.decode(replies[0], codec.SchemaId.ERROR_REPLY)
    assert (len(replies), err.error) == (1, "Truncated")

    req = realm.agent.build_as_request("krbtgt", HOUR)
    replies, close = serve(KdcFrameSession(realm.kdc, "as"), codec.encode(req))
    assert not close
    assert codec.schema_id_of(replies[0]) == codec.SchemaId.AS_REPLY
