"""Wire codec: golden encodings, round-trips, and rejection of malformed input."""

import struct
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerbpk import codec
from kerbpk.client import CredentialCacheFile, CredEntry, ServiceCred
from kerbpk.crypto import SealedBox, SymmetricKey
from kerbpk.errors import (CodecError, DbParseError, FieldTooLarge, MalformedValue,
                           SchemaMismatch, TrailingGarbage, Truncated, UnknownTag)
from kerbpk.messages import Authenticator, Principal, SealedTicket, Validity


def tlv(tag: int, value: bytes) -> bytes:
    return struct.pack(">BI", tag, len(value)) + value


# ---------------------------------------------------------------- golden bytes

# Frozen wire image; a change here breaks every stored ticket and ccache.
AUTHENTICATOR_HEX = (
    "08000000230100000005616c696365"
    "02000000074558414d504c45"
    "030000000800000000000003e8"
)


def test_authenticator_golden_bytes():
    auth = Authenticator("alice", "EXAMPLE", 1000)
    assert codec.encode(auth).hex() == AUTHENTICATOR_HEX
    assert codec.decode(bytes.fromhex(AUTHENTICATOR_HEX),
                        codec.SchemaId.AUTHENTICATOR) == auth


def test_validity_matches_hand_packed_tlv():
    expected = tlv(0x12, tlv(1, (5).to_bytes(8, "big")) + tlv(2, (9).to_bytes(8, "big")))
    assert codec.encode(Validity(5, 9)) == expected


def test_principal_matches_hand_packed_tlv():
    expected = tlv(0x10, tlv(1, b"alice") + tlv(2, b"EXAMPLE"))
    assert codec.encode(Principal("alice", "EXAMPLE")) == expected


def test_sealed_box_label_is_single_byte():
    box = SealedBox(b"\x00\x01", 6)
    expected = tlv(0x14, tlv(1, b"\x00\x01") + tlv(2, b"\x06"))
    assert codec.encode(box) == expected


def test_schema_id_of():
    payload = codec.encode(Validity(1, 2))
    assert codec.schema_id_of(payload) == codec.SchemaId.VALIDITY
    assert codec.schema_id_of(b"") is None
    assert codec.schema_id_of(b"\x7e\x00\x00\x00\x00") is None  # unregistered tag


def test_body_ids_are_known_tags_without_a_schema():
    # signed and digested request bodies are never decoded, yet a frame that
    # carries one of their ids where another schema belongs is a mismatch
    assert codec.SchemaId.TGS_REQ_BODY not in codec._by_id
    assert codec.schema_id_of(bytes([codec.SchemaId.TGS_REQ_BODY])) == codec.SchemaId.TGS_REQ_BODY
    with pytest.raises(SchemaMismatch, match="found 0x1a"):
        codec.decode(tlv(codec.SchemaId.TGS_REQ_BODY, b""), codec.SchemaId.VALIDITY)


# ---------------------------------------------------------------- record files

def test_record_file_roundtrip_and_errors(tmp_path):
    path = tmp_path / "pairs.txt"
    codec.save_records(str(path), [Validity(1, 2), Validity(3, 4)])
    assert path.read_text().splitlines() == [codec.encode(Validity(1, 2)).hex(),
                                             codec.encode(Validity(3, 4)).hex()]
    assert not list(tmp_path.glob("*.tmp.*"))  # atomic rewrite leaves no droppings
    assert path.stat().st_mode & 0o077 == 0  # the records hold keys

    def load(source=path):
        return codec.load_records(str(source), codec.SchemaId.VALIDITY, DbParseError, "pairs")
    assert load() == [Validity(1, 2), Validity(3, 4)]
    with pytest.raises(DbParseError, match="exactly one pairs record, found 2"):
        codec.load_record(str(path), codec.SchemaId.VALIDITY, DbParseError, "pairs")
    path.write_text("\n" + codec.encode(Validity(1, 2)).hex() + "\n\nzz\n")
    with pytest.raises(DbParseError, match=r"pairs\.txt:4"):
        load()
    path.write_bytes(b"\xff\n")  # not ASCII
    with pytest.raises(DbParseError, match="cannot read pairs"):
        load()
    with pytest.raises(DbParseError, match="cannot read pairs"):
        load(tmp_path / "absent")


# ---------------------------------------------------------------- round-trips

u64s = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(st.text(), st.text(), u64s)
def test_authenticator_roundtrip(client_id, client_realm, timestamp):
    auth = Authenticator(client_id, client_realm, timestamp)
    assert codec.decode(codec.encode(auth), codec.SchemaId.AUTHENTICATOR) == auth


@given(st.binary(max_size=200), st.integers(min_value=0, max_value=255))
def test_sealed_box_roundtrip(ciphertext, label):
    box = SealedBox(ciphertext, label)
    assert codec.decode(codec.encode(box), codec.SchemaId.SEALED_BOX) == box


@given(u64s, u64s)
def test_validity_roundtrip(from_time, till):
    val = Validity(from_time, till)
    assert codec.decode(codec.encode(val), codec.SchemaId.VALIDITY) == val


def _cred_entry(tag: bytes) -> CredEntry:
    ticket = SealedTicket(Principal("echo", "EXAMPLE"), SealedBox(tag, 1))
    return CredEntry(ticket, SymmetricKey(b"\x00" * 32, "toy"), Validity(0, 100))


def test_optional_field_roundtrip():
    client = Principal("alice", "EXAMPLE")
    for tgt in (None, _cred_entry(b"t")):
        blob = codec.encode(CredentialCacheFile(client, tgt, []))
        assert codec.decode(blob, codec.SchemaId.CREDENTIAL_CACHE).tgt == tgt


def test_list_field_roundtrip():
    client = Principal("alice", "EXAMPLE")
    services = [ServiceCred("echo", _cred_entry(b"a")), ServiceCred("web", _cred_entry(b"b"))]
    blob = codec.encode(CredentialCacheFile(client, None, services))
    decoded = codec.decode(blob, codec.SchemaId.CREDENTIAL_CACHE)
    assert decoded.services == services
    empty = codec.encode(CredentialCacheFile(client, None, []))
    assert codec.decode(empty, codec.SchemaId.CREDENTIAL_CACHE).services == []


def test_nested_schemas_are_found_on_first_decode():
    # A server decodes structures it has never encoded.  A fresh copy of the
    # schema has looked up none of its nested classes yet.
    schema = codec._by_id[codec.SchemaId.CREDENTIAL_CACHE]
    fresh = codec._Schema(schema.schema_id, schema.cls, schema.fields)
    value = CredentialCacheFile(Principal("alice", "EXAMPLE"), _cred_entry(b"t"),
                                [ServiceCred("echo", _cred_entry(b"e"))])
    blob = codec.encode(value)
    assert fresh.decode_at(blob, 0, 0, len(blob)) == (value, len(blob))


def _body_length(value) -> int:
    return len(codec.encode(value)) - 5  # less the tag and length header


def test_every_length_cap_is_enforced(monkeypatch):
    # Lengths are u32; a small stand-in cap reaches each check in turn, and
    # the length in the message shows which check fired.
    principal = Principal("alice", "EXAMPLE")
    item = ServiceCred("", _cred_entry(b"t"))
    validity = _body_length(Validity(1, 2))
    cases = [
        (4, SealedBox(b"12345", 1), 5),                             # a bytes value
        (4, principal, 5),                                          # a string value
        (validity - 1, Validity(1, 2), validity),                   # a structure's body
        (_body_length(principal), SealedTicket(principal, SealedBox(b"t", 1)),
         _body_length(principal) + 5),                              # a nested structure
        (_body_length(item), CredentialCacheFile(Principal("a", "B"), None, [item]),
         _body_length(item) + 5),                                   # a list
    ]
    for cap, value, length in cases:
        monkeypatch.setattr(codec, "_MAX_FIELD", cap)
        with pytest.raises(FieldTooLarge, match=f"^field value of {length} bytes exceeds"):
            codec.encode(value)


# ---------------------------------------------------------------- injectivity

def test_distinct_values_encode_distinctly():
    import random
    rng = random.Random(99)
    seen_values = set()
    encodings = set()
    while len(seen_values) < 1000:
        auth = Authenticator(
            "".join(rng.choice("abcdef") for _ in range(rng.randrange(0, 6))),
            "".join(rng.choice("XYZ") for _ in range(rng.randrange(0, 4))),
            rng.randrange(1 << 32),
        )
        key = (auth.client_id, auth.client_realm, auth.timestamp)
        if key in seen_values:
            continue
        seen_values.add(key)
        encodings.add(codec.encode(auth))
    assert len(encodings) == 1000


def test_field_boundaries_disambiguate_concatenations():
    # "a"+"bc" and "ab"+"c" concatenate identically; the length prefixes must not.
    first = codec.encode(Authenticator("a", "bc", 0))
    second = codec.encode(Authenticator("ab", "c", 0))
    assert first != second


# ---------------------------------------------------------------- truncation

def test_every_proper_prefix_is_rejected_as_truncated():
    payload = codec.encode(Authenticator("alice", "EXAMPLE", 1000))
    for cut in range(len(payload)):
        with pytest.raises(Truncated):
            codec.decode(payload[:cut], codec.SchemaId.AUTHENTICATOR)


@given(st.binary(max_size=300), st.integers(min_value=0, max_value=299))
@settings(max_examples=200)
def test_decode_never_crashes_on_noise(noise, cut):
    try:
        codec.decode(noise[:cut], codec.SchemaId.AUTHENTICATOR)
    except CodecError:
        pass


# ------------------------------------------------------------- malformed input

def test_trailing_garbage_after_structure():
    payload = codec.encode(Validity(1, 2)) + b"\x00"
    with pytest.raises(TrailingGarbage):
        codec.decode(payload, codec.SchemaId.VALIDITY)


def test_trailing_garbage_inside_structure():
    body = (tlv(1, (1).to_bytes(8, "big")) + tlv(2, (2).to_bytes(8, "big"))
            + tlv(3, b"extra"))
    with pytest.raises(TrailingGarbage):
        codec.decode(tlv(0x12, body), codec.SchemaId.VALIDITY)


def test_schema_mismatch_on_registered_foreign_tag():
    payload = codec.encode(Principal("alice", "EXAMPLE"))
    with pytest.raises(SchemaMismatch):
        codec.decode(payload, codec.SchemaId.VALIDITY)


def test_unknown_outer_tag():
    with pytest.raises(UnknownTag):
        codec.decode(tlv(0x7E, b""), codec.SchemaId.VALIDITY)


def test_unexpected_field_tag():
    body = tlv(9, (1).to_bytes(8, "big")) + tlv(2, (2).to_bytes(8, "big"))
    with pytest.raises(UnknownTag):
        codec.decode(tlv(0x12, body), codec.SchemaId.VALIDITY)


def test_integer_field_with_wrong_width():
    body = tlv(1, (1).to_bytes(7, "big")) + tlv(2, (2).to_bytes(8, "big"))
    with pytest.raises(MalformedValue):
        codec.decode(tlv(0x12, body), codec.SchemaId.VALIDITY)


def test_invalid_utf8_in_string_field():
    body = tlv(1, b"\xff\xfe") + tlv(2, b"EXAMPLE")
    with pytest.raises(MalformedValue):
        codec.decode(tlv(0x10, body), codec.SchemaId.PRINCIPAL)


def test_missing_field_is_truncated():
    body = tlv(1, (1).to_bytes(8, "big"))  # till missing
    with pytest.raises(Truncated):
        codec.decode(tlv(0x12, body), codec.SchemaId.VALIDITY)


# ---------------------------------------------------------------- encode side

def test_integer_out_of_range_rejected():
    with pytest.raises(FieldTooLarge):
        codec.encode(Validity(1 << 64, 0))
    with pytest.raises(FieldTooLarge):
        codec.encode(Validity(-1, 0))


def test_bool_is_not_an_integer_field():
    with pytest.raises(MalformedValue):
        codec.encode(Validity(True, 0))


def test_wrong_python_type_rejected():
    with pytest.raises(MalformedValue):
        codec.encode(Authenticator(5, "EXAMPLE", 0))
    with pytest.raises(MalformedValue):
        codec.encode(SealedBox("not-bytes", 1))


def test_unregistered_type_rejected():
    with pytest.raises(TypeError):
        codec.encode(object())
    with pytest.raises(TypeError):
        codec.decode(b"", 0x7D)


def test_nested_value_of_wrong_class_rejected():
    box = SealedBox(b"\x00", 1)
    with pytest.raises(MalformedValue):
        codec.encode(SealedTicket(Validity(1, 2), box))


def test_list_item_of_wrong_class_rejected():
    client = Principal("alice", "EXAMPLE")
    with pytest.raises(MalformedValue):
        codec.encode(CredentialCacheFile(client, None, [Validity(1, 2)]))


def test_none_only_allowed_in_optional_fields():
    with pytest.raises(MalformedValue):
        codec.encode(SealedTicket(None, SealedBox(b"\x00", 1)))
    with pytest.raises(MalformedValue):
        codec.encode(CredentialCacheFile(Principal("alice", "EXAMPLE"), None, [None]))


def test_registration_guards():
    @dataclass(frozen=True)
    class Fresh:
        x: int

    with pytest.raises(ValueError, match="registered twice"):
        codec.register(Fresh, codec.SchemaId.VALIDITY, [("x", "u8")])
    with pytest.raises(ValueError, match="unknown kind"):
        codec.register(Fresh, 0x7C, [("x", "floats")])
    with pytest.raises(ValueError, match="needs a nested class"):
        codec.register(Fresh, 0x7C, [("x", "struct")])


def test_registration_requires_dataclass_init_fields_in_order():
    @dataclass(frozen=True)
    class Pair:
        a: int
        b: int

    class Plain:
        a: int

    for fields in ([("b", "u8"), ("a", "u8")], [("a", "u8")], [("a", "u8"), ("b", "u8"), ("c", "u8")]):
        with pytest.raises(ValueError, match="init fields"):
            codec.register(Pair, 0x7C, fields)
    with pytest.raises(ValueError, match="not a dataclass"):
        codec.register(Plain, 0x7C, [("a", "u8")])
    assert codec.schema_id_of(b"\x7c") is None
    assert 0x7C not in codec._by_id  # nothing was registered
