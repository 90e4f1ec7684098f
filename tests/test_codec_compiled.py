"""The compiled codec against the interpretive reference in ``codec_reference``.

For every registered schema, values from a real ``happy_path`` run and from
hypothesis must encode to the same bytes and decode to equal objects, and every
proper prefix and every single-bit flip of those encodings must end the same
way under both codecs: the same decoded object, or the same exception class
with the same message.  The bytes a request's signature or digest covers must
be the reference encoding of that request without its last field, under the
body's own schema id.
"""

import functools
import hashlib
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codec_reference as reference
from kerbpk import codec
from kerbpk.crypto import StandardProvider
from kerbpk.messages import (ApRequest, AsRequest, Principal, TgsRequest,
                             as_request_signable, request_digest)
from kerbpk.scenario import load_scenario, run_scenario

SCHEMA_IDS = sorted(reference.SCHEMAS)
SCHEMA_NAMES = [codec.SchemaId(sid).name for sid in SCHEMA_IDS]


def outcome(decode, data: bytes, schema_id: int):
    try:
        return "ok", decode(data, schema_id)
    except Exception as exc:  # details travel in ErrorReply frames, so compare them too
        return "raised", type(exc), str(exc)


def assert_same_as_reference(obj) -> None:
    schema_id = reference.SCHEMA_ID[type(obj)]
    data = codec.encode(obj)
    assert data == reference.encode(obj)
    assert codec.decode(data, schema_id) == reference.decode(data, schema_id) == obj
    for cut in range(len(data)):
        assert outcome(codec.decode, data[:cut], schema_id) == \
            outcome(reference.decode, data[:cut], schema_id), f"prefix of {cut} bytes"
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert outcome(codec.decode, bytes(flipped), schema_id) == \
            outcome(reference.decode, bytes(flipped), schema_id), f"bit {bit} flipped"


def test_registry_matches_reference_table():
    assert {sid: schema.cls for sid, schema in codec._by_id.items()} == reference.SCHEMAS
    assert set(codec._KNOWN_IDS) == reference.KNOWN_IDS
    for name, body_id in reference.BODY_IDS.items():
        assert codec.SchemaId[name] == body_id
    for schema in codec._by_id.values():
        assert list(schema.fields) == reference.fields(schema.cls), schema.cls.__name__


# ------------------------------------------------------- a real protocol run

@pytest.fixture(scope="module")
def happy_path_values():
    """Every distinct value the library encoded during one clean happy_path run."""
    seen = {}
    original = codec.encode

    def recording(obj):
        data = original(obj)
        seen.setdefault(data, obj)
        return data

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "encode", recording)
        report = run_scenario(load_scenario("happy_path"), seed=11)
    assert report.ok
    return list(seen.values())


def test_happy_path_values_cover_every_exchange(happy_path_values):
    covered = {reference.SCHEMA_ID[type(obj)] for obj in happy_path_values}
    wire = {codec.SchemaId.AS_REQUEST, codec.SchemaId.AS_REPLY, codec.SchemaId.TGS_REQUEST,
            codec.SchemaId.TGS_REPLY, codec.SchemaId.AP_REQUEST, codec.SchemaId.AP_REPLY,
            codec.SchemaId.WRAP_TOKEN}
    sealed = {codec.SchemaId.TICKET_BODY, codec.SchemaId.ENC_PART_AS, codec.SchemaId.ENC_PART_TGS,
              codec.SchemaId.APP_REQUEST, codec.SchemaId.APP_RESPONSE}
    assert wire | sealed <= covered


def test_happy_path_values_match_reference(happy_path_values):
    for obj in happy_path_values:
        assert_same_as_reference(obj)


# ------------------------------------------------------- generated values

_NAME = st.text(alphabet=[chr(c) for c in range(0x21, 0x7F)], min_size=1, max_size=6)
_REALM = st.text(alphabet=string.ascii_uppercase + ".", min_size=1, max_size=6)


def value_strategy(cls):
    """Values of a registered class, built field by field from its schema."""
    if cls is Principal:  # its name rules reject most text
        return st.builds(Principal, _NAME, _REALM)
    fields = {}
    for name, kind, arg in reference.fields(cls):
        if kind in reference._INT_WIDTH:
            size = reference._INT_WIDTH[kind]
            fields[name] = st.integers(min_value=0, max_value=(1 << (8 * size)) - 1)
        elif kind == "bytes":
            fields[name] = st.binary(max_size=12)
        elif kind == "str":
            fields[name] = st.text(max_size=6)
        elif kind == "struct":
            fields[name] = value_strategy(arg)
        elif kind == "opt":
            fields[name] = st.none() | value_strategy(arg)
        else:
            fields[name] = st.lists(value_strategy(arg), max_size=2)
    return st.builds(cls, **fields)


@pytest.mark.parametrize("schema_id", SCHEMA_IDS, ids=SCHEMA_NAMES)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_generated_values_match_reference(schema_id, data):
    cls = reference.SCHEMAS[schema_id]
    assert_same_as_reference(data.draw(value_strategy(cls)))


def reference_body(req, body_id: int) -> bytes:
    """The reference encoding of ``req`` with its last field dropped, tagged ``body_id``."""
    fields = reference.fields(type(req))
    name, kind, arg = fields[-1]
    last = reference._field(len(fields), reference._encode_value(kind, arg, getattr(req, name)))
    whole = reference.encode(req)
    return reference._field(body_id, whole[reference._HEADER.size:len(whole) - len(last)])


STANDARD_DIGEST = functools.partial(request_digest, provider=StandardProvider())


@pytest.mark.parametrize("cls,body_id,derive,hashed", [
    (AsRequest, codec.SchemaId.AS_REQ_BODY, as_request_signable, False),
    (TgsRequest, codec.SchemaId.TGS_REQ_BODY, STANDARD_DIGEST, True),
    (ApRequest, codec.SchemaId.AP_REQ_BODY, STANDARD_DIGEST, True),
], ids=["AS", "TGS", "AP"])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_request_bodies_match_reference(cls, body_id, derive, hashed, data):
    req = data.draw(value_strategy(cls))
    body = reference_body(req, body_id)
    assert codec.encode_body(req, body_id) == body
    assert derive(req) == (hashlib.sha256(body).digest() if hashed else body)
