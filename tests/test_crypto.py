"""Provider contract: both the toy and the standard profile must honor it."""

import hashlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerbpk.crypto import (KEY_LENGTH, NONCE_LENGTH, PK_PAYLOAD_LIMIT, SealLabel,
                           StandardProvider, SymmetricKey, ToyProvider, get_provider)
from kerbpk.errors import (DecryptFailure, EmptyPassword, IntegrityError,
                           MalformedKey, PayloadTooLarge, ProviderMismatch)


@pytest.fixture(params=["toy", "standard"])
def provider(request):
    if request.param == "toy":
        return get_provider("toy", seed=77)
    return get_provider("standard")


def test_get_provider_names():
    assert get_provider("toy", seed=1).provider_id == "toy"
    assert get_provider("standard").provider_id == "standard"
    with pytest.raises(ValueError):
        get_provider("standard", seed=1)
    with pytest.raises(ValueError):
        get_provider("rot13")


# -------------------------------------------------------------------- digest

@given(data=st.binary(max_size=1024))
@settings(max_examples=50, deadline=None)
def test_both_providers_digest_with_sha256(data):
    assert ToyProvider().digest(data) == StandardProvider().digest(data) \
        == hashlib.sha256(data).digest()


# ------------------------------------------------------------------- sealing

def test_seal_open_roundtrip(provider):
    key = provider.random_session_key()
    box = provider.seal(key, b"attack at dawn", SealLabel.TICKET)
    assert provider.open(key, box, SealLabel.TICKET) == b"attack at dawn"


def test_open_with_wrong_label_fails(provider):
    key = provider.random_session_key()
    box = provider.seal(key, b"payload", SealLabel.TICKET)
    with pytest.raises(IntegrityError):
        provider.open(key, box, SealLabel.AUTHENTICATOR)


def test_sealed_part_opens_under_no_other_label(provider):
    # No label travels with the ciphertext: the seal binds the one it was
    # sealed under, and the opener names the one it expects.
    key = provider.random_session_key()
    for label in SealLabel:
        box = provider.seal(key, b"payload", label)
        assert provider.open(key, box, label) == b"payload"
        for other in SealLabel:
            if other is not label:
                with pytest.raises(IntegrityError):
                    provider.open(key, box, other)


def test_associated_data_must_match_exactly(provider):
    key = provider.random_session_key()
    box = provider.seal(key, b"payload", SealLabel.WRAP, b"header")
    assert provider.open(key, box, SealLabel.WRAP, b"header") == b"payload"
    for other in (b"", b"headeR", b"header\x00", b"heade"):
        with pytest.raises(IntegrityError):
            provider.open(key, box, SealLabel.WRAP, other)
    # and a part sealed without associated data opens only without it
    bare = provider.seal(key, b"payload", SealLabel.WRAP)
    with pytest.raises(IntegrityError):
        provider.open(key, bare, SealLabel.WRAP, b"header")
    assert provider.open(key, bare, SealLabel.WRAP) == b"payload"


def test_toy_tag_keeps_associated_data_and_body_apart():
    # Without the length prefix, moving the last byte of the associated data
    # to the front of the plaintext would leave the tag's input unchanged; the
    # tag names the keystream, so the forger can extend the body under it.
    prov = ToyProvider(seed=8)
    key = prov.random_session_key()
    box = prov.seal(key, b"payload", SealLabel.WRAP, b"ab")
    tag = box[:16]
    stream = prov._stream(key.data, b"seal" + tag, len(box) - 16 + 1)
    forged = tag + _xor_bytewise(b"b" + b"payload", stream)
    with pytest.raises(IntegrityError):
        prov.open(key, forged, SealLabel.WRAP, b"a")


def test_open_with_wrong_key_fails(provider):
    box = provider.seal(provider.random_session_key(), b"payload", SealLabel.WRAP)
    with pytest.raises(IntegrityError):
        provider.open(provider.random_session_key(), box, SealLabel.WRAP)


def test_every_ciphertext_bit_is_load_bearing(provider):
    key = provider.random_session_key()
    box = provider.seal(key, b"m" * 32, SealLabel.AP_ENC_PART)
    for byte in range(len(box)):
        for bit in range(8):
            mutated = bytearray(box)
            mutated[byte] ^= 1 << bit
            with pytest.raises(IntegrityError):
                provider.open(key, bytes(mutated), SealLabel.AP_ENC_PART)


def test_truncated_box_rejected(provider):
    key = provider.random_session_key()
    with pytest.raises(IntegrityError):
        provider.open(key, b"\x00" * 4, SealLabel.TICKET)


def test_empty_plaintext_roundtrip(provider):
    key = provider.random_session_key()
    box = provider.seal(key, b"", SealLabel.WRAP)
    assert provider.open(key, box, SealLabel.WRAP) == b""


# ---------------------------------------------------------------------- keys

def test_key_from_other_provider_rejected():
    toy, std = get_provider("toy", seed=1), get_provider("standard")
    toy_key = toy.random_session_key()
    with pytest.raises(ProviderMismatch):
        std.seal(toy_key, b"x", SealLabel.TICKET)
    with pytest.raises(ProviderMismatch):
        std.open(toy_key, toy.seal(toy_key, b"x", SealLabel.TICKET), SealLabel.TICKET)


def test_short_key_rejected(provider):
    bad = SymmetricKey(b"\x01" * 16, provider.provider_id)
    with pytest.raises(MalformedKey):
        provider.seal(bad, b"x", SealLabel.TICKET)
    with pytest.raises(MalformedKey):  # raw bytes are not a key at all
        provider.seal(b"\x01" * KEY_LENGTH, b"x", SealLabel.TICKET)


def test_password_derivation(provider):
    k1 = provider.derive_key_from_password("hunter2", "alice", "EXAMPLE")
    k2 = provider.derive_key_from_password("hunter2", "alice", "EXAMPLE")
    assert k1 == k2
    assert len(k1.data) == KEY_LENGTH
    assert k1.provider_id == provider.provider_id
    for other in (("hunter3", "alice", "EXAMPLE"),
                  ("hunter2", "bob", "EXAMPLE"),
                  ("hunter2", "alice", "OTHER")):
        assert provider.derive_key_from_password(*other) != k1


def test_empty_password_rejected(provider):
    with pytest.raises(EmptyPassword):
        provider.derive_key_from_password("", "alice", "EXAMPLE")


# ---------------------------------------------------------------- signatures

def test_sign_verify(provider):
    pair = provider.generate_keypair()
    sig = provider.sign(pair.private_key, b"message")
    assert provider.verify(pair.public_key, b"message", sig)
    assert not provider.verify(pair.public_key, b"other message", sig)
    other = provider.generate_keypair()
    assert not provider.verify(other.public_key, b"message", sig)


def test_foreign_public_key_shape_rejected():
    toy, std = get_provider("toy", seed=1), get_provider("standard")
    toy_pair, std_pair = toy.generate_keypair(), std.generate_keypair()
    with pytest.raises(MalformedKey):
        toy.verify(std_pair.public_key, b"m", b"s")
    with pytest.raises(MalformedKey):
        std.verify(toy_pair.public_key, b"m", b"s")


def test_foreign_private_key_shape_rejected():
    toy, std = get_provider("toy", seed=1), get_provider("standard")
    toy_pair, std_pair = toy.generate_keypair(), std.generate_keypair()
    with pytest.raises(MalformedKey):
        toy.sign(std_pair.private_key, b"m")
    with pytest.raises(MalformedKey):
        std.sign(toy_pair.private_key, b"m")


# ------------------------------------------------------------ public-key wrap

def test_pk_roundtrip(provider):
    pair = provider.generate_keypair()
    wrapped = provider.pk_encrypt(pair.public_key, b"session-key-material")
    assert provider.pk_decrypt(pair.private_key, wrapped) == b"session-key-material"


def test_pk_decrypt_with_wrong_key_fails(provider):
    pair, other = provider.generate_keypair(), provider.generate_keypair()
    wrapped = provider.pk_encrypt(pair.public_key, b"secret")
    with pytest.raises(DecryptFailure):
        provider.pk_decrypt(other.private_key, wrapped)


def test_pk_tampered_ciphertext_fails(provider):
    pair = provider.generate_keypair()
    wrapped = bytearray(provider.pk_encrypt(pair.public_key, b"secret"))
    wrapped[-1] ^= 0x01
    with pytest.raises(DecryptFailure):
        provider.pk_decrypt(pair.private_key, bytes(wrapped))
    with pytest.raises(DecryptFailure):  # shorter than any wrap
        provider.pk_decrypt(pair.private_key, bytes(wrapped[:7]))


def test_pk_payload_limit(provider):
    pair = provider.generate_keypair()
    provider.pk_encrypt(pair.public_key, b"x" * PK_PAYLOAD_LIMIT)  # at the limit: fine
    with pytest.raises(PayloadTooLarge):
        provider.pk_encrypt(pair.public_key, b"x" * (PK_PAYLOAD_LIMIT + 1))


# -------------------------------------------------------------------- entropy

def test_nonces_never_repeat(provider):
    nonces = {provider.random_nonce() for _ in range(10_000)}
    assert len(nonces) == 10_000
    assert all(len(n) == NONCE_LENGTH for n in nonces)


def test_toy_provider_is_seed_deterministic():
    a, b = ToyProvider(seed=42), ToyProvider(seed=42)
    assert a.generate_keypair() == b.generate_keypair()
    assert a.random_nonce() == b.random_nonce()
    assert a.random_session_key() == b.random_session_key()
    assert ToyProvider(seed=42).random_nonce() != ToyProvider(seed=43).random_nonce()


def test_providers_produce_distinct_wire_artifacts():
    # Same plaintext sealed twice differs: nonce/mask material is fresh each time.
    std = get_provider("standard")
    key = std.random_session_key()
    a = std.seal(key, b"same", SealLabel.TICKET)
    b = std.seal(key, b"same", SealLabel.TICKET)
    assert a != b


# ----------------------------------------------------------------- properties

labels = st.sampled_from(list(SealLabel))


@given(st.binary(max_size=400), labels)
@settings(max_examples=50)
def test_seal_roundtrip_property_toy(payload, label):
    prov = get_provider("toy", seed=3)
    key = prov.random_session_key()
    assert prov.open(key, prov.seal(key, payload, label), label) == payload


@given(st.binary(max_size=400), labels)
@settings(max_examples=50)
def test_seal_roundtrip_property_standard(payload, label):
    prov = get_provider("standard")
    key = prov.random_session_key()
    assert prov.open(key, prov.seal(key, payload, label), label) == payload


def test_one_key_seals_and_opens_from_two_threads_at_once():
    # the KDC's and the gateway's workers share long-term keys, and with them
    # each key's one AES-GCM object
    prov = get_provider("standard")
    key = prov.random_session_key()
    errors = []

    def round_trips(n):
        try:
            for i in range(5000):
                payload = b"%d.%d" % (n, i)
                box = prov.seal(key, payload, SealLabel.WRAP, payload)
                assert prov.open(key, box, SealLabel.WRAP, payload) == payload
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=round_trips, args=(n,)) for n in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


@given(st.binary(max_size=PK_PAYLOAD_LIMIT))
@settings(max_examples=50)
def test_pk_roundtrip_property(payload):
    prov = get_provider("toy", seed=4)
    pair = prov.generate_keypair()
    assert prov.pk_decrypt(pair.private_key, prov.pk_encrypt(pair.public_key, payload)) == payload


# -------------------------------------------------------------- toy keystream

TOY_SIZES = [0, 1, 31, 32, 33, 1024, 65536]


def _xor_bytewise(data: bytes, stream: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, stream, strict=True))


@pytest.mark.parametrize("size", TOY_SIZES)
def test_toy_seal_roundtrip_sizes(size):
    prov = ToyProvider(seed=5)
    key = prov.random_session_key()
    plaintext = bytes(i % 251 for i in range(size))  # leading zero bytes must survive
    box = prov.seal(key, plaintext, SealLabel.WRAP)
    tag = box[:16]  # the synthetic IV: the keystream's context is b"seal" + tag
    stream = prov._stream(key.data, b"seal" + tag, size)
    assert box[16:] == _xor_bytewise(plaintext, stream)
    assert prov.open(key, box, SealLabel.WRAP) == plaintext


@pytest.mark.parametrize("size", TOY_SIZES)
def test_toy_pk_roundtrip_sizes(size):
    prov = ToyProvider(seed=6)
    pair = prov.generate_keypair()
    payload = bytes(i % 251 for i in range(size))
    if size > PK_PAYLOAD_LIMIT:
        with pytest.raises(PayloadTooLarge):
            prov.pk_encrypt(pair.public_key, payload)
        return
    wrapped = prov.pk_encrypt(pair.public_key, payload)
    core = ToyProvider._pub_core(pair.public_key)
    tag = wrapped[size:]
    assert len(tag) == 8
    assert wrapped[:size] == _xor_bytewise(payload, prov._stream(core, b"pk-mask" + tag, size))
    assert prov.pk_decrypt(pair.private_key, wrapped) == payload


@pytest.mark.parametrize("size", [0, 1, 31, 33, 1024])
def test_every_toy_box_bit_flip_is_rejected(size):
    prov = ToyProvider(seed=7)
    key = prov.random_session_key()
    box = prov.seal(key, bytes(size), SealLabel.TGS_ENC_PART)
    for bit in range(8 * len(box)):
        mutated = bytearray(box)
        mutated[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(IntegrityError):
            prov.open(key, bytes(mutated), SealLabel.TGS_ENC_PART)
    for other in SealLabel:  # the label is bound, not carried
        if other is not SealLabel.TGS_ENC_PART:
            with pytest.raises(IntegrityError):
                prov.open(key, box, other)


def test_toy_seal_hides_the_xor_of_two_payloads():
    # one key and label: with one keystream per (key, label) the parts' XOR
    # would hold the payloads' XOR, a two-time pad
    prov = ToyProvider(seed=9)
    key = prov.random_session_key()
    first, second = b"attack at dawn!", b"retreat at six!"
    a = prov.seal(key, first, SealLabel.WRAP, b"1")
    b = prov.seal(key, second, SealLabel.WRAP, b"1")
    assert _xor_bytewise(first, second) not in _xor_bytewise(a, b)
    c = prov.seal(key, first, SealLabel.WRAP, b"2")
    assert _xor_bytewise(first, first) not in _xor_bytewise(a, c)  # aad alone re-keys it
    # only equal (label, aad, payload) share a keystream, and seal alike
    assert prov.seal(key, first, SealLabel.WRAP, b"1") == a


def test_toy_pk_wrap_hides_the_xor_of_two_payloads():
    prov = ToyProvider(seed=10)
    pair = prov.generate_keypair()
    first, second = bytes(32), bytes(range(32))  # two session keys for one user
    a = prov.pk_encrypt(pair.public_key, first)
    b = prov.pk_encrypt(pair.public_key, second)
    assert _xor_bytewise(first, second) not in _xor_bytewise(a, b)
    assert prov.pk_decrypt(pair.private_key, a) == first
    assert prov.pk_decrypt(pair.private_key, b) == second


@pytest.mark.parametrize("label", list(SealLabel), ids=[label.name for label in SealLabel])
@pytest.mark.parametrize("aad", [b"", b"header"], ids=["no-aad", "aad"])
def test_every_toy_part_bit_flip_is_refused_under_every_label(label, aad):
    prov = ToyProvider(seed=11)
    key = prov.random_session_key()
    box = prov.seal(key, b"m" * 20, label, aad)
    assert len(box) == 16 + 20
    for bit in range(8 * len(box)):  # the tag's bits and the body's
        mutated = bytearray(box)
        mutated[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(IntegrityError):
            prov.open(key, bytes(mutated), label, aad)


def _label_error(value) -> str:
    try:
        SealLabel(value)
    except ValueError as exc:
        return str(exc)
    return ""


@given(st.integers(min_value=-300, max_value=300) | st.sampled_from(list(SealLabel)))
@settings(max_examples=200, deadline=None)
def test_label_check_accepts_exactly_the_seal_labels(value):
    expected = _label_error(value)
    for prov in (ToyProvider(seed=12), StandardProvider()):
        key = prov.random_session_key()
        if not expected:
            assert prov.open(key, prov.seal(key, b"x", value), value) == b"x"
            continue
        with pytest.raises(ValueError) as seal_info:
            prov.seal(key, b"x", value)
        with pytest.raises(ValueError) as open_info:
            prov.open(key, b"\x00" * 64, value)
        assert str(seal_info.value) == str(open_info.value) == expected


def test_toy_keystream_separates_secret_from_context():
    prov = ToyProvider()
    assert prov._stream(b"ab", b"c", 64) != prov._stream(b"a", b"bc", 64)
    assert prov._stream(b"", b"abc", 64) != prov._stream(b"abc", b"", 64)
    assert len(prov._stream(b"k", b"c", 65536)) == 65536
    assert prov._stream(b"k", b"c", 0) == b""
