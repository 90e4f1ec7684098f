"""Provider contract: both the toy and the standard profile must honor it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerbpk.crypto import (KEY_LENGTH, NONCE_LENGTH, PK_PAYLOAD_LIMIT, SealedBox,
                           SealLabel, SymmetricKey, ToyProvider, get_provider)
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


def test_relabeled_box_fails_even_when_labels_agree(provider):
    # The label byte is authenticated, not merely compared.
    key = provider.random_session_key()
    box = provider.seal(key, b"payload", SealLabel.TICKET)
    forged = SealedBox(box.ciphertext, int(SealLabel.AUTHENTICATOR))
    with pytest.raises(IntegrityError):
        provider.open(key, forged, SealLabel.AUTHENTICATOR)


def test_open_with_wrong_key_fails(provider):
    box = provider.seal(provider.random_session_key(), b"payload", SealLabel.WRAP)
    with pytest.raises(IntegrityError):
        provider.open(provider.random_session_key(), box, SealLabel.WRAP)


def test_every_ciphertext_bit_is_load_bearing(provider):
    key = provider.random_session_key()
    box = provider.seal(key, b"m" * 32, SealLabel.AP_ENC_PART)
    for byte in range(len(box.ciphertext)):
        for bit in range(8):
            mutated = bytearray(box.ciphertext)
            mutated[byte] ^= 1 << bit
            with pytest.raises(IntegrityError):
                provider.open(key, SealedBox(bytes(mutated), box.label),
                              SealLabel.AP_ENC_PART)


def test_truncated_box_rejected(provider):
    key = provider.random_session_key()
    with pytest.raises(IntegrityError):
        provider.open(key, SealedBox(b"\x00" * 4, int(SealLabel.TICKET)), SealLabel.TICKET)


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
    assert a.ciphertext != b.ciphertext


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
    stream = ToyProvider._stream(key.data, b"seal" + bytes([SealLabel.WRAP]), size)
    assert box.ciphertext[:-16] == _xor_bytewise(plaintext, stream)
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
    assert wrapped[:size] == _xor_bytewise(payload, ToyProvider._stream(core, b"pk-mask", size))
    assert prov.pk_decrypt(pair.private_key, wrapped) == payload


@pytest.mark.parametrize("size", [0, 1, 31, 33, 1024])
def test_every_toy_box_bit_flip_is_rejected(size):
    prov = ToyProvider(seed=7)
    key = prov.random_session_key()
    box = prov.seal(key, bytes(size), SealLabel.TGS_ENC_PART)
    for bit in range(8 * len(box.ciphertext)):
        mutated = bytearray(box.ciphertext)
        mutated[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(IntegrityError):
            prov.open(key, SealedBox(bytes(mutated), box.label), SealLabel.TGS_ENC_PART)
    for bit in range(8):
        with pytest.raises(IntegrityError):
            prov.open(key, SealedBox(box.ciphertext, box.label ^ (1 << bit)), SealLabel.TGS_ENC_PART)


def test_toy_keystream_separates_secret_from_context():
    assert ToyProvider._stream(b"ab", b"c", 64) != ToyProvider._stream(b"a", b"bc", 64)
    assert ToyProvider._stream(b"", b"abc", 64) != ToyProvider._stream(b"abc", b"", 64)
    assert len(ToyProvider._stream(b"k", b"c", 65536)) == 65536
    assert ToyProvider._stream(b"k", b"c", 0) == b""
