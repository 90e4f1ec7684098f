"""Pluggable crypto providers behind one small contract.

Two profiles ship:

* ``toy`` — fully deterministic given a seed.  Synthetic-IV sealing (in the
  manner of RFC 5297): the tag is a keyed BLAKE2b-128 of the label, the
  associated data and the plaintext, and it also names the keystream, so only
  equal (label, aad, plaintext) share one.  Keyed-hash "signatures", and an
  XOR-mask public-key wrap whose tag names its mask too.  Each keystream is
  one SHAKE-256 output, read to the payload's length, over the secret's
  length (u32), the secret and a context naming the purpose.
  Insecure by design; it exists so whole protocol runs are reproducible byte
  for byte and cheap enough for exhaustive tamper sweeps.
* ``standard`` — AES-GCM sealing, Ed25519 signatures, X25519+HKDF+AES-GCM for
  the public-key wrap, PBKDF2 password derivation, OS randomness.

Both profiles also compute SHA-256 (``digest``), which the request digests and
replay-cache keys in ``messages`` go through.  Both sides of a conversation
must use the same provider; keys carry their provider id and every operation
checks it.

Each provider imports its own primitives when its first instance is built.
The first ``StandardProvider`` imports ``cryptography`` (its OpenSSL bindings
cost about 10 MiB of memory) and hashes with it too, so a standard-provider
process maps one OpenSSL, and never loads ``hashlib``, ``hmac`` or
``secrets``, which would map Python's own beside it.  The first
``ToyProvider`` imports ``hashlib`` and ``hmac``, so a process that only runs
the toy provider, such as a scenario run or the tamper sweep, never loads
``cryptography``.

A sealed part travels as bare ciphertext.  The opener names the label it
expects and the seal binds it (AES-GCM associated data; the toy tag), so a part
sealed for one purpose (say TICKET) opens under no other.  Optional associated
data (``aad``) is bound alike: AES-GCM authenticates the label byte then the
data, and the toy tag length-prefixes it.  A toy part is the tag then the body.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass, field
from enum import IntEnum
from random import Random

from . import codec
from .errors import (
    DecryptFailure,
    EmptyPassword,
    IntegrityError,
    MalformedKey,
    PayloadTooLarge,
    ProviderMismatch,
)

KEY_LENGTH = 32
NONCE_LENGTH = 8
PK_PAYLOAD_LIMIT = 256


class SealLabel(IntEnum):
    """Domain-separation labels; one per sealed-part purpose."""

    TICKET = 1
    AS_ENC_PART = 2
    TGS_ENC_PART = 3
    AUTHENTICATOR = 4
    AP_ENC_PART = 5
    WRAP = 6


_LABELS = frozenset(SealLabel)


@codec.structure(codec.SchemaId.SYMMETRIC_KEY)
@dataclass(frozen=True)
class SymmetricKey:
    data: bytes = field(repr=False)
    provider_id: str
    # StandardProvider's AES-GCM object for this key, built on its first seal
    # or open; a class attribute, not a field, so the codec, ==, hash and
    # repr never see it
    _cipher = None


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    private_key: bytes = field(repr=False)


class CryptoProvider:
    """The key and label check and the random draws both providers share.

    Each provider supplies ``_random_bytes``, ``digest`` (SHA-256),
    ``derive_key_from_password``, ``seal``, ``open``, ``sign``, ``verify``,
    ``pk_encrypt``, ``pk_decrypt`` and ``generate_keypair``.
    """

    provider_id = "abstract"
    key_length = KEY_LENGTH
    nonce_length = NONCE_LENGTH
    pk_payload_limit = PK_PAYLOAD_LIMIT

    def _check(self, key: SymmetricKey, label: int) -> None:
        """Refuse a key of the wrong kind, provider or length, then a label
        that is not a SealLabel (with SealLabel's own ValueError)."""
        if not isinstance(key, SymmetricKey):
            raise MalformedKey(f"expected SymmetricKey, got {type(key).__name__}")
        if key.provider_id != self.provider_id:
            raise ProviderMismatch(f"key from provider {key.provider_id!r} used with {self.provider_id!r}")
        if len(key.data) != self.key_length:
            raise MalformedKey(f"key length {len(key.data)}, expected {self.key_length}")
        if label not in _LABELS:
            SealLabel(label)

    def random_session_key(self) -> SymmetricKey:
        return SymmetricKey(self._random_bytes(self.key_length), self.provider_id)

    def random_nonce(self) -> bytes:
        return self._random_bytes(self.nonce_length)


@functools.cache
def _import_hashlib() -> None:
    """Bind ``hashlib`` and ``hmac`` as globals of this module; runs once,
    from the first ToyProvider built."""
    global hashlib, hmac_mod
    import hashlib
    import hmac as hmac_mod


def _sha(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


class ToyProvider(CryptoProvider):
    """Deterministic test provider.  Do not protect anything real with it."""

    provider_id = "toy"
    _TAG_LEN = 16
    _PK_TAG_LEN = 8
    _PUB_PREFIX = b"TOYPK"

    def __init__(self, seed: int = 0):
        _import_hashlib()
        self._rng = Random(seed)
        self._lock = threading.Lock()

    def _random_bytes(self, n: int) -> bytes:
        with self._lock:
            return self._rng.randbytes(n)

    def digest(self, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()

    @staticmethod
    def _stream(secret: bytes, context: bytes, length: int) -> bytes:
        # The length prefix keeps (b"ab", b"c") and (b"a", b"bc") apart.
        return hashlib.shake_256(len(secret).to_bytes(4, "big") + secret + context).digest(length)

    @classmethod
    def _xor_stream(cls, secret: bytes, context: bytes, data: bytes) -> bytes:
        stream = cls._stream(secret, context, len(data))
        return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")

    def _seal_tag(self, key: SymmetricKey, label: int, aad: bytes, plaintext: bytes) -> bytes:
        # The length prefix keeps (aad, plaintext) splits apart.
        message = bytes([label]) + len(aad).to_bytes(4, "big") + aad + plaintext
        return hashlib.blake2b(message, digest_size=self._TAG_LEN, key=key.data).digest()

    def derive_key_from_password(self, password: str, name: str, realm: str) -> SymmetricKey:
        if not password:
            raise EmptyPassword("password must be non-empty")
        data = _sha(b"toy-pw", realm.encode(), b"|", name.encode(), b"|", password.encode())
        return SymmetricKey(data, self.provider_id)

    def seal(self, key: SymmetricKey, plaintext: bytes, label: int, aad: bytes = b"") -> bytes:
        self._check(key, label)
        tag = self._seal_tag(key, label, aad, plaintext)
        return tag + self._xor_stream(key.data, b"seal" + tag, plaintext)

    def open(self, key: SymmetricKey, ciphertext: bytes, label: int, aad: bytes = b"") -> bytes:
        self._check(key, label)
        if len(ciphertext) < self._TAG_LEN:
            raise IntegrityError("sealed part shorter than its tag")
        tag = ciphertext[: self._TAG_LEN]
        plaintext = self._xor_stream(key.data, b"seal" + tag, ciphertext[self._TAG_LEN:])
        if not hmac_mod.compare_digest(tag, self._seal_tag(key, label, aad, plaintext)):
            raise IntegrityError("seal tag mismatch")
        return plaintext

    @classmethod
    def _pub_core(cls, public_key: bytes) -> bytes:
        if len(public_key) != len(cls._PUB_PREFIX) + 32 or not public_key.startswith(cls._PUB_PREFIX):
            raise MalformedKey("not a toy public key")
        return public_key[len(cls._PUB_PREFIX):]

    @staticmethod
    def _core_from_private(private_key: bytes) -> bytes:
        if len(private_key) != 32:
            raise MalformedKey("toy private key must be 32 bytes")
        return _sha(b"toy-core", private_key)

    def sign(self, private_key: bytes, message: bytes) -> bytes:
        return _sha(b"toy-sig", self._core_from_private(private_key), message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        core = self._pub_core(public_key)
        return hmac_mod.compare_digest(signature, _sha(b"toy-sig", core, message))

    def pk_encrypt(self, public_key: bytes, payload: bytes) -> bytes:
        core = self._pub_core(public_key)
        if len(payload) > self.pk_payload_limit:
            raise PayloadTooLarge(f"{len(payload)} bytes exceeds pk payload limit {self.pk_payload_limit}")
        tag = _sha(b"pk-tag", core, payload)[: self._PK_TAG_LEN]
        return self._xor_stream(core, b"pk-mask" + tag, payload) + tag

    def pk_decrypt(self, private_key: bytes, ciphertext: bytes) -> bytes:
        core = self._core_from_private(private_key)
        if len(ciphertext) < self._PK_TAG_LEN:
            raise DecryptFailure("ciphertext shorter than its tag")
        body, tag = ciphertext[: -self._PK_TAG_LEN], ciphertext[-self._PK_TAG_LEN:]
        payload = self._xor_stream(core, b"pk-mask" + tag, body)
        if not hmac_mod.compare_digest(tag, _sha(b"pk-tag", core, payload)[: self._PK_TAG_LEN]):
            raise DecryptFailure("pk unwrap tag mismatch")
        return payload

    def generate_keypair(self) -> KeyPair:
        private = self._random_bytes(32)
        return KeyPair(self._PUB_PREFIX + self._core_from_private(private), private)


@functools.cache
def _import_cryptography() -> None:
    """Bind the ``cryptography`` names StandardProvider uses as globals of
    this module; runs once, from the first StandardProvider built."""
    global InvalidSignature, InvalidTag, hashes, Ed25519PrivateKey, Ed25519PublicKey
    global X25519PrivateKey, X25519PublicKey, AESGCM, HKDF, PBKDF2HMAC
    from cryptography.exceptions import InvalidSignature, InvalidTag
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    from cryptography.hazmat.primitives.kdf.hkdf import HKDF
    from cryptography.hazmat.primitives.kdf.pbkdf2 import PBKDF2HMAC


class StandardProvider(CryptoProvider):
    """Production profile on well-reviewed primitives.

    Key pairs concatenate a signing half and an exchange half: 32 Ed25519
    bytes then 32 X25519 bytes, for both public and private sides.  A
    ``SymmetricKey`` keeps the AES-GCM object built on its first ``seal`` or
    ``open``, so its key schedule is computed once per key, not per message.
    The public-key wrap builds one per call: its keys are ephemeral.
    """

    provider_id = "standard"
    _GCM_NONCE = 12
    _PBKDF2_ITERATIONS = 50_000
    _random_bytes = staticmethod(os.urandom)

    def __init__(self):
        _import_cryptography()

    def digest(self, data: bytes) -> bytes:
        h = hashes.Hash(hashes.SHA256())
        h.update(data)
        return h.finalize()

    def derive_key_from_password(self, password: str, name: str, realm: str) -> SymmetricKey:
        if not password:
            raise EmptyPassword("password must be non-empty")
        kdf = PBKDF2HMAC(
            algorithm=hashes.SHA256(),
            length=self.key_length,
            salt=f"{realm}/{name}".encode(),
            iterations=self._PBKDF2_ITERATIONS,
        )
        return SymmetricKey(kdf.derive(password.encode()), self.provider_id)

    @staticmethod
    def _cipher_for(key: SymmetricKey):
        """The key's one AES-GCM object, key schedule included, built on first
        use.  Threads that race here each build an equal one, and one is kept."""
        cipher = key._cipher
        if cipher is None:
            cipher = AESGCM(key.data)
            object.__setattr__(key, "_cipher", cipher)
        return cipher

    def seal(self, key: SymmetricKey, plaintext: bytes, label: int, aad: bytes = b"") -> bytes:
        self._check(key, label)
        nonce = os.urandom(self._GCM_NONCE)
        return nonce + self._cipher_for(key).encrypt(nonce, plaintext, bytes([label]) + aad)

    def open(self, key: SymmetricKey, ciphertext: bytes, label: int, aad: bytes = b"") -> bytes:
        self._check(key, label)
        if len(ciphertext) < self._GCM_NONCE + 16:
            raise IntegrityError("sealed part too short")
        nonce, body = ciphertext[: self._GCM_NONCE], ciphertext[self._GCM_NONCE:]
        try:
            return self._cipher_for(key).decrypt(nonce, body, bytes([label]) + aad)
        except InvalidTag:
            raise IntegrityError("seal tag mismatch") from None

    @staticmethod
    def _split_public(public_key: bytes) -> tuple[bytes, bytes]:
        if len(public_key) != 64:
            raise MalformedKey(f"public key must be 64 bytes, got {len(public_key)}")
        return public_key[:32], public_key[32:]

    @staticmethod
    def _split_private(private_key: bytes) -> tuple[bytes, bytes]:
        if len(private_key) != 64:
            raise MalformedKey(f"private key must be 64 bytes, got {len(private_key)}")
        return private_key[:32], private_key[32:]

    def sign(self, private_key: bytes, message: bytes) -> bytes:
        ed, _ = self._split_private(private_key)
        return Ed25519PrivateKey.from_private_bytes(ed).sign(message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        ed, _ = self._split_public(public_key)
        try:
            Ed25519PublicKey.from_public_bytes(ed).verify(signature, message)
            return True
        except InvalidSignature:
            return False

    def _exchange_key(self, private_scalar: X25519PrivateKey, peer_public: bytes) -> bytes:
        shared = private_scalar.exchange(X25519PublicKey.from_public_bytes(peer_public))
        return HKDF(algorithm=hashes.SHA256(), length=self.key_length, salt=None, info=b"kerbpk-pk-wrap").derive(shared)

    def pk_encrypt(self, public_key: bytes, payload: bytes) -> bytes:
        _, xpub = self._split_public(public_key)
        if len(payload) > self.pk_payload_limit:
            raise PayloadTooLarge(f"{len(payload)} bytes exceeds pk payload limit {self.pk_payload_limit}")
        ephemeral = X25519PrivateKey.generate()
        key = self._exchange_key(ephemeral, xpub)
        nonce = os.urandom(self._GCM_NONCE)
        body = AESGCM(key).encrypt(nonce, payload, None)
        return ephemeral.public_key().public_bytes_raw() + nonce + body

    def pk_decrypt(self, private_key: bytes, ciphertext: bytes) -> bytes:
        _, xpriv = self._split_private(private_key)
        if len(ciphertext) < 32 + self._GCM_NONCE + 16:
            raise DecryptFailure("pk ciphertext too short")
        eph_pub, nonce, body = ciphertext[:32], ciphertext[32:32 + self._GCM_NONCE], ciphertext[32 + self._GCM_NONCE:]
        try:
            key = self._exchange_key(X25519PrivateKey.from_private_bytes(xpriv), eph_pub)
            return AESGCM(key).decrypt(nonce, body, None)
        except (InvalidTag, ValueError):
            raise DecryptFailure("pk unwrap failed") from None

    def generate_keypair(self) -> KeyPair:
        ed = Ed25519PrivateKey.generate()
        x = X25519PrivateKey.generate()
        public = ed.public_key().public_bytes_raw() + x.public_key().public_bytes_raw()
        private = ed.private_bytes_raw() + x.private_bytes_raw()
        return KeyPair(public, private)


def get_provider(name: str, seed: int | None = None) -> CryptoProvider:
    """Build a provider by config name; the toy profile accepts a seed."""
    if name == "toy":
        return ToyProvider(seed if seed is not None else 0)
    if name == "standard":
        if seed is not None:
            raise ValueError("the standard provider does not take a seed")
        return StandardProvider()
    raise ValueError(f"unknown crypto provider {name!r}")
