"""Pluggable crypto providers behind one small contract.

Two profiles ship:

* ``toy`` — fully deterministic given a seed.  Keystream-XOR sealing with a
  keyed-hash tag, keyed-hash "signatures", and an XOR-mask public-key wrap.
  Each keystream is one SHAKE-256 output, read to the payload's length, over
  the secret's length (u32), the secret and a context naming the purpose.
  Insecure by design; it exists so whole protocol runs are reproducible byte
  for byte and cheap enough for exhaustive tamper sweeps.
* ``standard`` — AES-GCM sealing, Ed25519 signatures, X25519+HKDF+AES-GCM for
  the public-key wrap, PBKDF2 password derivation, OS randomness.

Both sides of a conversation must use the same provider; keys carry their
provider id and every operation checks it.

The first ``StandardProvider`` built in a process imports ``cryptography``
(its OpenSSL bindings cost about 10 MiB of memory), so a process that only
runs the toy provider, such as a scenario run or the tamper sweep, never
loads it.

Sealing is labeled: a box sealed for one purpose (for example TICKET) never
opens under another label even with the correct key.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as hmac_mod
import secrets
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


@codec.structure(codec.SchemaId.SYMMETRIC_KEY)
@dataclass(frozen=True)
class SymmetricKey:
    data: bytes = field(repr=False)
    provider_id: str


@codec.structure(codec.SchemaId.KEY_PAIR)
@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    private_key: bytes = field(repr=False)


@codec.structure(codec.SchemaId.SEALED_BOX)
@dataclass(frozen=True)
class SealedBox:
    ciphertext: bytes
    label: codec.U8


class CryptoProvider:
    """The key and label checks and the random draws both providers share.

    Each provider supplies ``_random_bytes``, ``derive_key_from_password``,
    ``seal``, ``open``, ``sign``, ``verify``, ``pk_encrypt``, ``pk_decrypt``
    and ``generate_keypair``.
    """

    provider_id = "abstract"
    key_length = KEY_LENGTH
    nonce_length = NONCE_LENGTH
    pk_payload_limit = PK_PAYLOAD_LIMIT

    def _check_key(self, key: SymmetricKey) -> None:
        if not isinstance(key, SymmetricKey):
            raise MalformedKey(f"expected SymmetricKey, got {type(key).__name__}")
        if key.provider_id != self.provider_id:
            raise ProviderMismatch(f"key from provider {key.provider_id!r} used with {self.provider_id!r}")
        if len(key.data) != self.key_length:
            raise MalformedKey(f"key length {len(key.data)}, expected {self.key_length}")

    def _check_label(self, label: int) -> int:
        return int(SealLabel(label))

    def random_session_key(self) -> SymmetricKey:
        return SymmetricKey(self._random_bytes(self.key_length), self.provider_id)

    def random_nonce(self) -> bytes:
        return self._random_bytes(self.nonce_length)


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
        self._rng = Random(seed)
        self._lock = threading.Lock()

    def _random_bytes(self, n: int) -> bytes:
        with self._lock:
            return self._rng.randbytes(n)

    @staticmethod
    def _stream(secret: bytes, context: bytes, length: int) -> bytes:
        # The length prefix keeps (b"ab", b"c") and (b"a", b"bc") apart.
        return hashlib.shake_256(len(secret).to_bytes(4, "big") + secret + context).digest(length)

    @classmethod
    def _xor_stream(cls, secret: bytes, context: bytes, data: bytes) -> bytes:
        stream = cls._stream(secret, context, len(data))
        return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")

    def _seal_tag(self, key: SymmetricKey, label: int, body: bytes) -> bytes:
        return hmac_mod.digest(key.data, b"tag" + bytes([label]) + body, "sha256")[: self._TAG_LEN]

    def derive_key_from_password(self, password: str, name: str, realm: str) -> SymmetricKey:
        if not password:
            raise EmptyPassword("password must be non-empty")
        data = _sha(b"toy-pw", realm.encode(), b"|", name.encode(), b"|", password.encode())
        return SymmetricKey(data, self.provider_id)

    def seal(self, key: SymmetricKey, plaintext: bytes, label: int) -> SealedBox:
        self._check_key(key)
        label = self._check_label(label)
        body = self._xor_stream(key.data, b"seal" + bytes([label]), plaintext)
        return SealedBox(body + self._seal_tag(key, label, body), label)

    def open(self, key: SymmetricKey, box: SealedBox, label: int) -> bytes:
        self._check_key(key)
        label = self._check_label(label)
        if box.label != label:
            raise IntegrityError(f"box labeled {box.label}, expected {label}")
        if len(box.ciphertext) < self._TAG_LEN:
            raise IntegrityError("sealed box shorter than its tag")
        body, tag = box.ciphertext[: -self._TAG_LEN], box.ciphertext[-self._TAG_LEN:]
        if not hmac_mod.compare_digest(tag, self._seal_tag(key, label, body)):
            raise IntegrityError("seal tag mismatch")
        return self._xor_stream(key.data, b"seal" + bytes([label]), body)

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
        return self._xor_stream(core, b"pk-mask", payload) + tag

    def pk_decrypt(self, private_key: bytes, ciphertext: bytes) -> bytes:
        core = self._core_from_private(private_key)
        if len(ciphertext) < self._PK_TAG_LEN:
            raise DecryptFailure("ciphertext shorter than its tag")
        body, tag = ciphertext[: -self._PK_TAG_LEN], ciphertext[-self._PK_TAG_LEN:]
        payload = self._xor_stream(core, b"pk-mask", body)
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
    bytes then 32 X25519 bytes, for both public and private sides.
    """

    provider_id = "standard"
    _GCM_NONCE = 12
    _PBKDF2_ITERATIONS = 50_000
    _random_bytes = staticmethod(secrets.token_bytes)

    def __init__(self):
        _import_cryptography()

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

    def seal(self, key: SymmetricKey, plaintext: bytes, label: int) -> SealedBox:
        self._check_key(key)
        label = self._check_label(label)
        nonce = secrets.token_bytes(self._GCM_NONCE)
        body = AESGCM(key.data).encrypt(nonce, plaintext, bytes([label]))
        return SealedBox(nonce + body, label)

    def open(self, key: SymmetricKey, box: SealedBox, label: int) -> bytes:
        self._check_key(key)
        label = self._check_label(label)
        if box.label != label:
            raise IntegrityError(f"box labeled {box.label}, expected {label}")
        if len(box.ciphertext) < self._GCM_NONCE + 16:
            raise IntegrityError("sealed box too short")
        nonce, body = box.ciphertext[: self._GCM_NONCE], box.ciphertext[self._GCM_NONCE:]
        try:
            return AESGCM(key.data).decrypt(nonce, body, bytes([label]))
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
        nonce = secrets.token_bytes(self._GCM_NONCE)
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
