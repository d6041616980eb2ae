"""Signing and public-key encryption backends for the trading protocol.

Two interchangeable schemes. ``Ed25519X25519Scheme`` is the real thing:
Ed25519 signatures plus an X25519/HKDF/AES-GCM hybrid for encryption, with
all key material drawn from a caller-supplied generator so runs replay
bit-for-bit. ``HashStubScheme`` is a dependency-free double for tests; it
keeps a private-key registry behind the scenes and must never leave a
simulation.

``Ed25519X25519Scheme`` parses each key once and reuses the parsed key
object: private keys in ``_signing_key`` and ``_agreement_key``, and public
keys in ``_verifying_key`` (a signer's) and ``_recipient_key`` (an
encryption's recipient). These are module-level LRU caches keyed by the
exact key bytes, and they hold parsed key objects only. This is exact:
Ed25519 signing is deterministic (RFC 8032), X25519 agreement is a pure
function of the two keys, and a parsed public key is a function of its
bytes alone, so a reused key object gives the same bytes and the same
verdicts as a freshly parsed one. It cannot weaken a check: no verdict is
cached, so every ``verify`` and every authentication tag is computed in
full, and bytes that do not parse as a key raise on every call. The
ephemeral public key of a ciphertext is fresh per message, so ``decrypt``
parses it each time.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass

import numpy as np
from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)

__all__ = [
    "DecryptionError",
    "KeyPair",
    "SignatureScheme",
    "Ed25519X25519Scheme",
    "HashStubScheme",
]

_ECIES_INFO = b"trafficmarket-ecies-v1"
# safe only because every encryption derives a fresh ephemeral key
_GCM_NONCE = bytes(12)
#: Parsed keys kept per cache. A trading world uses one key pair per
#: vehicle plus the authority's and the CA's, so this covers worlds of a
#: few thousand vehicles; beyond it, keys that fell out are parsed again.
_PARSED_KEYS = 4096


class DecryptionError(Exception):
    """Ciphertext did not authenticate or could not be parsed."""


@dataclass(frozen=True)
class KeyPair:
    private: bytes
    public: bytes


@functools.lru_cache(maxsize=_PARSED_KEYS)
def _signing_key(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


@functools.lru_cache(maxsize=_PARSED_KEYS)
def _agreement_key(seed: bytes) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(seed)


@functools.lru_cache(maxsize=_PARSED_KEYS)
def _verifying_key(public: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(public)


@functools.lru_cache(maxsize=_PARSED_KEYS)
def _recipient_key(public: bytes) -> X25519PublicKey:
    return X25519PublicKey.from_public_bytes(public)


class SignatureScheme:
    """Interface: deterministic keygen, sign/verify, and hybrid encryption.

    Public and private keys are opaque byte strings produced by
    ``generate_keypair``; randomness always comes from the ``rng`` argument.
    """

    def generate_keypair(self, rng: np.random.Generator) -> KeyPair:
        raise NotImplementedError

    def sign(self, private: bytes, data: bytes) -> bytes:
        raise NotImplementedError

    def verify(self, public: bytes, data: bytes, signature: bytes) -> bool:
        raise NotImplementedError

    def encrypt(self, public: bytes, plaintext: bytes, rng: np.random.Generator) -> bytes:
        raise NotImplementedError

    def decrypt(self, private: bytes, ciphertext: bytes) -> bytes:
        raise NotImplementedError


class Ed25519X25519Scheme(SignatureScheme):
    """Real asymmetric crypto with deterministic key derivation.

    A keypair concatenates an Ed25519 signing key and an X25519 agreement
    key (32 bytes each side). Encryption is ECIES-style: fresh ephemeral
    X25519 key, HKDF-SHA256 to an AES-256-GCM key, zero nonce, ephemeral
    public key prepended to the ciphertext.

    Every method but ``generate_keypair`` reuses parsed keys from
    module-level caches, so subclasses need not call ``__init__``.
    """

    def generate_keypair(self, rng: np.random.Generator) -> KeyPair:
        sign_seed = rng.bytes(32)
        kex_seed = rng.bytes(32)
        sign_pub = (
            Ed25519PrivateKey.from_private_bytes(sign_seed)
            .public_key()
            .public_bytes(Encoding.Raw, PublicFormat.Raw)
        )
        kex_pub = (
            X25519PrivateKey.from_private_bytes(kex_seed)
            .public_key()
            .public_bytes(Encoding.Raw, PublicFormat.Raw)
        )
        return KeyPair(private=sign_seed + kex_seed, public=sign_pub + kex_pub)

    def sign(self, private: bytes, data: bytes) -> bytes:
        return _signing_key(private[:32]).sign(data)

    def verify(self, public: bytes, data: bytes, signature: bytes) -> bool:
        try:
            _verifying_key(public[:32]).verify(signature, data)
        except (InvalidSignature, ValueError):
            return False
        return True

    def _derive_key(self, shared: bytes) -> bytes:
        return HKDF(
            algorithm=hashes.SHA256(), length=32, salt=None, info=_ECIES_INFO
        ).derive(shared)

    def encrypt(self, public: bytes, plaintext: bytes, rng: np.random.Generator) -> bytes:
        ephemeral = X25519PrivateKey.from_private_bytes(rng.bytes(32))
        shared = ephemeral.exchange(_recipient_key(public[32:64]))
        sealed = AESGCM(self._derive_key(shared)).encrypt(_GCM_NONCE, plaintext, None)
        eph_pub = ephemeral.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return eph_pub + sealed

    def decrypt(self, private: bytes, ciphertext: bytes) -> bytes:
        if len(ciphertext) < 48:  # ephemeral key plus GCM tag
            raise DecryptionError("ciphertext too short")
        ephemeral = X25519PublicKey.from_public_bytes(ciphertext[:32])
        shared = _agreement_key(private[32:64]).exchange(ephemeral)
        try:
            return AESGCM(self._derive_key(shared)).decrypt(
                _GCM_NONCE, ciphertext[32:], None
            )
        except InvalidTag as exc:
            raise DecryptionError("ciphertext failed authentication") from exc


class HashStubScheme(SignatureScheme):
    """Hash-based stand-in with no real security.

    Signatures are HMACs and encryption is a hash keystream, both keyed by
    the recipient's private key, which the scheme looks up from its own
    pk-to-sk registry. That registry is the cheat that makes the stub
    work without asymmetric primitives; it also means key pairs are only
    usable with the instance that minted them.
    """

    def __init__(self) -> None:
        self._secrets: dict[bytes, bytes] = {}

    def generate_keypair(self, rng: np.random.Generator) -> KeyPair:
        private = rng.bytes(32)
        public = hashlib.sha256(b"stub-public:" + private).digest()
        self._secrets[public] = private
        return KeyPair(private=private, public=public)

    def sign(self, private: bytes, data: bytes) -> bytes:
        return hmac.new(private, data, hashlib.sha256).digest()

    def verify(self, public: bytes, data: bytes, signature: bytes) -> bool:
        private = self._secrets.get(public)
        if private is None:
            return False
        return hmac.compare_digest(self.sign(private, data), signature)

    @staticmethod
    def _keystream(secret: bytes, nonce: bytes, length: int) -> bytes:
        out = bytearray()
        counter = 0
        while len(out) < length:
            block = hashlib.sha256(
                secret + nonce + counter.to_bytes(4, "big")
            ).digest()
            out.extend(block)
            counter += 1
        return bytes(out[:length])

    def encrypt(self, public: bytes, plaintext: bytes, rng: np.random.Generator) -> bytes:
        private = self._secrets.get(public)
        if private is None:
            raise ValueError("unknown recipient public key")
        nonce = rng.bytes(16)
        body = bytes(
            a ^ b
            for a, b in zip(plaintext, self._keystream(private, nonce, len(plaintext)))
        )
        tag = hmac.new(private, nonce + body, hashlib.sha256).digest()
        return nonce + body + tag

    def decrypt(self, private: bytes, ciphertext: bytes) -> bytes:
        if len(ciphertext) < 48:  # nonce plus tag
            raise DecryptionError("ciphertext too short")
        nonce, body, tag = ciphertext[:16], ciphertext[16:-32], ciphertext[-32:]
        expected = hmac.new(private, nonce + body, hashlib.sha256).digest()
        if not hmac.compare_digest(expected, tag):
            raise DecryptionError("ciphertext failed authentication")
        return bytes(
            a ^ b for a, b in zip(body, self._keystream(private, nonce, len(body)))
        )
