"""Minimal trusted key store: image registration, integrity verification,
modeled decryption.

Cryptography is deliberately a model stand-in: the digest is 64-bit FNV-1a
(every single-byte substitution changes it, since each step is a bijection
of the running state) and encryption is a reversible keyed byte transform.
Real primitives could be swapped in behind the same three functions.
"""

from dataclasses import dataclass
from typing import Dict, Tuple

from .errors import DuplicateApp, IntegrityError, UnknownApp

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def digest64(payload: bytes) -> int:
    h = _FNV_OFFSET
    for b in payload:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _keystream(key_id: int, length: int) -> bytes:
    # Key bytes derived by chaining the digest of the key id; XOR transform
    # is its own inverse.
    out = bytearray()
    state = digest64(key_id.to_bytes(8, "little"))
    while len(out) < length:
        out.extend(state.to_bytes(8, "little"))
        state = ((state ^ 0x9E3779B97F4A7C15) * _FNV_PRIME) & _MASK64
    return bytes(out[:length])


def _transform(payload: bytes, key_id: int) -> bytes:
    ks = _keystream(key_id, len(payload))
    return bytes(a ^ b for a, b in zip(payload, ks))


@dataclass(frozen=True)
class ImageRecord:
    app_id: str
    digest: int
    key_id: int
    signature: Tuple[int, int]  # (digest, key_id) binding


@dataclass(frozen=True)
class EncryptedImage:
    app_id: str
    payload: bytes
    encrypted: bool = True


class KeyStore:
    """Key storage plus integrity checks; registration happens at
    simulation setup, verification is pure."""

    def __init__(self):
        self._records: Dict[str, ImageRecord] = {}
        self._next_key = 1

    def register_image(self, app_id: str, payload: bytes) -> ImageRecord:
        if app_id in self._records:
            raise DuplicateApp(app_id)
        key_id = self._next_key
        self._next_key += 1
        d = digest64(payload)
        record = ImageRecord(app_id, d, key_id, (d, key_id))
        self._records[app_id] = record
        return record

    def export_image(self, app_id: str, payload: bytes) -> EncryptedImage:
        """Produce the encrypted package handed to the untrusted side."""
        record = self._record(app_id)
        if digest64(payload) != record.digest:
            raise IntegrityError(f"{app_id}: payload does not match registration")
        return EncryptedImage(app_id, _transform(payload, record.key_id))

    def verify_and_decrypt(self, image: EncryptedImage) -> bytes:
        plain = self.decrypt_unchecked(image)
        if digest64(plain) != self._record(image.app_id).digest:
            raise IntegrityError(f"{image.app_id}: digest mismatch")
        return plain

    def decrypt_unchecked(self, image: EncryptedImage) -> bytes:
        """Decryption without the integrity gate; only reachable when the
        verification defense is disabled by a mutation flag."""
        record = self._record(image.app_id)
        return (
            _transform(image.payload, record.key_id)
            if image.encrypted
            else image.payload
        )

    def digest_of(self, app_id: str) -> int:
        return self._record(app_id).digest

    def known(self, app_id: str) -> bool:
        return app_id in self._records

    def _record(self, app_id: str) -> ImageRecord:
        try:
            return self._records[app_id]
        except KeyError:
            raise UnknownApp(app_id) from None
