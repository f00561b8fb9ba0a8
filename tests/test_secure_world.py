import random

import pytest

from teesim.errors import DuplicateApp, IntegrityError, UnknownApp
from teesim.secure_world import EncryptedImage, KeyStore, digest64


def test_register_stores_content_digest():
    ks = KeyStore()
    rec = ks.register_image("demo", b"hello world")
    assert rec.digest == digest64(b"hello world")


def test_duplicate_registration_rejected():
    ks = KeyStore()
    ks.register_image("demo", b"x")
    with pytest.raises(DuplicateApp):
        ks.register_image("demo", b"y")


def test_same_payload_distinct_keys_same_digest():
    ks = KeyStore()
    a = ks.register_image("a", b"same-bytes")
    b = ks.register_image("b", b"same-bytes")
    assert a.digest == b.digest
    assert a.key_id != b.key_id


def test_encrypt_verify_roundtrip():
    ks = KeyStore()
    ks.register_image("demo", b"model weights 123")
    img = ks.export_image("demo", b"model weights 123")
    assert img.payload != b"model weights 123"
    assert ks.verify_and_decrypt(img) == b"model weights 123"


def test_single_byte_flip_detected():
    ks = KeyStore()
    ks.register_image("demo", b"model weights 123")
    img = ks.export_image("demo", b"model weights 123")
    raw = bytearray(img.payload)
    raw[3] ^= 0x01
    with pytest.raises(IntegrityError):
        ks.verify_and_decrypt(EncryptedImage("demo", bytes(raw)))


def test_unknown_app_rejected():
    ks = KeyStore()
    with pytest.raises(UnknownApp):
        ks.verify_and_decrypt(EncryptedImage("ghost", b""))


def test_verification_is_pure():
    ks = KeyStore()
    ks.register_image("demo", b"payload")
    img = ks.export_image("demo", b"payload")
    before = dict(ks._records)
    ks.verify_and_decrypt(img)
    with pytest.raises(IntegrityError):
        ks.verify_and_decrypt(EncryptedImage("demo", img.payload[:-1] + b"\x00"))
    assert ks._records == before


def test_tamper_detection_10k_random_single_byte_mutations():
    """FNV-1a's per-byte step is a bijection of the running state, so any
    single-byte substitution must change the digest."""
    rng = random.Random(1234)
    ks = KeyStore()
    failures = 0
    for i in range(10_000):
        payload = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 64)))
        app = f"app{i}"
        ks.register_image(app, payload)
        img = ks.export_image(app, payload)
        pos = rng.randrange(len(img.payload))
        delta = rng.randint(1, 255)
        raw = bytearray(img.payload)
        raw[pos] ^= delta
        try:
            ks.verify_and_decrypt(EncryptedImage(app, bytes(raw)))
            failures += 1
        except IntegrityError:
            pass
    assert failures == 0
