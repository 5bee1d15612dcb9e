"""The signed write-ahead intent: wire compatibility, codec, validator.

The payload and wire bytes of the three intents are an on-disk format a
crashed deployment resumes from. The golden vectors below were captured
from the three hand-written codecs this one replaced, under a fixed key
(ECDSA here is RFC 6979-deterministic, so signatures are reproducible).
"""

import dataclasses

import pytest

from repro.audit import MembershipIntent, RotationIntent, SealIntent
from repro.audit.persistence import SIDECAR_KINDS, InMemoryStorage
from repro.audit.wal import load_valid_intent
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaSignature
from repro.crypto.hashing import sha256
from repro.errors import IntegrityError

KEY = EcdsaPrivateKey(
    0x1F2E3D4C5B6A79788796A5B4C3D2E1F00112233445566778899AABBCCDDEEFF
)
OTHER_KEY = EcdsaPrivateKey(0x5EA1)


@dataclasses.dataclass(frozen=True)
class Golden:
    intent_type: type
    fields: tuple
    payload: bytes
    wire: bytes
    #: A validly shaped change to one signed field (a forgery attempt).
    tamper: dict
    #: Wire position of one integer field.
    int_at: int

    def sign(self, key=KEY):
        return self.intent_type.sign(key, *self.fields)


GOLDEN = {
    "seal": Golden(
        SealIntent,
        ("golden-log", sha256(b"golden-head"), 42),
        b"SEAL-INTENT\x00golden-log\x00"
        b"\x9e\xb2\xa7\r*\x14}(\xc96?o\xedbLq\x9dT\x92\x14\xf2&\xf9[\xb7z)?\xbd5\xd1\xf5"
        b"\x00\x00\x00\x00\x00\x00\x00*",
        b"INTENT1\x00golden-log"
        b"\x009eb2a70d2a147d28c9363f6fed624c719d549214f226f95bb77a293fbd35d1f5"
        b"\x0042"
        b"\x0002fd15749812a76834aab3b6df48bba0522649d73e5a1e2591a90c945232957a"
        b"55b84fd109ff41ecdc5ccd096b61d677dccb036b9c9222775ddb04205bcc9626",
        {"entry_count": 41},
        int_at=3,
    ),
    "rotation": Golden(
        RotationIntent,
        ("golden-log", 3, 4, "suspected exposure"),
        b"ROTATE-INTENT\x00golden-log\x00"
        b"\x00\x00\x00\x03\x00\x00\x00\x04suspected exposure",
        b"ROTATE1\x00golden-log\x003\x004"
        b"\x00737573706563746564206578706f73757265"
        b"\x00c1443534cdbf73ae25bde2732c5814d618e6a0866ece724a82a68c8da1100410"
        b"03fdd8e4eb18ad8dcc2c0edf8198d5355f34798cfca105acd53d60ccc31872d2",
        {"to_epoch": 7},
        int_at=2,
    ),
    "membership": Golden(
        MembershipIntent,
        ("golden-plane", "split-shard-2-g5", "split", "shard-2", 4, 5, 3),
        b"SHARD-INTENT\x00golden-plane\x00split-shard-2-g5\x00split\x00shard-2\x00"
        b"\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x05"
        b"\x00\x00\x00\x03",
        b"SHARD1\x00golden-plane\x00split-shard-2-g5\x00split\x00shard-2"
        b"\x004\x005\x003"
        b"\x00086271d7ab423a66b0f5aff601fd343322c0cb935d0c4b6697fa0dd1d4871277"
        b"4b084780fc0c2281c0676afe1700ac241cfa985c3d2e02ad1b59fb262f606609",
        {"shard": "shard-9"},
        int_at=5,
    ),
}


def _swap(wire: bytes, index: int, element: bytes) -> bytes:
    parts = wire.split(b"\x00")
    parts[index] = element
    return b"\x00".join(parts)


MANGLES = {
    "bad-magic": lambda g: _swap(g.wire, 0, b"NOPE1"),
    "field-short": lambda g: g.wire.rsplit(b"\x00", 1)[0],
    "field-long": lambda g: g.wire + b"\x00extra",
    "magic-then-junk": lambda g: g.wire.split(b"\x00")[0] + b"\x00forged",
    "signature-not-hex": lambda g: _swap(g.wire, -1, b"zz"),
    "int-not-a-number": lambda g: _swap(g.wire, g.int_at, b"x1"),
    "int-negative": lambda g: _swap(g.wire, g.int_at, b"-1"),
    "int-too-wide": lambda g: _swap(g.wire, g.int_at, str(1 << 64).encode()),
    "text-not-utf8": lambda g: _swap(g.wire, 1, b"\xff\xfe"),
    "empty": lambda g: b"",
}


@pytest.mark.parametrize("golden", GOLDEN.values(), ids=GOLDEN.keys())
class TestIntentCodec:
    def test_golden_bytes_and_roundtrip(self, golden):
        intent = golden.sign()
        assert intent.payload() == golden.payload
        assert intent.encode() == golden.wire
        decoded = golden.intent_type.decode(golden.wire)
        assert decoded == intent
        decoded.verify(KEY.public_key())

    def test_sidecar_kind_is_a_storage_kind(self, golden):
        assert golden.intent_type.SIDECAR in SIDECAR_KINDS

    @pytest.mark.parametrize("mangle", MANGLES.values(), ids=MANGLES.keys())
    def test_malformed_wire_rejected(self, golden, mangle):
        with pytest.raises(IntegrityError, match="unparsable"):
            golden.intent_type.decode(mangle(golden))

    def test_tampered_field_fails_verification(self, golden):
        forged = dataclasses.replace(golden.sign(), **golden.tamper)
        # It still parses — only the signature check can tell.
        reparsed = golden.intent_type.decode(forged.encode())
        with pytest.raises(IntegrityError, match="signature invalid"):
            reparsed.verify(KEY.public_key())

    def test_validator(self, golden):
        """Absent, malformed, forged, wrong-key, foreign and stale intents
        all read as "nothing to act on"; the validator never clears."""
        storage = InMemoryStorage()
        kind = golden.intent_type.SIDECAR
        intent = golden.sign()

        def load(owner=intent.owner_id, **kw):
            return load_valid_intent(
                storage, golden.intent_type, KEY.public_key(), owner, **kw
            )

        assert load() is None  # absent
        rejected = {
            "malformed": golden.wire[:-1],
            "forged": dataclasses.replace(
                intent, signature=EcdsaSignature(1, 1)
            ).encode(),
            "tampered": dataclasses.replace(intent, **golden.tamper).encode(),
            "wrong-key": golden.sign(OTHER_KEY).encode(),
        }
        for why, blob in rejected.items():
            storage.save_intent(blob, kind)
            assert load() is None, why
            assert storage.load_intent(kind) == blob  # caller decides to clear
        storage.save_intent(golden.wire, kind)
        assert load() == intent
        assert load(owner="someone-else") is None
        assert load(still_current=lambda i: i != intent) is None
        assert load(still_current=lambda i: i == intent) == intent
