"""The authenticated write-ahead intent: wire format, codec, validator.

The payload and wire bytes of the three intents are an on-disk format a
crashed deployment resumes from. The payloads are the ones the three
hand-written codecs this one replaced produced. The ``INTENT2``/
``ROTATE2``/``SHARD2`` wire bytes carry an HMAC-SHA256 tag (deterministic,
so the bytes are reproducible); they were captured with::

    PYTHONPATH=src python tests/audit/test_wal.py

which prints the ``wire`` literals in the form they appear here, and
``test_tag_matches_stdlib_hmac`` recomputes every tag with nothing but
:mod:`hmac` and :mod:`hashlib`. The ``v1_wire`` literals are the version-1
encodings of the same intents (RFC 6979 ECDSA signature in place of the
tag) as the version-1 codec wrote them; they stay as refusal vectors.
"""

import dataclasses
import hashlib
import hmac

import pytest

from repro.audit import MembershipIntent, RotationIntent, SealIntent
from repro.audit.persistence import SIDECAR_KINDS, InMemoryStorage
from repro.audit.wal import (
    UNSUPPORTED_VERSION,
    CheckpointedWal,
    load_valid_intent,
    valid_intent,
)
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
    v1_wire: bytes
    #: A validly shaped change to one field (a forgery attempt).
    tamper: dict
    #: Wire position of one integer field.
    int_at: int

    def seal(self, key=KEY):
        return self.intent_type.seal(key, *self.fields)


GOLDEN = {
    "seal": Golden(
        SealIntent,
        ("golden-log", sha256(b"golden-head"), 42),
        b"SEAL-INTENT\x00golden-log\x00"
        b"\x9e\xb2\xa7\r*\x14}(\xc96?o\xedbLq\x9dT\x92\x14\xf2&\xf9[\xb7z)?\xbd5\xd1\xf5"
        b"\x00\x00\x00\x00\x00\x00\x00*",
        b"INTENT2\x00golden-log"
        b"\x009eb2a70d2a147d28c9363f6fed624c719d549214f226f95bb77a293fbd35d1f5"
        b"\x0042"
        b"\x004adeebb9ce67ad9fc9d9beca79209c46dcedecf37eb6c29d19934b118d041c9c",
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
        b"ROTATE2\x00golden-log\x003\x004"
        b"\x00737573706563746564206578706f73757265"
        b"\x00ec816124e042d4e0c27930f22fe9e3b0a2adcba7415c0bccda2ade78500ded61",
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
        b"SHARD2\x00golden-plane\x00split-shard-2-g5\x00split\x00shard-2"
        b"\x004\x005\x003"
        b"\x00d227afc0b9bc42cd5c9ff89d768ebd205ec8827612c573f8dbc632c03fcc1b2d",
        b"SHARD1\x00golden-plane\x00split-shard-2-g5\x00split\x00shard-2"
        b"\x004\x005\x003"
        b"\x00086271d7ab423a66b0f5aff601fd343322c0cb935d0c4b6697fa0dd1d4871277"
        b"4b084780fc0c2281c0676afe1700ac241cfa985c3d2e02ad1b59fb262f606609",
        {"shard": "shard-9"},
        int_at=5,
    ),
}


def v1_wire(intent, key) -> bytes:
    """``intent`` as the version-1 codec wrote it: magic ``<stem>1``, the
    same fields, and an ECDSA signature over the same payload in place of
    the tag."""
    magic = intent.MAGIC[:-1] + b"1"
    fields = intent.encode().split(b"\x00")[1:-1]
    signature = key.sign(intent.payload()).encode().hex().encode()
    return b"\x00".join([magic, *fields, signature])


def _swap(wire: bytes, index: int, element: bytes) -> bytes:
    parts = wire.split(b"\x00")
    parts[index] = element
    return b"\x00".join(parts)


MANGLES = {
    "bad-magic": lambda g: _swap(g.wire, 0, b"NOPE1"),
    "field-short": lambda g: g.wire.rsplit(b"\x00", 1)[0],
    "field-long": lambda g: g.wire + b"\x00extra",
    "magic-then-junk": lambda g: g.wire.split(b"\x00")[0] + b"\x00forged",
    "tag-not-hex": lambda g: _swap(g.wire, -1, b"zz"),
    "int-not-a-number": lambda g: _swap(g.wire, g.int_at, b"x1"),
    "int-negative": lambda g: _swap(g.wire, g.int_at, b"-1"),
    "int-too-wide": lambda g: _swap(g.wire, g.int_at, str(1 << 64).encode()),
    "text-not-utf8": lambda g: _swap(g.wire, 1, b"\xff\xfe"),
    "empty": lambda g: b"",
}


@pytest.mark.parametrize("golden", GOLDEN.values(), ids=GOLDEN.keys())
class TestIntentCodec:
    def test_golden_bytes_and_roundtrip(self, golden):
        intent = golden.seal()
        assert intent.payload() == golden.payload
        assert intent.encode() == golden.wire
        decoded = golden.intent_type.decode(golden.wire)
        assert decoded == intent
        decoded.verify(KEY)

    def test_tag_matches_stdlib_hmac(self, golden):
        """HKDF (RFC 5869) and HMAC-SHA256 from the standard library alone."""
        prk = hmac.new(
            b"LibSEAL intent MAC", KEY.d.to_bytes(32, "big"), hashlib.sha256
        ).digest()
        mac_key = hmac.new(prk, b"v2\x01", hashlib.sha256).digest()
        tag = hmac.new(mac_key, golden.payload, hashlib.sha256).hexdigest()
        assert golden.wire.rsplit(b"\x00", 1)[1] == tag.encode()

    def test_v1_vector_is_a_valid_v1_intent(self, golden):
        """The refusal vector really is what version 1 wrote: a valid
        ECDSA signature over the unchanged payload."""
        assert v1_wire(golden.seal(), KEY) == golden.v1_wire
        signature = EcdsaSignature.decode(
            bytes.fromhex(golden.v1_wire.rsplit(b"\x00", 1)[1].decode())
        )
        assert KEY.public_key().verify(golden.payload, signature)

    def test_v1_refused_with_stable_reason(self, golden):
        with pytest.raises(IntegrityError, match=UNSUPPORTED_VERSION):
            golden.intent_type.decode(golden.v1_wire)

    def test_sidecar_kind_is_a_storage_kind(self, golden):
        # The seal intent is a record of the log image, not a sidecar.
        sidecar = getattr(golden.intent_type, "SIDECAR", None)
        assert (sidecar is None) == (golden.intent_type is SealIntent)
        assert sidecar is None or sidecar in SIDECAR_KINDS

    @pytest.mark.parametrize("mangle", MANGLES.values(), ids=MANGLES.keys())
    def test_malformed_wire_rejected(self, golden, mangle):
        with pytest.raises(IntegrityError, match="unparsable"):
            golden.intent_type.decode(mangle(golden))

    def test_tampered_field_fails_verification(self, golden):
        forged = dataclasses.replace(golden.seal(), **golden.tamper)
        # It still parses — only the tag check can tell.
        reparsed = golden.intent_type.decode(forged.encode())
        with pytest.raises(IntegrityError, match="tag invalid"):
            reparsed.verify(KEY)

    def test_validator(self, golden):
        """Absent, malformed, forged, wrong-key, foreign and stale intents
        all read as "nothing to act on"; the validator never clears."""
        intent = golden.seal()
        rejected = {
            "malformed": golden.wire[:-1],
            "forged": dataclasses.replace(intent, tag=bytes(32)).encode(),
            "tampered": dataclasses.replace(intent, **golden.tamper).encode(),
            "wrong-key": golden.seal(OTHER_KEY).encode(),
        }

        def check(blob, owner=intent.owner_id, **kw):
            return valid_intent(blob, golden.intent_type, KEY, owner, **kw)

        for why, blob in rejected.items():
            assert check(blob) is None, why
        assert check(golden.wire) == intent
        assert check(golden.wire, owner="someone-else") is None
        assert check(golden.wire, still_current=lambda i: i != intent) is None
        assert check(golden.wire, still_current=lambda i: i == intent) == intent
        kind = getattr(golden.intent_type, "SIDECAR", None)
        if kind is None:
            return  # the seal intent is read from the log image
        storage = InMemoryStorage()
        assert load_valid_intent(storage, golden.intent_type, KEY, intent.owner_id) is None
        for why, blob in rejected.items():
            storage.save_intent(blob, kind)
            assert load_valid_intent(
                storage, golden.intent_type, KEY, intent.owner_id
            ) is None, why
            assert storage.load_intent(kind) == blob  # caller decides to clear
        storage.save_intent(golden.wire, kind)
        assert load_valid_intent(storage, golden.intent_type, KEY, intent.owner_id) == intent


# ----------------------------------------------------------------------
# The tamper matrix: every way the storage provider can hand back an
# intent this enclave did not write for this owner in this format.
# ----------------------------------------------------------------------


def _changed(value):
    if isinstance(value, bytes):
        return bytes([value[0] ^ 1]) + value[1:]
    if isinstance(value, int):
        return value + 1
    return value + "x"


def _retagged(golden, tag: bytes) -> bytes:
    return dataclasses.replace(golden.seal(), tag=tag).encode()


def _tamper_cases(golden, other):
    intent = golden.seal()
    cases = {
        f"field-{name}": dataclasses.replace(
            intent, **{name: _changed(getattr(intent, name))}
        ).encode()
        for name, _ in golden.intent_type.FIELDS
    }
    cases.update(
        {
            "tag-flipped": _retagged(golden, _changed(intent.tag)),
            "tag-truncated": _retagged(golden, intent.tag[:-1]),
            "tag-extended": _retagged(golden, intent.tag + b"\x00"),
            "other-key": golden.seal(OTHER_KEY).encode(),
            "foreign-owner": golden.intent_type.seal(
                KEY, "foreign", *golden.fields[1:]
            ).encode(),
            # (named after the sidecar each kind was once kept in)
            f"{getattr(other.intent_type, 'SIDECAR', 'intent')}-intent-in-sidecar": (
                other.wire
            ),
            "v1-signed": golden.v1_wire,
        }
    )
    return cases


#: Each kind paired with the kind whose intent is planted in its sidecar:
#: seal <-> rotation both ways, membership gets a seal intent.
_PLANTED = {"seal": "rotation", "rotation": "seal", "membership": "seal"}

TAMPER = [
    (kind, case, blob)
    for kind, golden in GOLDEN.items()
    for case, blob in _tamper_cases(golden, GOLDEN[_PLANTED[kind]]).items()
]


class _Probe(CheckpointedWal):
    """A step-less coordinator: ``resume()`` is exactly validate-or-clear."""

    STEPS = ()

    def __init__(self, intent_type, storage, owner_id):
        super().__init__()
        self.INTENT = intent_type
        self.storage = storage
        self.signing_key = KEY
        self.owner_id = owner_id

    def _still_current(self, intent) -> bool:
        return True

    def _run(self, intent, resumed: bool):
        return intent


@pytest.mark.parametrize(
    "kind, case, blob", TAMPER, ids=[f"{kind}-{case}" for kind, case, _ in TAMPER]
)
def test_tamper_matrix(kind, case, blob):
    golden = GOLDEN[kind]
    intent_type = golden.intent_type
    owner = golden.fields[0]
    assert valid_intent(blob, intent_type, KEY, owner) is None
    if intent_type is SealIntent:
        return  # read from the log image: tests/audit/test_snapshot_tamper.py
    storage = InMemoryStorage()
    storage.save_intent(blob, intent_type.SIDECAR)
    assert load_valid_intent(storage, intent_type, KEY, owner) is None
    probe = _Probe(intent_type, storage, owner)
    assert probe.resume() is None
    assert storage.load_intent(intent_type.SIDECAR) is None  # cleared
    assert probe.resumed == 0


@pytest.mark.parametrize("golden", GOLDEN.values(), ids=GOLDEN.keys())
def test_tamper_matrix_control(golden):
    """The genuine intent, under the same probe, is acted on."""
    assert valid_intent(golden.wire, golden.intent_type, KEY, golden.fields[0]) == (
        golden.seal()
    )
    if golden.intent_type is SealIntent:
        return  # read from the log image: tests/audit/test_snapshot_tamper.py
    storage = InMemoryStorage()
    storage.save_intent(golden.wire, golden.intent_type.SIDECAR)
    probe = _Probe(golden.intent_type, storage, golden.fields[0])
    assert probe.resume() == golden.seal()
    assert probe.resumed == 1


if __name__ == "__main__":
    for name, golden in GOLDEN.items():
        magic, *parts = golden.seal().encode().split(b"\x00")
        print(f"{name}:\n    {magic!r}")
        for part in parts:
            print(f"    {bytes(1) + part!r}")
