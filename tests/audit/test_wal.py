"""The authenticated write-ahead intents: wire format, codec, validator.

Three intents let a crashed deployment resume, and every test here runs
on all three through a small per-kind adapter:

- ``rotation`` and ``membership``: an :class:`AuthenticatedIntent` in a
  sidecar file. Payload ``TAG NUL fields``, wire ``MAGIC NUL fields
  tag``: the same field bytes (length-prefixed text, fixed-width
  integers) in both, the tag an HMAC-SHA256 of the payload;
- ``seal``: the *intent record* of the log image — the tuples appended
  since the last seal, each as its row id and its ``encode_tuple`` bytes
  — framed and MAC'd under the same key, chained onto the head record it
  follows. The record chain binds it to the log id and schema (the first
  MAC) and to that head (the previous MAC), so its MAC is its tag.

The wire bytes are an on-disk format a crashed deployment resumes from.
They were captured with::

    PYTHONPATH=src python tests/audit/test_wal.py

which prints the literals in the form they appear here, and
``test_tag_matches_stdlib_hmac`` recomputes every tag with nothing but
:mod:`hmac` and :mod:`hashlib`. The previous formats stay as refusal
vectors: the ``ROTATE2``/``SHARD2`` wires (NUL-joined text fields and a
hex tag), the ``LIBSEAL-LOG/2`` image and the ``LIBSEAL-LOG/3`` image
(every head record signed, no "signed" flag; both in
``tests/audit/records.py``), which ``test_v1_vector_is_a_valid_v1_intent``
shows are genuine, and the version-1 wires (an RFC 6979 ECDSA signature
in place of the tag) before them.
"""

import dataclasses
import hashlib
import hmac
import json

import pytest

from repro.audit import AuditLog, MembershipIntent, RotationIntent, RoteCluster
from repro.audit.hashchain import decode_tuple
from repro.audit.log import (
    HEAD_RECORD,
    IMAGE_MAGIC,
    INTENT_RECORD,
    UNSUPPORTED_SNAPSHOT,
    seal_record,
)
from repro.audit.persistence import SIDECAR_KINDS, InMemoryStorage, frame, split_frames
from repro.audit.wal import (
    UNSUPPORTED_VERSION,
    CheckpointedWal,
    intent_key,
    load_valid_intent,
    valid_intent,
)
from repro.codec import encode_bytes
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaSignature
from repro.errors import IntegrityError
from tests.audit.records import (
    V2_IMAGE,
    V2_SCHEMA,
    V3_IMAGE,
    image,
    intent_entries,
    record_spans,
    records,
)

KEY = EcdsaPrivateKey(
    0x1F2E3D4C5B6A79788796A5B4C3D2E1F00112233445566778899AABBCCDDEEFF
)
OTHER_KEY = EcdsaPrivateKey(0x5EA1)


def stdlib_mac_key(key=KEY) -> bytes:
    """``intent_key``: HKDF (RFC 5869) from the standard library alone."""
    prk = hmac.new(
        b"LibSEAL intent MAC", key.d.to_bytes(32, "big"), hashlib.sha256
    ).digest()
    return hmac.new(prk, b"v2\x01", hashlib.sha256).digest()


def stdlib_mac(payload: bytes) -> bytes:
    return hmac.new(stdlib_mac_key(), payload, hashlib.sha256).digest()


# ----------------------------------------------------------------------
# The sidecar intents
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SidecarKind:
    intent_type: type
    fields: tuple
    payload: bytes
    wire: bytes
    #: The version-2 wire (text fields, hex tag) and its payload.
    v2_payload: bytes
    v2_wire: bytes
    #: The version-1 wire (ECDSA signature over the version-2 payload).
    v1_wire: bytes
    #: A validly shaped change to one field (a forgery attempt).
    tamper: dict
    #: Index in ``fields`` of one integer field.
    int_at: int

    old_reason = UNSUPPORTED_VERSION
    malformed = "unparsable"

    @property
    def sidecar(self):
        return self.intent_type.SIDECAR

    @property
    def owner(self):
        return self.fields[0]

    def genuine(self, key=KEY):
        return self.intent_type.seal(key, *self.fields)

    def decode(self, blob):
        return self.intent_type.decode(blob)

    def tag(self, wire):
        return wire[-32:]

    def old_is_genuine(self):
        signature = EcdsaSignature.decode(
            bytes.fromhex(self.v1_wire.rsplit(b"\x00", 1)[1].decode())
        )
        assert KEY.public_key().verify(self.v2_payload, signature)
        tag_hex = self.v2_wire.rsplit(b"\x00", 1)[1]
        assert tag_hex == stdlib_mac(self.v2_payload).hex().encode()

    def old_wires(self):
        return (self.v2_wire, self.v1_wire)

    def check(self, blob, owner=None, **kw):
        return valid_intent(blob, self.intent_type, KEY, owner or self.owner, **kw)

    def _span(self, index):
        """Byte range of field ``index`` in the wire."""
        start = len(self.intent_type.MAGIC) + 1
        intent = self.genuine()
        for name, codec in self.intent_type.FIELDS[:index]:
            start += len(codec.encode(getattr(intent, name)))
        name, codec = self.intent_type.FIELDS[index]
        return start, start + len(codec.encode(getattr(intent, name)))

    def _swap(self, index, data):
        start, end = self._span(index)
        return self.wire[:start] + data + self.wire[end:]

    def mangle(self, name):
        value = self.fields[self.int_at]
        width = self._span(self.int_at)[1] - self._span(self.int_at)[0]
        return {
            "bad-magic": lambda: b"NOPE1" + self.wire[len(self.intent_type.MAGIC) :],
            "field-short": lambda: self.wire[:-1],
            "field-long": lambda: self.wire + b"\x00extra",
            "magic-then-junk": lambda: self.intent_type.MAGIC + b"\x00forged",
            # The version-2 forms: a hex tag, decimal integers.
            "tag-not-hex": lambda: self.wire[:-32] + self.wire[-32:].hex().encode(),
            "int-not-a-number": lambda: self._swap(self.int_at, b"x1"),
            "int-negative": lambda: self._swap(self.int_at, b"-1"),
            "int-too-wide": lambda: self._swap(
                self.int_at, value.to_bytes(width + 1, "big")
            ),
            "text-not-utf8": lambda: self._swap(0, encode_bytes(b"\xff\xfe")),
            "empty": lambda: b"",
        }[name]()

    def tampered(self):
        """A field changed, the tag kept: it parses, the tag check fails."""
        forged = dataclasses.replace(self.genuine(), **self.tamper)
        reparsed = self.decode(forged.encode())
        with pytest.raises(IntegrityError, match="tag invalid"):
            reparsed.verify(KEY)
        return forged.encode()

    def rejected(self):
        intent = self.genuine()
        return {
            "malformed": self.wire[:-1],
            "forged": dataclasses.replace(intent, tag=bytes(32)).encode(),
            "tampered": dataclasses.replace(intent, **self.tamper).encode(),
            "wrong-key": self.genuine(OTHER_KEY).encode(),
        }

    def check_currency(self):
        """A validly tagged intent the protocol moved past is not acted on."""
        intent = self.genuine()
        assert self.check(self.wire, still_current=lambda i: i != intent) is None
        assert self.check(self.wire, still_current=lambda i: i == intent) == intent

    def tamper_cases(self, other):
        intent = self.genuine()
        cases = {
            f"field-{name}": dataclasses.replace(
                intent, **{name: _changed(getattr(intent, name))}
            ).encode()
            for name, _ in self.intent_type.FIELDS
        }

        def retagged(tag):
            return dataclasses.replace(intent, tag=tag).encode()

        cases.update(
            {
                "tag-flipped": retagged(_changed(intent.tag)),
                "tag-truncated": retagged(intent.tag[:-1]),
                "tag-extended": retagged(intent.tag + b"\x00"),
                "other-key": self.genuine(OTHER_KEY).encode(),
                "foreign-owner": self.intent_type.seal(
                    KEY, "foreign", *self.fields[1:]
                ).encode(),
                f"{other.sidecar or 'intent'}-intent-in-sidecar": other.wire,
                "v1-signed": self.v1_wire,
                "v2-hex-tag": self.v2_wire,
            }
        )
        return cases


def _changed(value):
    if isinstance(value, bytes):
        return bytes([value[0] ^ 1]) + value[1:]
    if isinstance(value, int):
        return value + 1
    return value + "x"


ROTATION = SidecarKind(
    RotationIntent,
    ("golden-log", 3, 4, "suspected exposure"),
    b"ROTATE-INTENT\x00\x00\x00\x00\ngolden-log"
    b"\x00\x00\x00\x03\x00\x00\x00\x04\x00\x00\x00\x12suspected exposure",
    b"ROTATE3\x00\x00\x00\x00\ngolden-log"
    b"\x00\x00\x00\x03\x00\x00\x00\x04\x00\x00\x00\x12suspected exposure"
    b'\xc0\x07#\xd3\xe3w\xe7R\xd02a_\x92\xf9\x14b-\xf0 \\\xc2\x88\x9d\\\x15Q\x03\xf9\xff\x02\xf9\x99',
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
)

MEMBERSHIP = SidecarKind(
    MembershipIntent,
    ("golden-plane", "split-shard-2-g5", "split", "shard-2", 4, 5, 3),
    b"SHARD-INTENT\x00\x00\x00\x00\x0cgolden-plane\x00\x00\x00\x10split-shard-2-g5"
    b"\x00\x00\x00\x05split\x00\x00\x00\x07shard-2"
    b"\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x05"
    b"\x00\x00\x00\x03",
    b"SHARD3\x00\x00\x00\x00\x0cgolden-plane\x00\x00\x00\x10split-shard-2-g5"
    b"\x00\x00\x00\x05split\x00\x00\x00\x07shard-2"
    b"\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x05"
    b"\x00\x00\x00\x03"
    b'S;\xc3\\G\xcet\x85zf\xf3aY\xddY\xc5\x1c\x13,B\xc1\xa2\x98a\x8aa\x89\x0cj\xf1c\x04',
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
)


# ----------------------------------------------------------------------
# The seal's intent record
# ----------------------------------------------------------------------

SEAL_LOG = "golden-log"
ROTE = RoteCluster(f=1)


def seal_image(log_id=SEAL_LOG, key=KEY):
    """Two seals of a small log: ``[I, H, I, H]``; the second ``I`` is
    the golden intent record."""
    log = AuditLog(V2_SCHEMA, key, RoteCluster(f=1), log_id, InMemoryStorage())
    log.append("pairs", (1, "/p/0", None))
    log.append("pairs", (2, "/p/1", b"\x01\x00\xff"))
    log.seal_epoch()
    log.append("pairs", (3, "/p/2", 2.5))
    log.append("pairs", (-4, "", 10**20))
    log.seal_epoch()
    return log.storage.load()


class SealKind:
    """The intent record behind the same interface. Its "decode" is the
    loader: the record's content, re-MAC'd in place of the genuine one,
    must load with the image; its validator asks whether the record,
    appended after the first head, is a seal in flight."""

    sidecar = None
    owner = SEAL_LOG
    old_reason = UNSUPPORTED_SNAPSHOT
    malformed = "intent record|stored tuple malformed"
    tuples = [("pairs", (3, "/p/2", 2.5)), ("pairs", (-4, "", 10**20))]

    def __init__(self, image_bytes):
        self.image = image_bytes
        spans = record_spans(image_bytes)
        self.prefix = image_bytes[: spans[2][0]]  # up to the first head
        self.wire = image_bytes[spans[2][0] : spans[2][1]]
        self.content = self.wire[9:-32]
        self.payload = self.prefix[-32:] + INTENT_RECORD + self.content

    def genuine(self):
        return self.wire

    def tag(self, wire):
        return wire[-32:]

    def decode(self, content):
        recs = records(self.image, KEY, SEAL_LOG, V2_SCHEMA)
        recs[2] = (INTENT_RECORD, content)
        blob = image(recs, KEY, SEAL_LOG, V2_SCHEMA)
        log = AuditLog.restore(blob, V2_SCHEMA, KEY, KEY.public_key(), ROTE, SEAL_LOG)[0]
        return list(log.tuples())[-len(self.tuples) :]

    def old_is_genuine(self):
        recs = records(V2_IMAGE, KEY, schema=V2_SCHEMA)  # every MAC verifies
        wire = split_frames(recs[-1][1])[0][0]
        magic, log_id, head_hex, count, tag_hex = wire.split(b"\x00")
        assert magic == b"INTENT2"
        payload = (
            b"SEAL-INTENT\x00" + log_id + b"\x00" + bytes.fromhex(head_hex.decode())
            + int(count).to_bytes(8, "big")
        )
        assert tag_hex == stdlib_mac(payload).hex().encode()
        assert json.loads(split_frames(recs[-1][1])[0][1]) == [
            [2], [["pairs", [3, "/p/2", 2.5]]]
        ]
        assert V3_IMAGE.startswith(b"LIBSEAL-LOG/3\n")
        v3 = records(V3_IMAGE, KEY, SEAL_LOG, V2_SCHEMA)  # every MAC verifies
        assert [(kind, len(content)) for kind, content in v3[1::2]] == [
            (HEAD_RECORD, 137), (HEAD_RECORD, 137)  # each with its signature
        ]

    def old_wires(self):
        return (V2_IMAGE, V3_IMAGE)

    def refuse_old(self, blob):
        AuditLog.restore(blob, V2_SCHEMA, KEY, KEY.public_key(), ROTE, "libseal-log")

    def check(self, blob, owner=None):
        try:
            _, in_flight, _ = AuditLog.restore(
                self.prefix + blob, V2_SCHEMA, KEY, KEY.public_key(), ROTE,
                owner or self.owner,
            )
        except IntegrityError:
            return None
        return blob if in_flight else None

    def mangle(self, name):
        row_id, data = intent_entries(self.content)[0]
        rest = self.content[12 + len(data) :]

        def entry(tuple_bytes, length=None):
            size = len(tuple_bytes) if length is None else length
            return row_id.to_bytes(8, "big") + size.to_bytes(4, "big") + tuple_bytes + rest

        return {
            "bad-magic": lambda: entry(b"X" + data[1:]),
            "field-short": lambda: self.content[:-1],
            "field-long": lambda: self.content + b"\x00extra",
            "magic-then-junk": lambda: self.content[:8] + b"\x00forged",
            "tag-not-hex": lambda: entry(data.hex().encode()),
            "int-not-a-number": lambda: entry(data.replace(b"I3\x00", b"Ix\x00")),
            "int-negative": lambda: entry(data.replace(b"I3\x00", b"I-0\x00")),
            "int-too-wide": lambda: entry(data, length=len(data) + len(rest) + 1),
            "text-not-utf8": lambda: entry(b"T\xff\xfe" + data[6:]),
            "empty": lambda: entry(b""),
        }[name]()

    def tampered(self):
        """A tuple changed, the MAC kept: the record MAC fails."""
        forged = self.wire.replace(b"/p/2", b"/p/9")
        assert forged != self.wire
        with pytest.raises(IntegrityError, match="MAC invalid"):
            self.decode_record(forged)
        return forged

    def decode_record(self, wire):
        AuditLog.restore(
            self.prefix + wire, V2_SCHEMA, KEY, KEY.public_key(), ROTE, SEAL_LOG
        )

    def _sealed(self, previous=None, key=KEY):
        previous = self.prefix[-32:] if previous is None else previous
        return seal_record(intent_key(key.d), previous, INTENT_RECORD, self.content)[0]

    def _with_mac(self, mac):
        return frame(INTENT_RECORD + self.content + mac)

    def rejected(self):
        return {
            "malformed": self.wire[:-1],
            "forged": self._with_mac(bytes(32)),
            "tampered": self.wire.replace(b"/p/2", b"/p/9"),
            "wrong-key": self._sealed(key=OTHER_KEY),
        }

    def check_currency(self):
        """The record chain is the currency check: an older intent record
        (the first seal's) replayed after the head it preceded does not
        chain onto that head."""
        older = self.image[record_spans(self.image)[0][0] : record_spans(self.image)[0][1]]
        assert self.check(older) is None
        assert self.check(self.wire) == self.wire

    def tamper_cases(self, other):
        mac = self.wire[-32:]
        spans = record_spans(self.image)
        first_entry = self.content[: 12 + len(intent_entries(self.content)[0][1])]
        renamed = SealKind(seal_image(log_id=SEAL_LOG + "x"))
        return {
            # What the seal intent once carried, the record chain binds:
            # the log id (through the first MAC), the head it follows, and
            # every tuple (here one dropped).
            "field-log_id": self._sealed(previous=renamed.prefix[-32:]),
            "field-head_hash": self._sealed(previous=self.image[spans[3][1] - 32 : spans[3][1]]),
            "field-entry_count": frame(INTENT_RECORD + first_entry + mac),
            "tag-flipped": self._with_mac(_changed(mac)),
            "tag-truncated": self._with_mac(mac[:-1]),
            "tag-extended": self._with_mac(mac + b"\x00"),
            "other-key": self._sealed(key=OTHER_KEY),
            "foreign-owner": SealKind(seal_image(log_id="foreign")).wire,
            f"{other.sidecar}-intent-in-sidecar": frame(INTENT_RECORD + other.wire),
            "v1-signed": V2_IMAGE[record_spans(V2_IMAGE)[-1][0] :],
        }


SEAL_IMAGE = bytes.fromhex(
    "4c49425345414c2d4c4f472f340a0000006cffffff934900000000000000000000001654"
    "70616972730049310053000000042f702f30004e0000000000000000010000001d547061"
    "6972730049320053000000042f702f310059000000030100ff00d81ba5cf9c497b0bdfe8"
    "f3a95e96db214f45d694a46dad789cd27f376dffe6df0000006bffffff9448770a0621a2"
    "006b7c477c070de3f6b556c65a685c713f541a4cb685308395f799000000000000000100"
    "000000000000020000000000000002000000000000000000000000000000020100de0c57"
    "c14f7a66be6eefb6bcc9293bcd3dadacdd46377f459097582548c5b3310000007affffff"
    "85490000000000000002000000195470616972730049330053000000042f702f32004632"
    "2e350000000000000000030000002854706169727300492d340053000000000049313030"
    "30303030303030303030303030303030303000320be21fc4ecf4b09785401f3d65db997d"
    "7d2d59c6f1b617ba44c849325f1d200000006bffffff9448487e7369d1a56afd26b5fd75"
    "2f193c343fad61d1d53d12fa348a29ea012f251200000000000000020000000000000004"
    "0000000000000004000000000000000000000000000000030000a59b452bf2607cdf0c32"
    "80e38c92c7d576001852b422f738f66897eaf7c241f8"
)

SEAL = SealKind(SEAL_IMAGE)

KINDS = {"seal": SEAL, "rotation": ROTATION, "membership": MEMBERSHIP}


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS.keys())
class TestIntentCodec:
    def test_golden_bytes_and_roundtrip(self, kind):
        if kind is SEAL:
            assert seal_image() == SEAL_IMAGE
            assert SEAL.decode(SEAL.content) == SEAL.tuples
            assert [decode_tuple(data) for _, data in intent_entries(SEAL.content)] == [
                (table, list(values)) for table, values in SEAL.tuples
            ]
            return
        intent = kind.genuine()
        assert intent.payload() == kind.payload
        assert intent.encode() == kind.wire
        decoded = kind.decode(kind.wire)
        assert decoded == intent
        decoded.verify(KEY)

    def test_tag_matches_stdlib_hmac(self, kind):
        """HKDF (RFC 5869) and HMAC-SHA256 from the standard library alone."""
        assert kind.tag(kind.wire) == stdlib_mac(kind.payload)
        if kind is SEAL:
            # The first record chains onto the log's identity.
            genesis = stdlib_mac(
                b"LOG-RECORDS\x00" + SEAL_LOG.encode() + b"\x00" + V2_SCHEMA.encode()
            )
            first = split_frames(SEAL_IMAGE, len(IMAGE_MAGIC))[0][0]
            assert first[-32:] == stdlib_mac(genesis + first[:-32])

    def test_v1_vector_is_a_valid_v1_intent(self, kind):
        """The refusal vectors really are what the previous versions
        wrote: tags and signatures over their payloads verify."""
        kind.old_is_genuine()

    def test_v1_refused_with_stable_reason(self, kind):
        for old in kind.old_wires():
            with pytest.raises(IntegrityError, match=kind.old_reason):
                kind.refuse_old(old) if kind is SEAL else kind.decode(old)

    def test_sidecar_kind_is_a_storage_kind(self, kind):
        # The seal intent is a record of the log image, not a sidecar.
        assert (kind.sidecar is None) == (kind is SEAL)
        assert kind.sidecar is None or kind.sidecar in SIDECAR_KINDS

    @pytest.mark.parametrize(
        "mangle",
        [
            "bad-magic", "field-short", "field-long", "magic-then-junk",
            "tag-not-hex", "int-not-a-number", "int-negative", "int-too-wide",
            "text-not-utf8", "empty",
        ],
    )
    def test_malformed_wire_rejected(self, kind, mangle):
        with pytest.raises(IntegrityError, match=kind.malformed):
            kind.decode(kind.mangle(mangle))

    def test_tampered_field_fails_verification(self, kind):
        assert kind.check(kind.tampered()) is None

    def test_validator(self, kind):
        """Absent, malformed, forged, wrong-key, foreign and stale intents
        all read as "nothing to act on"; the validator never clears."""
        for why, blob in kind.rejected().items():
            assert kind.check(blob) is None, why
        assert kind.check(kind.wire) == kind.genuine()
        assert kind.check(kind.wire, owner="someone-else") is None
        kind.check_currency()
        if kind.sidecar is None:
            return  # the seal intent is read from the log image
        intent, storage = kind.genuine(), InMemoryStorage()
        owner = intent.owner_id
        assert load_valid_intent(storage, kind.intent_type, KEY, owner) is None
        for why, blob in kind.rejected().items():
            storage.save_intent(blob, kind.sidecar)
            assert load_valid_intent(storage, kind.intent_type, KEY, owner) is None, why
            assert storage.load_intent(kind.sidecar) == blob  # caller decides to clear
        storage.save_intent(kind.wire, kind.sidecar)
        assert load_valid_intent(storage, kind.intent_type, KEY, owner) == intent


# ----------------------------------------------------------------------
# The tamper matrix: every way the storage provider can hand back an
# intent this enclave did not write for this owner in this format.
# ----------------------------------------------------------------------

#: Each kind paired with the kind whose intent is planted in its place:
#: seal <-> rotation both ways, membership gets a seal intent record.
_PLANTED = {"seal": "rotation", "rotation": "seal", "membership": "seal"}

TAMPER = [
    (name, case, blob)
    for name, kind in KINDS.items()
    for case, blob in kind.tamper_cases(KINDS[_PLANTED[name]]).items()
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
    "name, case, blob", TAMPER, ids=[f"{name}-{case}" for name, case, _ in TAMPER]
)
def test_tamper_matrix(name, case, blob):
    kind = KINDS[name]
    assert kind.check(blob) is None
    if kind.sidecar is None:
        return  # read from the log image: tests/audit/test_snapshot_tamper.py
    storage = InMemoryStorage()
    storage.save_intent(blob, kind.sidecar)
    assert load_valid_intent(storage, kind.intent_type, KEY, kind.owner) is None
    probe = _Probe(kind.intent_type, storage, kind.owner)
    assert probe.resume() is None
    assert storage.load_intent(kind.sidecar) is None  # cleared
    assert probe.resumed == 0


@pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS.keys())
def test_tamper_matrix_control(kind):
    """The genuine intent, under the same probe, is acted on."""
    assert kind.check(kind.wire) == kind.genuine()
    if kind.sidecar is None:
        return  # read from the log image: tests/audit/test_snapshot_tamper.py
    storage = InMemoryStorage()
    storage.save_intent(kind.wire, kind.sidecar)
    probe = _Probe(kind.intent_type, storage, kind.owner)
    assert probe.resume() == kind.genuine()
    assert probe.resumed == 1


if __name__ == "__main__":
    for name, kind in (("rotation", ROTATION), ("membership", MEMBERSHIP)):
        print(f"{name} tag:\n    {kind.genuine().tag!r}")
    hexed = seal_image().hex()
    print("SEAL_IMAGE:")
    for start in range(0, len(hexed), 72):
        print(f'    "{hexed[start : start + 72]}"')
