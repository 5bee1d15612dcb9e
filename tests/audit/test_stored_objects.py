"""One tamper mutator over every object the enclave reads back from storage.

Storage is adversarial, so every object it hands back — a record of the
log image (an intent record, a head record), a write-ahead sidecar
(rotation, membership) and a :class:`SealedLogStorage` frame — is mutated
the same ways: truncated at every field boundary (and, in a head record,
at every 8th byte), extended, each byte flipped, a type tag retyped, two
records reordered. Every mutation must be refused with a typed
:class:`~repro.errors.ReproError` (:class:`IntegrityError`, or
:class:`SealingError` for the sealed frame); none may be accepted and
none may raise anything untyped.

Image records are mutated in place, with a record after them (the final
record's strict prefix is a torn tail by design, ``test_snapshot_tamper``).
They are also mutated *behind* their MACs, re-MAC'd with the key — what
only the enclave could write — to reach the parsers: truncation, an
extension and a retyped tag still fail closed. (A flipped byte behind
the MACs can be harmless, e.g. in the unsigned watermark fields; those
edits are pinned in ``test_snapshot_tamper``.) The image's first head is
a cadence seal's, which stores its signature, and its last is unsigned;
the signature is edited behind the MAC too — stripped (the flag cleared
and the 64 bytes cut), added to the unsigned head, replaced by a wrong
one where it is the last head's — and the last head is MAC'd under
another key: each is refused with its own stable reason.

The tuple codec gets a property test: ``decode_tuple`` inverts
``encode_tuple`` for every value type a table stores, and refuses, by its
own checks, bytes ``encode_tuple`` cannot produce.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.audit import AuditLog, MembershipIntent, RotationIntent, RoteCluster
from repro.audit.hashchain import decode_tuple, encode_tuple
from repro.audit.log import HEAD_RECORD, INTENT_RECORD, SIGN_EVERY, seal_record
from repro.audit.persistence import InMemoryStorage, LogStorage
from repro.audit.sealed_storage import SealedLogStorage, make_log_enclave
from repro.audit.wal import intent_key
from repro.errors import IntegrityError, ReproError, SealingError
from repro.sgx.sealing import SigningAuthority
from tests.audit.records import image, intent_entries, record_spans, records
from tests.audit.test_wal import KEY, MEMBERSHIP, OTHER_KEY, ROTATION

SCHEMA = "CREATE TABLE pairs(time INTEGER, path TEXT, body)"
ROTE = RoteCluster(f=1)


def mutations(blob, boundaries, retypes):
    """Every mutation of ``blob``: ``{name: mutated bytes}``.

    ``boundaries`` are the field boundaries to truncate at, ``retypes``
    ``(offset, replacement)`` pairs that swap one type tag for another.
    """
    out = {f"truncate@{cut}": blob[:cut] for cut in boundaries if cut < len(blob)}
    out["extend"] = blob + b"\x00"
    for index in range(len(blob)):
        flipped = bytearray(blob)
        flipped[index] ^= 0x01
        out[f"flip@{index}"] = bytes(flipped)
    for offset, tag in retypes:
        out[f"retype@{offset}"] = blob[:offset] + tag + blob[offset + len(tag) :]
    return out


def refused(read, blob, errors=(IntegrityError,)):
    """``read(blob)`` must raise one of ``errors`` (all typed)."""
    try:
        read(blob)
    except errors:
        return True
    except ReproError as exc:
        pytest.fail(f"refused with the wrong type: {exc!r}")
    return False  # accepted; an untyped exception propagates and fails


def sealed_log():
    """``[I, H, I, H]``: two seals of a small log, counted from
    ``SIGN_EVERY - 1``, so the first head is a cadence seal's, signed,
    and the last is unsigned."""
    rote = RoteCluster(f=1)
    for _ in range(SIGN_EVERY - 1):
        rote.increment("libseal-log")
    log = AuditLog(SCHEMA, KEY, rote, storage=InMemoryStorage())
    log.append("pairs", (1, "/p/0", None))
    log.append("pairs", (2, "/p/1", b"\x01\x00\xff"))
    log.seal_epoch()
    log.append("pairs", (3, "/p/2", 2.5))
    log.append("pairs", (4, "/p/3", True))
    log.seal_epoch()
    return log.storage.load()


IMAGE = sealed_log()


def restore(blob):
    AuditLog.restore(blob, SCHEMA, KEY, KEY.public_key(), ROTE, "libseal-log")


def intent_boundaries(content):
    """Offsets inside an intent record's content where a field ends."""
    cuts, offset = [], 0
    for _, data in intent_entries(content):
        cuts += [offset + 8, offset + 12]
        offset += 12 + len(data)
        cuts.append(offset)
    return cuts


def head_boundaries(content):
    """Offsets inside a head record's content to cut at: where the hash,
    counter, count, next row id, trim generation, latest time,
    time_monotone, the signed flag and (when set) the signature end, and
    every 8th byte, inside the hash and the signature too."""
    ends = {32, 40, 48, 56, 64, 72, 73, 74, len(content)}
    return sorted(ends.union(range(8, len(content), 8)))


def boundaries(kind, content):
    return intent_boundaries(content) if kind == INTENT_RECORD else head_boundaries(content)


def record_boundaries(kind, content):
    """Offsets inside a framed record ``header || kind || content || MAC``."""
    inner = boundaries(kind, content)
    return [8, 9] + [9 + cut for cut in inner] + [9 + len(content)]


# ----------------------------------------------------------------------
# The image's records, as the provider can touch them (no key)
# ----------------------------------------------------------------------


def _record_cases():
    recs = records(IMAGE, KEY, schema=SCHEMA)
    spans = record_spans(IMAGE)
    for index in (0, 1, 2):  # each has a record after it
        kind, content = recs[index]
        start, end = spans[index]
        retype = HEAD_RECORD if kind == INTENT_RECORD else INTENT_RECORD
        for name, mutated in mutations(
            IMAGE[start:end], record_boundaries(kind, content), [(8, retype)]
        ).items():
            yield f"{kind.decode()}{index}-{name}", IMAGE[:start] + mutated + IMAGE[end:]
    a, b = spans[0], spans[1]
    yield "reorder-I0-H1", IMAGE[: a[0]] + IMAGE[b[0] : b[1]] + IMAGE[a[0] : a[1]] + IMAGE[b[1] :]
    c = spans[2]
    yield "reorder-I0-I2", (
        IMAGE[: a[0]] + IMAGE[c[0] : c[1]] + IMAGE[a[1] : c[0]] + IMAGE[a[0] : a[1]]
        + IMAGE[c[1] :]
    )


RECORD_CASES = dict(_record_cases())


def test_record_mutations_cover_every_kind():
    assert {name.split("-")[0] for name in RECORD_CASES} >= {"I0", "H1", "I2", "reorder"}
    heads = [content for kind, content in records(IMAGE, KEY, schema=SCHEMA)
             if kind == HEAD_RECORD]
    assert [len(content) for content in heads] == [138, 74]  # signed, unsigned
    restore(IMAGE)  # the control loads


@pytest.mark.parametrize("name", sorted(RECORD_CASES))
def test_record_mutation_is_refused(name):
    assert refused(restore, RECORD_CASES[name]), name


# ----------------------------------------------------------------------
# The image's records behind their MACs (the key holder's forgeries)
# ----------------------------------------------------------------------


def _forged_cases():
    recs = records(IMAGE, KEY, schema=SCHEMA)

    def forged(index, content=None, kind=None):
        edited = list(recs)
        old_kind, old_content = edited[index]
        edited[index] = (kind or old_kind, old_content if content is None else content)
        return image(edited, KEY, schema=SCHEMA)

    for index in (0, 1, 2, 3):
        kind, content = recs[index]
        for cut in [0, *boundaries(kind, content)]:
            if cut < len(content):
                yield f"{kind.decode()}{index}-truncate@{cut}", forged(index, content[:cut])
        yield f"{kind.decode()}{index}-extend", forged(index, content + b"\x00")
        if index < 3:  # the last head retyped is a trailing intent record:
            # a seal in flight, which only the key holder can write
            other = HEAD_RECORD if kind == INTENT_RECORD else INTENT_RECORD
            yield f"{kind.decode()}{index}-retype-record", forged(index, kind=other)
    # A value's tag retyped inside a tuple: text read as bytes, an integer
    # as a float, a boolean as an integer.
    content = recs[2][1]
    for old, new in ((b"S\x00\x00\x00\x04/p/2", b"Y\x00\x00\x00\x04/p/2"),
                     (b"I3\x00", b"F3\x00"), (b"B1\x00", b"I1\x00")):
        assert old in content
        yield f"I2-retype-{old[:1].decode()}", forged(2, content.replace(old, new))
    yield "reorder-I0-H1", image([recs[1], recs[0], *recs[2:]], KEY, schema=SCHEMA)
    yield "reorder-I2-I0", image([recs[2], recs[1], recs[0], recs[3]], KEY, schema=SCHEMA)


FORGED_CASES = dict(_forged_cases())


@pytest.mark.parametrize("name", sorted(FORGED_CASES))
def test_forged_record_is_refused(name):
    assert refused(restore, FORGED_CASES[name]), name


def _signature_cases():
    """The head record's signature edited behind the MAC, and a head
    record MAC'd under another key: ``(name, image, reason)``."""
    recs = records(IMAGE, KEY, schema=SCHEMA)
    signed, unsigned = recs[1][1], recs[3][1]
    flag = 73  # the signed flag's offset

    def forged(index, content, last=3):
        edited = list(recs[: last + 1])
        edited[index] = (HEAD_RECORD, content)
        return image(edited, KEY, schema=SCHEMA)

    wrong = bytearray(signed)
    wrong[-1] ^= 0x01
    yield "strip-signature", forged(1, signed[:flag] + b"\x00"), "flag disagrees"
    yield "add-signature", forged(3, unsigned[:flag] + b"\x01" + signed[-64:]), "flag disagrees"
    # Loading verifies the last head's signature: the signed head ends the image.
    yield "wrong-signature", forged(1, bytes(wrong), last=1), "head signature invalid"
    yield "flag-not-boolean", forged(3, unsigned[:flag] + b"\x02"), "flag disagrees"
    start, _ = record_spans(IMAGE)[3]
    other_key_head, _ = seal_record(
        intent_key(OTHER_KEY.d), IMAGE[start - 32 : start], HEAD_RECORD, unsigned
    )
    yield "other-key-head", IMAGE[:start] + other_key_head, "record MAC invalid"


SIGNATURE_CASES = list(_signature_cases())


@pytest.mark.parametrize("name,blob,reason", SIGNATURE_CASES,
                         ids=[case[0] for case in SIGNATURE_CASES])
def test_signature_edit_is_refused_with_a_stable_reason(name, blob, reason):
    with pytest.raises(IntegrityError, match=reason):
        restore(blob)


# ----------------------------------------------------------------------
# The write-ahead sidecars
# ----------------------------------------------------------------------


def sidecar_boundaries(kind):
    cuts = [len(kind.intent_type.MAGIC), len(kind.intent_type.MAGIC) + 1]
    cuts += [kind._span(index)[1] for index in range(len(kind.intent_type.FIELDS))]
    return cuts


def _sidecar_cases():
    for name, kind, other in (
        ("rotation", ROTATION, MembershipIntent.MAGIC),
        ("membership", MEMBERSHIP, RotationIntent.MAGIC),
    ):
        wire = kind.wire
        cases = mutations(wire, sidecar_boundaries(kind), [])
        cases["retype-magic"] = other + wire[len(kind.intent_type.MAGIC) :]
        fields = [kind._span(index) for index in range(len(kind.intent_type.FIELDS))]
        (a0, a1), (b0, b1) = fields[1], fields[2]
        cases["reorder-fields"] = wire[:a0] + wire[b0:b1] + wire[a0:a1] + wire[b1:]
        for case, blob in cases.items():
            yield f"{name}-{case}", (kind, blob)


SIDECAR_CASES = dict(_sidecar_cases())


def read_sidecar(kind):
    def read(blob):
        kind.intent_type.decode(blob).verify(KEY)

    return read


@pytest.mark.parametrize("name", sorted(SIDECAR_CASES))
def test_sidecar_mutation_is_refused(name):
    kind, blob = SIDECAR_CASES[name]
    read_sidecar(kind)(kind.wire)  # the control verifies
    assert refused(read_sidecar(kind), blob), name


# ----------------------------------------------------------------------
# A sealed frame
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sealed_store(tmp_path_factory):
    """A sealed inner file of two frames: a whole image, then an append."""
    path = tmp_path_factory.mktemp("sealed") / "audit.log"
    enclave = make_log_enclave(SigningAuthority("stored-objects"))
    store = SealedLogStorage(LogStorage(path), enclave)
    spans = record_spans(IMAGE)
    store.save(IMAGE[: spans[2][0]])
    store.append(IMAGE[spans[2][0] :])
    assert store.load() == IMAGE
    return store, path.read_bytes()


def test_sealed_frame_mutations_are_refused(sealed_store, tmp_path):
    store, inner = sealed_store
    first = 8 + int.from_bytes(inner[:4], "big")  # the whole-image frame
    frame_bytes, rest = inner[:first], inner[first:]
    cases = mutations(frame_bytes, [4, 8, 8 + 12, first - 16], [])
    cases["reorder-frames"] = rest + frame_bytes
    reader = SealedLogStorage(LogStorage(tmp_path / "copy.log"), store.enclave)

    def read(blob):
        reader.path.write_bytes(blob)
        restore(reader.load())

    accepted = [
        name for name, mutated in cases.items()
        if not refused(read, mutated + (rest if name != "reorder-frames" else b""),
                       (SealingError, IntegrityError))
    ]
    assert accepted == []


# ----------------------------------------------------------------------
# The tuple codec
# ----------------------------------------------------------------------

stored_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.text(),
    st.binary(),
    st.binary().map(lambda data: b"\x00" + data + b"\x00"),
)


@settings(max_examples=300, deadline=None)
@given(table=st.text(min_size=1).filter(lambda t: "\x00" not in t),
       values=st.lists(stored_values, max_size=8))
def test_decode_inverts_encode(table, values):
    table_out, values_out = decode_tuple(encode_tuple(table, values))
    assert table_out == table
    assert [(type(v), v) for v in values_out] == [(type(v), v) for v in values]


@pytest.mark.parametrize(
    "blob",
    [
        b"", b"T", b"Tt", b"Xt\x00",
        b"Tt\x00I05\x00", b"Tt\x00I-0\x00", b"Tt\x00I+1\x00", b"Tt\x00I \x00",
        b"Tt\x00I1_0\x00", b"Tt\x00I\x00", b"Tt\x00F1.50\x00", b"Tt\x00F 2.5\x00",
        b"Tt\x00F1e3\x00", b"Tt\x00Fx\x00", b"Tt\x00B2\x00", b"Tt\x00B\x00",
        b"Tt\x00Nx\x00", b"Tt\x00Q\x00", b"Tt\x00I1",
        b"Tt\x00S\x00\x00\x00\x05ab\x00", b"Tt\x00S\x00\x00\x00\x01a",
        b"Tt\x00S\x00\x00", b"Tt\x00S\x00\x00\x00\x01ab", b"Tt\x00S\x00\x00\x00\x01\xff\x00",
        b"Tt\x00Y\x00\x00\x00\x02a\x00", b"T\xff\x00", b"Tt\x00I1\x00\x00",
    ],
)
def test_decode_refuses_what_encode_cannot_produce(blob):
    with pytest.raises(IntegrityError, match="stored tuple malformed"):
        decode_tuple(blob)


def test_no_json_in_the_stored_formats():
    """The audit log and the SGX layer read back only length-prefixed and
    fixed-width binary: no module under ``repro/audit`` or ``repro/sgx``
    imports :mod:`json`."""
    root = Path(repro.__file__).parent
    offenders = []
    for package in ("audit", "sgx"):
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "json" for name in names):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
