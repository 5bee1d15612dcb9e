"""Read and forge stored audit-log images, for the tamper tests.

An image is ``IMAGE_MAGIC`` then framed, MAC-chained records (see
:mod:`repro.audit.log`). :func:`records` opens every record of an image;
:func:`image` chains records into an image again. Holding the signing
key, a test can do what only the enclave can: forge an image whose
records all carry valid MACs, so the checks behind the MAC are reached.

:func:`decode` and :func:`encode` give a *document view* of an image —
``log_id``, ``schema``, ``payloads`` (``[table, values]``, a bytes value
as ``{"__bytes__": hex}``), ``watermark_state`` (with ``payload_ids``)
and ``head`` (hashes and the signature as hex, ``None`` for an unsigned
head) — so an edit is a plain
field change: the view collects every tuple a head covers and the last
head, and :func:`encode` writes it back as one intent record and one
head record (the shape of a rewritten image), re-MAC'd under the view's
log id and schema. The records are parsed here with :mod:`struct`, not
with the loader's reader. A field the edit removed, or gave a value its
fixed-width or tagged encoding cannot hold, is left out or written as
``?``, so that the record is malformed.
"""

from __future__ import annotations

import struct

from repro.audit.hashchain import decode_tuple, encode_tuple
from repro.audit.log import (
    HEAD_RECORD,
    IMAGE_MAGIC,
    INTENT_RECORD,
    open_record,
    record_genesis,
    seal_record,
)
from repro.audit.persistence import split_frames
from repro.audit.wal import intent_key
from repro.crypto.ecdsa import EcdsaPrivateKey

STATE_KEYS = ("next_row_id", "trim_generation", "latest_time", "time_monotone")
#: A head record: head hash, counter, count, next row id, trim generation,
#: latest time (signed), time_monotone, the "signed" flag — then the
#: 64-byte signature only when the flag is set.
HEAD = struct.Struct(">32sQQQQqBB")
SIGNATURE_LEN = 64
ENTRY = struct.Struct(">QI")  # row id, tuple length

#: A ``LIBSEAL-LOG/2`` image, kept as a refusal vector: two tuples under a
#: head, then the intent record (``INTENT2`` seal intent, JSON tuples) of
#: a seal that crashed after it, under :data:`V2_KEY`, the log id
#: ``libseal-log`` and :data:`V2_SCHEMA`.
#: Captured at commit b3fe67a with ``PYTHONPATH=src python`` on::
#:
#:     log = AuditLog(V2_SCHEMA, KEY, RoteCluster(f=1), storage=InMemoryStorage())
#:     log.append("pairs", (1, "/p/0", None))
#:     log.append("pairs", (2, "/p/1", b"\x01\x00\xff"))
#:     log.seal_epoch()
#:     log.append("pairs", (3, "/p/2", 2.5))
#:     with faults.inject(FaultPlan([FaultEvent("audit.seal", "crash_after_intent")])):
#:         log.seal_epoch()  # raises InjectedCrash
#:     print(log.storage.load().hex())
#:
#: There, ``AuditLog.restore`` loads it with a valid seal intent.
V2_KEY = EcdsaPrivateKey(
    0x1F2E3D4C5B6A79788796A5B4C3D2E1F00112233445566778899AABBCCDDEEFF
)
V2_SCHEMA = "CREATE TABLE pairs(time INTEGER, path TEXT, body)"
V2_IMAGE = bytes.fromhex(
    "4c49425345414c2d4c4f472f320a00000121fffffede4900000097ffffff68494e54454e"
    "5432006c69627365616c2d6c6f6700373730613036323161323030366237633437376330"
    "373064653366366235353663363561363835633731336635343161346362363835333038"
    "333935663739390032003638623131306263616336376130313133666261333335386237"
    "656365373835613663623265613063326538623837353663376335643839383433393164"
    "383700000059ffffffa65b5b302c20315d2c205b5b227061697273222c205b312c20222f"
    "702f30222c206e756c6c5d5d2c205b227061697273222c205b322c20222f702f31222c20"
    "7b225f5f62797465735f5f223a2022303130306666227d5d5d5d5d271c6e6abbadd41c42"
    "ac7503dca8dbc2c32a44781f2de1696d20065d019c8d60000000feffffff01485b223737"
    "306130363231613230303662376334373763303730646533663662353536633635613638"
    "3563373133663534316134636236383533303833393566373939222c20312c20322c2022"
    "383539326333373263346136366130643137666332306562303833653932353537383163"
    "333130356331383363303561316565386333356437343161306464343831633437366239"
    "393831343761323630333238333163383336346430616263616265663032663236353537"
    "3539346237666564643461626130313334626165222c20322c20302c20322c2074727565"
    "5d741785b528e4bd9ce2977c328b18d7f53c75342a72ca819cd23382c194c6e3a2000000"
    "ecffffff134900000097ffffff68494e54454e5432006c69627365616c2d6c6f67003733"
    "623066336233393062666532373264393431326535303437373763353637306435383431"
    "393139393165613039363130653739613239363136363537383700330038663533313132"
    "333164623730386330306561663761663339323133376265636266663263346465333163"
    "39326366306230613537656265363132663536666200000024ffffffdb5b5b325d2c205b"
    "5b227061697273222c205b332c20222f702f32222c20322e355d5d5d5d49c54df9e8e497"
    "531aa43f61af5b3b007c828f8c6e05eadbe269cfffafddef44"
)


#: A ``LIBSEAL-LOG/3`` image, kept as a refusal vector: the image
#: ``tests/audit/test_wal.py``'s ``seal_image()`` wrote before the head
#: record gained its "signed" flag — two seals of four tuples, each head
#: record 137 bytes with its signature, under ``V2_KEY``, the log id
#: ``golden-log`` and :data:`V2_SCHEMA`. Captured at commit 404b204 with
#: ``PYTHONPATH=src python tests/audit/test_wal.py``; there,
#: ``AuditLog.restore`` loads it: four tuples, counter 2, no seal in flight.
V3_IMAGE = bytes.fromhex(
    "4c49425345414c2d4c4f472f330a0000006cffffff934900000000000000000000001654"
    "70616972730049310053000000042f702f30004e0000000000000000010000001d547061"
    "6972730049320053000000042f702f310059000000030100ff00d81ba5cf9c497b0bdfe8"
    "f3a95e96db214f45d694a46dad789cd27f376dffe6df000000aaffffff5548770a0621a2"
    "006b7c477c070de3f6b556c65a685c713f541a4cb685308395f799000000000000000100"
    "000000000000028592c372c4a66a0d17fc20eb083e9255781c3105c183c05a1ee8c35d74"
    "1a0dd481c476b998147a26032831c8364d0abcabef02f26557594b7fedd4aba0134bae00"
    "000000000000020000000000000000000000000000000201c860f8b33eab18ff2b733d15"
    "bb8c2decdf73db68b4d95afd33ab57c283744b530000007affffff854900000000000000"
    "02000000195470616972730049330053000000042f702f320046322e3500000000000000"
    "00030000002854706169727300492d340053000000000049313030303030303030303030"
    "3030303030303030300082f589dbcc5bd4828bb7dc3d1c971dae493eb50a67e1c5a603d6"
    "d72086b4fb1e000000aaffffff5548487e7369d1a56afd26b5fd752f193c343fad61d1d5"
    "3d12fa348a29ea012f251200000000000000020000000000000004cb0fe0b3ec133aca21"
    "70e7e13c14454f34c43c1d460057efdd6bfa3740e29a35984183c7d28a67c520f36b6dd8"
    "ba30f9efdae74b146883d6d9a184d20cfe7c050000000000000004000000000000000000"
    "00000000000003008e1f0d03ba362bf1530043c94614234db30271b33a7cd5ab7df487a2"
    "c29ed007"
)


def records(blob, key, log_id="libseal-log", schema=""):
    """``(kind, content)`` of every complete record of ``blob``."""
    mac_key = intent_key(key.d)
    mac = record_genesis(mac_key, log_id, schema)
    bodies, _ = split_frames(blob, len(IMAGE_MAGIC))
    out = []
    for body in bodies:
        kind, content, mac = open_record(mac_key, mac, body)
        out.append((kind, content))
    return out


def image(recs, key, log_id="libseal-log", schema=""):
    """``recs`` chained into an image under ``key``, ``log_id`` and ``schema``."""
    mac_key = intent_key(key.d)
    mac = record_genesis(mac_key, log_id, schema)
    parts = [IMAGE_MAGIC]
    for kind, content in recs:
        record, mac = seal_record(mac_key, mac, kind, content)
        parts.append(record)
    return b"".join(parts)


def record_spans(blob):
    """``(start, end)`` byte offsets of every complete record of ``blob``."""
    spans, offset = [], len(IMAGE_MAGIC)
    for body in split_frames(blob, offset)[0]:
        end = offset + 8 + len(body)
        spans.append((offset, end))
        offset = end
    return spans


def intent_entries(content):
    """``(row_id, tuple_bytes)`` of every tuple an intent record holds."""
    entries, offset = [], 0
    while offset < len(content):
        row_id, length = ENTRY.unpack_from(content, offset)
        offset += ENTRY.size
        entries.append((row_id, content[offset : offset + length]))
        offset += length
    return entries


def intent_content(entries):
    """An intent record's content from ``(row_id, tuple_bytes)`` pairs."""
    return b"".join(ENTRY.pack(row_id, len(data)) + data for row_id, data in entries)


def _view(value):
    return {"__bytes__": value.hex()} if isinstance(value, bytes) else value


def _unview(value):
    if isinstance(value, dict):
        return bytes.fromhex(value["__bytes__"])
    return value


def _tuple_bytes(payload):
    try:
        table, values = payload
        return encode_tuple(str(table), [_unview(v) for v in values])
    except (TypeError, ValueError, KeyError, AttributeError):
        return b"?"


def _u64(value, signed=False):
    lo, hi = (-(2**63), 2**63) if signed else (0, 2**64)
    if type(value) is int and lo <= value < hi:
        return value.to_bytes(8, "big", signed=signed)
    return b""


def _unhex(text):
    try:
        return bytes.fromhex(text)
    except (TypeError, ValueError):
        return b""


def decode(blob, key, log_id="libseal-log", schema=""):
    """The document view of ``blob`` (see the module docstring)."""
    doc = {"log_id": log_id, "schema": schema, "payloads": [], "head": None}
    ids, pending, state = [], None, None
    for kind, content in records(blob, key, log_id, schema):
        if kind == INTENT_RECORD:
            pending = content
            continue
        for row_id, data in intent_entries(pending):
            table, values = decode_tuple(data)
            ids.append(row_id)
            doc["payloads"].append([table, [_view(v) for v in values]])
        head_hash, counter, count, *state, signed = HEAD.unpack_from(content)
        signature = content[HEAD.size :] if signed else None
        doc["head"] = {
            "head_hash": head_hash.hex(),
            "counter": counter,
            "count": count,
            "signature": None if signature is None else signature.hex(),
        }
        state = dict(zip(STATE_KEYS, state))
        state["time_monotone"] = bool(state["time_monotone"])
    doc["watermark_state"] = dict(state or {}, payload_ids=ids)
    return doc


def encode(doc, key):
    """The document view written back as a re-MAC'd two-record image."""
    state = doc.get("watermark_state")
    ids = state.get("payload_ids", []) if isinstance(state, dict) else []
    payloads = doc["payloads"]
    if isinstance(payloads, list):
        content = b""
        for index in range(max(len(ids), len(payloads))):
            if index < len(ids):
                content += _u64(ids[index])
            if index < len(payloads):
                data = _tuple_bytes(payloads[index])
                content += len(data).to_bytes(4, "big") + data
    else:
        content = b"?"
    recs = [(INTENT_RECORD, content)]
    head = doc.get("head")
    if head is not None:
        if isinstance(head, dict):
            fields = b"".join((
                _unhex(head.get("head_hash")),
                _u64(head.get("counter")),
                _u64(head.get("count")),
            ))
            signature = head.get("signature")
        else:
            fields, signature = b"?", None
        if isinstance(state, dict):
            monotone = state.get("time_monotone")
            fields += b"".join((
                _u64(state.get("next_row_id")),
                _u64(state.get("trim_generation")),
                _u64(state.get("latest_time"), signed=True),
                bytes([monotone]) if type(monotone) is bool else b"",
            ))
        fields += b"\x00" if signature is None else b"\x01" + _unhex(signature)
        recs.append((HEAD_RECORD, fields))
    return image(recs, key, str(doc.get("log_id")), doc.get("schema", ""))
