"""Read and forge stored audit-log images, for the tamper tests.

An image is ``IMAGE_MAGIC`` then framed, MAC-chained records (see
:mod:`repro.audit.log`). :func:`records` opens every record of an image;
:func:`image` chains records into an image again. Holding the signing
key, a test can do what only the enclave can: forge an image whose
records all carry valid MACs, so the checks behind the MAC are reached.

:func:`decode` and :func:`encode` give the *document view* the older
JSON snapshot had — ``log_id``, ``schema``, ``payloads``,
``watermark_state`` and ``head`` — so field edits port one to one: the
view collects every tuple a head covers and the last head, and
:func:`encode` writes it back as one intent record and one head record
(the shape of a rewritten image), re-MAC'd under the view's log id and
schema. A field the edit removed, or gave a shape the record format
cannot hold, is written so that the record is malformed.
"""

from __future__ import annotations

import json

from repro.audit.hashchain import SealIntent
from repro.audit.log import (
    HEAD_RECORD,
    IMAGE_MAGIC,
    INTENT_RECORD,
    open_record,
    record_genesis,
    seal_record,
)
from repro.audit.persistence import frame, split_frames
from repro.audit.wal import intent_key

HEAD_KEYS = ("head_hash", "counter", "count", "signature")
STATE_KEYS = ("next_row_id", "trim_generation", "latest_time", "time_monotone")


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


def intent_parts(content):
    """An intent record's :class:`SealIntent` wire and its decoded tuples."""
    wire, tuples = split_frames(content)[0]
    return wire, json.loads(tuples)


def intent_content(wire, ids, payloads):
    return frame(wire) + frame(json.dumps([ids, payloads]).encode())


def decode(blob, key, log_id="libseal-log", schema=""):
    """The document view of ``blob`` (see the module docstring)."""
    doc = {"log_id": log_id, "schema": schema, "payloads": [], "head": None}
    ids, pending, wire, state = [], None, None, None
    for kind, content in records(blob, key, log_id, schema):
        if kind == INTENT_RECORD:
            pending = content
        else:
            wire, (stored_ids, payloads) = intent_parts(pending)
            ids += stored_ids
            doc["payloads"] += payloads
            fields = json.loads(content)
            doc["head"] = dict(zip(HEAD_KEYS, fields[:4]))
            state = dict(zip(STATE_KEYS, fields[4:]))
    doc["watermark_state"] = dict(state or {}, payload_ids=ids)
    doc["intent"] = wire
    return doc


def encode(doc, key):
    """The document view written back as a re-MAC'd two-record image."""
    state = doc.get("watermark_state")
    tuples = [doc["payloads"]]
    if isinstance(state, dict) and "payload_ids" in state:
        tuples.insert(0, state["payload_ids"])
    wire = doc.get("intent") or SealIntent.seal(
        key, "libseal-log", bytes(32), 0
    ).encode()
    recs = [(INTENT_RECORD, frame(wire) + frame(json.dumps(tuples).encode()))]
    head = doc.get("head")
    if head is not None:
        fields = [head[k] for k in HEAD_KEYS if k in head] if isinstance(head, dict) else [head]
        if isinstance(state, dict):
            fields += [state[k] for k in STATE_KEYS if k in state]
        else:
            fields.append(state)
        recs.append((HEAD_RECORD, json.dumps(fields).encode()))
    return image(recs, key, str(doc.get("log_id")), doc.get("schema", ""))
