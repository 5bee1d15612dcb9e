"""Snapshot tamper matrix: every edit a storage provider can make fails closed.

An audit-log image on untrusted storage is adversary-controlled bytes:
framed records, each MAC'd over its predecessor's MAC. Two matrices run
here. The *byte* matrix flips one byte in every complete record and cuts
the image at every record boundary and inside every record, and wants
each result classified — a flip is ``TAMPER_DETECTED``; a cut is a torn
tail, whose outcome depends on what it removed (an older head is a
rollback, a cut into the final head the documented last-epoch
ambiguity) — never an exception. The *field* matrix goes behind the
MACs: holding the key, it forges images whose records all verify but
whose fields were edited — identity (log id, schema), each payload's
table, arity, value types and order, the watermark bookkeeping, every
signed-head field — and asserts that :func:`recover_log` *classifies* the
result as a detection (never raises, never resumes) and that
:meth:`LibSeal.recover` refuses to hand back a running instance.

Not every byte behind the MACs is meaningful: watermark bookkeeping
that cannot launder a tuple (a restarted checker always begins with a
full scan) is harmless, and pinned as such at the bottom. A value the
column affinity would coerce back to the sealed row is not: the chain
covers the stored bytes, so it is a detection like any other edit.

``PARENT_JSON_SNAPSHOT`` is a snapshot in the JSON format the record
image replaced, kept as a refusal vector. It was captured from a tree
that still wrote that format (commit 1f242a8), at its root, with::

    PYTHONPATH=src:. python -c "
    from repro.audit.persistence import InMemoryStorage
    from repro.core import LibSeal
    from repro.http import HttpRequest, HttpResponse
    from tests.audit.test_snapshot_tamper import BodySSM
    libseal = LibSeal(BodySSM(), storage=InMemoryStorage())
    libseal.log_pair(HttpRequest('POST', '/p/0'), HttpResponse(200))
    print(libseal.storage.load())"
"""

import copy

import pytest

from repro.audit.hashchain import RotationIntent
from repro.audit import RoteCluster
from repro.audit.log import (
    INTENT_RECORD,
    SIGN_EVERY,
    UNSUPPORTED_SNAPSHOT,
    record_genesis,
    seal_record,
)
from repro.audit.persistence import InMemoryStorage, frame
from repro.audit.recovery import RecoveryOutcome, recover_log
from repro.audit.wal import intent_key
from repro.core import LibSeal
from repro.http import HttpRequest, HttpResponse
from repro.ssm import GitSSM
from repro.ssm.base import ServiceSpecificModule
from repro.workloads import GitReplayWorkload
from tests.audit.records import V2_IMAGE, decode, encode, record_spans

TAMPER = RecoveryOutcome.TAMPER_DETECTED
ROLLBACK = RecoveryOutcome.ROLLBACK_DETECTED
#: How recovery may classify a cut or flipped image; anything else (or an
#: exception) fails the byte matrix.
CLASSIFIED = {
    TAMPER,
    ROLLBACK,
    RecoveryOutcome.IN_FLIGHT_DISCARDED,
    RecoveryOutcome.TORN_TAIL_TRUNCATED,
}


class BodySSM(ServiceSpecificModule):
    """One tuple per pair: an INTEGER clock, a TEXT path, an untyped body."""

    name = "bodies"
    schema_sql = "CREATE TABLE pairs(time INTEGER, path TEXT, body)"
    invariants = {}
    trimming_queries = []

    def log(self, request, response, emit, time):
        emit("pairs", (time, request.path, request.body or None))


def drive(libseal, start, count):
    for index in range(start, start + count):
        body = bytes([index, 0xFF]) if index % 2 else b""
        request = HttpRequest("POST", f"/p/{index}", body=body)
        libseal.log_pair(request, HttpResponse(200))


PARENT_JSON_SNAPSHOT = (
    b'{"log_id": "libseal-log", "schema": "CREATE TABLE pairs(time INTEGER, path'
    b' TEXT, body)", "payloads": [["pairs", [1, "/p/0", null]]], "watermark_state":'
    b' {"next_row_id": 1, "payload_ids": [0], "trim_generation": 0, "latest_time":'
    b' 1, "time_monotone": true}, "head": {"head_hash": "6deb0e96710bcdf110dd00ede8'
    b'2572a47a6252b2b47e367dc8622f0795806f30", "counter": 1, "count": 1, "signatur'
    b'e": "c016563a82b630178926c7f902e5437bd53a5fa0efdfa6e941736515c7ef951c67f4aeb'
    b'bd0153eb2147adae198b1e9db5b54db8b63500f4affb06080d83e4d27"}}'
)


def six_pairs(counter_from=0):
    """A six-pair log sealed per pair, plus its snapshot after pair three.
    Its counter starts at ``counter_from``."""
    rote = RoteCluster(f=1)
    for _ in range(counter_from):
        rote.increment("libseal-log")
    libseal = LibSeal(BodySSM(), storage=InMemoryStorage(), rote=rote)
    drive(libseal, 0, 3)
    older = libseal.storage.load()
    drive(libseal, 3, 3)
    return libseal, older, libseal.storage.load()


@pytest.fixture(scope="module")
def sealed():
    """:func:`six_pairs`, shared by the tests that cannot move its counter."""
    return six_pairs()


@pytest.fixture(scope="module")
def cadence_sealed():
    """:func:`six_pairs` whose last seal is a cadence seal: its head record
    stores a signature, which every edit of the head's fields breaks. (An
    unsigned head has its record MAC alone: behind it, an edit is the key
    holder's, as a re-signed head always was.)"""
    return six_pairs(counter_from=SIGN_EVERY - 6)


def restart(libseal, blob, once=False):
    """Serve ``blob`` to both recovery entry points; return the report.

    ``once``: only to :meth:`LibSeal.recover` — an in-flight re-seal moves
    the counter, so a second recovery would classify another state."""
    storage = InMemoryStorage()
    storage.save(blob)
    if once:
        return LibSeal.recover(
            BodySSM(), storage, signing_key=libseal.signing_key, rote=libseal.rote
        )
    report = recover_log(
        storage,
        libseal.ssm.schema_sql,
        libseal.signing_key,
        libseal.signing_key.public_key(),
        libseal.rote,
        log_id=libseal.config.log_id,
    )
    recovered, again = LibSeal.recover(
        BodySSM(), storage, signing_key=libseal.signing_key, rote=libseal.rote
    )
    assert again.outcome is report.outcome
    return recovered, report


def edited(libseal, blob, edit):
    """``blob`` with ``edit`` applied to its document view, every record
    re-MAC'd (a forgery only the enclave's key can make)."""
    key = libseal.signing_key
    doc = decode(blob, key, libseal.config.log_id, libseal.ssm.schema_sql)
    edit(doc)
    return encode(doc, key)


def payload(doc, index):
    return doc["payloads"][index]


def holder(doc, path):
    """The list or dict that holds ``path[-1]``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def at(path, change):
    """An edit that replaces the value at ``path`` with ``change(value)``."""

    def edit(doc):
        container = holder(doc, path)
        container[path[-1]] = change(container[path[-1]])

    return edit


def setitem(path, value):
    return at(path, lambda _: value)


def shift(path, delta):
    return at(path, lambda number: number + delta)


def flip_hex(path):
    return at(path, lambda text: ("1" if text[0] == "0" else "0") + text[1:])


def delete(path):
    return lambda doc: holder(doc, path).pop(path[-1])


def swap_first_two(doc):
    doc["payloads"][:2] = doc["payloads"][1::-1]


def extra_payload(doc):
    doc["payloads"].append(copy.deepcopy(doc["payloads"][-1]))


def extra_payload_with_id(doc):
    extra_payload(doc)
    state = doc["watermark_state"]
    state["payload_ids"].append(state["next_row_id"])
    state["next_row_id"] += 1


def missing_payload(doc):
    del doc["payloads"][2]


def missing_payload_and_id(doc):
    missing_payload(doc)
    del doc["watermark_state"]["payload_ids"][2]


def rename_column(doc):
    doc["schema"] = doc["schema"].replace("path TEXT", "route TEXT")


def time_as_text(doc):
    values = payload(doc, 1)[1]
    values[0] = str(values[0])


# payloads[0] is (1, "/p/0", NULL), payloads[1] is (2, "/p/1", {"__bytes__": "01ff"}).
CASES = {
    "log_id": setitem(["log_id"], "another-log"),
    "log_id-type": setitem(["log_id"], 7),
    "schema-column-renamed": rename_column,
    "schema-missing": delete(["schema"]),
    "table-unknown": setitem(["payloads", 1, 0], "nope"),
    "table-other-relation": setitem(["payloads", 1, 0], "libseal_events"),
    "table-not-text": setitem(["payloads", 1, 0], 5),
    "arity-short": lambda doc: payload(doc, 1)[1].pop(),
    "arity-long": lambda doc: payload(doc, 1)[1].append(None),
    "value-int-to-float": setitem(["payloads", 1, 1, 0], 1.5),
    "value-text-to-int": setitem(["payloads", 1, 1, 1], 1),
    "value-bytes-to-text": setitem(["payloads", 1, 1, 2], "01ff"),
    "value-null-to-text": setitem(["payloads", 0, 1, 2], ""),
    "value-list": setitem(["payloads", 1, 1, 1], ["/p/1"]),
    "value-int-as-numeric-text": time_as_text,
    "bytes-hex-changed": flip_hex(["payloads", 1, 1, 2, "__bytes__"]),
    "bytes-hex-invalid": setitem(["payloads", 1, 1, 2, "__bytes__"], "zz"),
    "payload-shape": setitem(["payloads", 1], ["pairs"]),
    "payloads-not-a-list": setitem(["payloads"], {"pairs": []}),
    "order-swapped": swap_first_two,
    "payload-extra": extra_payload,
    "payload-extra-with-id": extra_payload_with_id,
    "payload-missing": missing_payload,
    "payload-missing-with-id": missing_payload_and_id,
    "watermark-not-a-dict": setitem(["watermark_state"], [0]),
    "watermark-next_row_id-missing": delete(["watermark_state", "next_row_id"]),
    "watermark-next_row_id-behind": setitem(["watermark_state", "next_row_id"], 2),
    "watermark-payload_ids-missing": delete(["watermark_state", "payload_ids"]),
    "watermark-payload_ids-repeated": setitem(
        ["watermark_state", "payload_ids"], [0, 1, 1, 3, 4, 5]
    ),
    "watermark-payload_ids-short": setitem(["watermark_state", "payload_ids"], [0]),
    "watermark-trim_generation-missing": delete(["watermark_state", "trim_generation"]),
    "watermark-trim_generation-text": setitem(
        ["watermark_state", "trim_generation"], "x"
    ),
    "watermark-latest_time-missing": delete(["watermark_state", "latest_time"]),
    "watermark-latest_time-null": setitem(["watermark_state", "latest_time"], None),
    "watermark-time_monotone-missing": delete(["watermark_state", "time_monotone"]),
    "head-missing": setitem(["head"], None),
    "head-not-a-dict": setitem(["head"], [1, 2]),
    "head_hash-changed": flip_hex(["head", "head_hash"]),
    "head_hash-invalid": setitem(["head", "head_hash"], "not hex"),
    "counter-raised": shift(["head", "counter"], 1),
    "counter-lowered-in-place": shift(["head", "counter"], -1),
    "count-raised": shift(["head", "count"], 1),
    "count-lowered": shift(["head", "count"], -1),
    "signature-changed": flip_hex(["head", "signature"]),
    "signature-truncated": lambda doc: doc["head"].update(
        signature=doc["head"]["signature"][:-8]
    ),
    "signature-invalid": setitem(["head", "signature"], "zz"),
}


class TestTamperMatrix:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_field_edit_is_detected(self, cadence_sealed, name):
        libseal, _, current = cadence_sealed
        recovered, report = restart(libseal, edited(libseal, current, CASES[name]))
        assert report.outcome is TAMPER, report.describe()
        assert recovered is None and report.log is None

    @pytest.mark.parametrize(
        "blob",
        [b"not json at all", b"\xff\xfe", b"[]", b"null", b"{}"],
        ids=["non-json", "non-utf8", "json-list", "json-null", "json-empty"],
    )
    def test_undecodable_snapshot_is_detected(self, sealed, blob):
        libseal, _, _ = sealed
        recovered, report = restart(libseal, blob)
        assert report.outcome is TAMPER
        assert recovered is None

    @pytest.mark.parametrize("keep", [0.5, 0.99])
    def test_truncated_snapshot_is_detected(self, sealed, keep):
        # A cut is a torn tail; what it removed decides. Half the image
        # loses signed heads the counter covers: a rollback. A cut into
        # the final head leaves its intent record: the last-epoch
        # ambiguity (recovery.py), resumed on the previous head.
        # The ambiguity's re-seal moves the counter: a log of its own.
        libseal, _, current = sealed if keep == 0.5 else six_pairs()
        recovered, report = restart(
            libseal, current[: int(len(current) * keep)], once=keep != 0.5
        )
        if keep == 0.5:
            assert report.outcome is ROLLBACK
            assert recovered is None
        else:
            assert report.outcome is RecoveryOutcome.IN_FLIGHT_DISCARDED
            assert report.entries == len(libseal.audit_log.chain) - 1

    def test_older_signed_snapshot_is_a_rollback(self, sealed):
        # The counter lowered the only way storage can lower it: by serving
        # an earlier, validly signed snapshot.
        libseal, older, _ = sealed
        recovered, report = restart(libseal, older)
        assert report.outcome is ROLLBACK
        assert recovered is None

    def test_older_head_on_current_payloads_is_detected(self, sealed):
        libseal, older, current = sealed
        head = decode(
            older, libseal.signing_key, libseal.config.log_id, libseal.ssm.schema_sql
        )["head"]
        recovered, report = restart(
            libseal, edited(libseal, current, setitem(["head"], head))
        )
        assert report.outcome is TAMPER
        assert recovered is None

    def test_untouched_snapshot_resumes(self, sealed):
        libseal, _, current = sealed
        recovered, report = restart(libseal, current)
        assert report.outcome is RecoveryOutcome.CLEAN_RESUME
        assert list(recovered.audit_log.tuples()) == list(libseal.audit_log.tuples())


class TestByteMatrix:
    """Raw edits, no forging: a one-byte flip in every complete record, a
    cut at every record boundary and inside every record."""

    @staticmethod
    def spans():
        _, _, current = six_pairs()
        return record_spans(current)

    @pytest.mark.parametrize("index", range(12))
    def test_flipped_byte_in_every_record_is_tamper(self, sealed, index):
        libseal, _, current = sealed
        start, end = record_spans(current)[index]
        for offset in (start, start + 4, start + 8, (start + end) // 2, end - 1):
            blob = bytearray(current)
            blob[offset] ^= 0x01
            recovered, report = restart(libseal, bytes(blob))
            assert report.outcome is TAMPER, (offset, report.describe())
            assert recovered is None

    @pytest.mark.parametrize("index", range(12))
    @pytest.mark.parametrize("where", ["boundary", "inside"])
    def test_cut_is_classified(self, index, where):
        # Each case gets its own log: an in-flight re-seal moves the counter.
        libseal, _, current = six_pairs()
        start, end = record_spans(current)[index]
        cut = start if where == "boundary" else (start + end) // 2
        recovered, report = restart(libseal, current[:cut], once=True)
        assert report.outcome in CLASSIFIED, report.describe()
        # An image without a complete head was never written (the first
        # seal replaces the image whole). A cut reaching back past a head
        # the counter covers is a rollback; only cutting into the final
        # head (record 11) or exactly at its start leaves the last-epoch
        # ambiguity.
        if index < 2:
            assert report.outcome is TAMPER, report.describe()
        elif index < 11:
            assert report.outcome is ROLLBACK, report.describe()
        else:
            assert report.outcome is RecoveryOutcome.IN_FLIGHT_DISCARDED
            assert recovered is not None

    def test_torn_tail_after_a_head_is_cut_and_resumed(self):
        libseal, _, current = six_pairs()
        start, end = record_spans(current)[-1]
        recovered, report = restart(libseal, current + current[start : end - 9], once=True)
        assert report.outcome is RecoveryOutcome.TORN_TAIL_TRUNCATED
        assert report.entries == len(libseal.audit_log.chain)
        assert recovered.storage.load() == current  # cut off before appending

    def test_parent_json_snapshot_is_refused_with_a_stable_reason(self, sealed):
        libseal, _, _ = sealed
        recovered, report = restart(libseal, PARENT_JSON_SNAPSHOT)
        assert report.outcome is TAMPER
        assert UNSUPPORTED_SNAPSHOT in report.detail
        assert recovered is None


class TestInFlightIntentRecord:
    """The trailing intent record is what turns a counter gap of one into
    ``IN_FLIGHT_DISCARDED``: its MAC, chained onto the last head's, is a
    proof only the enclave can make. Anything else in its place explains
    nothing: a torn one is a rollback, a foreign one tampering."""

    def gap_of_one(self):
        libseal, _, current = six_pairs()
        start, end = record_spans(current)[-1]  # the final head
        return libseal, current[:start], record_spans(current)[-2]

    def test_genuine_intent_explains_the_gap(self):
        libseal, blob, _ = self.gap_of_one()
        recovered, report = restart(libseal, blob, once=True)
        assert report.outcome is RecoveryOutcome.IN_FLIGHT_DISCARDED
        assert report.intent_found and report.resealed

    @pytest.mark.parametrize("cut", [9], ids=["tag-cut"])
    def test_invalid_intent_is_a_rollback(self, cut):
        libseal, blob, _ = self.gap_of_one()
        recovered, report = restart(libseal, blob[:-cut])
        assert report.outcome is ROLLBACK
        assert not report.intent_found and recovered is None

    @pytest.mark.parametrize("forge", ["foreign-log", "rotation-intent", "v2"])
    def test_foreign_intent_is_tamper(self, forge):
        libseal, blob, (start, end) = self.gap_of_one()
        key, schema = libseal.signing_key, libseal.ssm.schema_sql
        content = blob[start + 9 : end - 32]  # the genuine record's content
        mac_key = intent_key(key.d)
        record = {
            "foreign-log": lambda: seal_record(
                mac_key, record_genesis(mac_key, "another-log", schema),
                INTENT_RECORD, content,
            )[0],
            "rotation-intent": lambda: frame(
                INTENT_RECORD + RotationIntent.seal(key, "libseal-log", 1, 2, "x").encode()
            ),
            "v2": lambda: V2_IMAGE[record_spans(V2_IMAGE)[-1][0] :],
        }[forge]()
        recovered, report = restart(libseal, blob[:start] + record)
        assert report.outcome is TAMPER, report.describe()
        assert not report.intent_found and recovered is None


class TestSignedHeadFields:
    """The head's integers are signed as 8-byte words; a value that is no
    such word is malformed input, classified — not an exception."""

    @pytest.mark.parametrize(
        "field,value",
        [("counter", "7"), ("counter", -1), ("counter", 2**70),
         ("count", 1.5), ("count", None)],
    )
    def test_malformed_field_is_classified(self, sealed, field, value):
        libseal, _, current = sealed
        recovered, report = restart(
            libseal, edited(libseal, current, setitem(["head", field], value))
        )
        assert report.outcome is TAMPER
        assert "64-bit" in report.detail
        assert recovered is None

    def test_boolean_counter_is_not_an_integer(self, sealed):
        libseal, _, current = sealed
        blob = edited(libseal, current, setitem(["head", "counter"], True))
        report = restart(libseal, blob)[1]
        assert report.outcome is TAMPER


class TestStoredSchemaIsNotExecuted:
    """Recovery runs the service's schema, never the copy in storage."""

    def test_rewritten_view_cannot_hide_a_violation(self):
        libseal = LibSeal(GitSSM(), storage=InMemoryStorage())
        workload = GitReplayWorkload(libseal, seed=7)
        workload.run(30)
        repo = workload.service.server.repository(workload.repo_names[0])
        repo.attack_delete_reference(repo.advertise_refs()[0][0])
        workload.fetch_once()
        assert libseal.check_invariants(force_full=True).header_value() == (
            "VIOLATIONS completeness=1"
        )
        # The provider neuters the branchcnt view the completeness
        # invariant reads, leaving payloads and signed head untouched —
        # even re-MAC'ing every record under the neutered schema.
        schema = libseal.ssm.schema_sql
        assert "WHERE u.type != 'delete'" in schema
        libseal.storage.save(
            edited(
                libseal,
                libseal.storage.load(),
                setitem(
                    ["schema"],
                    schema.replace(
                        "WHERE u.type != 'delete'", "WHERE 0 AND u.type != 'delete'"
                    ),
                ),
            )
        )
        recovered, report = LibSeal.recover(
            GitSSM(),
            libseal.storage,
            signing_key=libseal.signing_key,
            rote=libseal.rote,
        )
        assert recovered is None
        assert report.outcome is TAMPER
        assert report.detail == "audit log record MAC invalid"


class TestHarmlessEdits:
    def test_watermark_bookkeeping_cannot_rewind_the_clock(self, sealed):
        libseal, _, current = sealed
        recovered, report = restart(
            libseal,
            edited(libseal, current, setitem(["watermark_state", "latest_time"], -5)),
        )
        assert report.outcome is RecoveryOutcome.CLEAN_RESUME
        assert recovered.audit_log.latest_time == libseal.audit_log.latest_time
