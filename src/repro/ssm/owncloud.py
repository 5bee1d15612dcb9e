"""The ownCloud SSM.

§6.2 describes the invariants in prose (the exact SQL lives in a technical
report we do not have), so the schema and SQL here are our reconstruction,
faithful to the stated properties:

1. *snapshot soundness* — "snapshots sent to new clients match the latest
   snapshot";
2. *update soundness* — every update the service distributes must be one
   it actually received (same document, sequence number and payload);
3. *update completeness* (the prefix property) — "the aggregate history of
   synchronised updates between the service and a client corresponds to a
   prefix of the aggregate history of updates the service received": once
   the service has delivered up to sequence ``s`` to a member, every
   other-authored update with sequence ≤ ``s`` (after the member's join
   baseline) must have been delivered to that member.

Log schema — one relation recording the JSON updates synchronised between
the service and its clients, as the paper states:

``docupdates(time, doc, member, seq, direction, kind, payload)`` where
``direction`` is ``c2s``/``s2c`` (member = author for ``c2s``, recipient
for ``s2c``) and ``kind`` is ``op``/``snapshot``/``join``.
"""

from __future__ import annotations

import json

from repro.http import HttpRequest, HttpResponse
from repro.services.owncloud.document import EditOp
from repro.ssm.base import LogEmitter, ServiceSpecificModule

OWNCLOUD_SCHEMA = """
CREATE TABLE docupdates(
    time INTEGER, doc TEXT, member TEXT, seq INTEGER,
    direction TEXT, kind TEXT, payload TEXT
);
"""

SNAPSHOT_SOUNDNESS = """
SELECT s.time, s.doc, s.member FROM docupdates s
WHERE s.kind = 'snapshot' AND s.direction = 's2c' AND s.payload != (
  SELECT c.payload FROM docupdates c
  WHERE c.kind = 'snapshot' AND c.direction = 'c2s'
    AND c.doc = s.doc AND c.time < s.time
  ORDER BY c.time DESC LIMIT 1)
"""

UPDATE_SOUNDNESS = """
SELECT s.time, s.doc, s.seq FROM docupdates s
WHERE s.kind = 'op' AND s.direction = 's2c' AND NOT EXISTS (
  SELECT 1 FROM docupdates c
  WHERE c.kind = 'op' AND c.direction = 'c2s'
    AND c.doc = s.doc AND c.seq = s.seq AND c.payload = s.payload
    AND c.time <= s.time)
"""

UPDATE_COMPLETENESS = """
SELECT d.doc, d.member, c.seq FROM
  (SELECT doc, member, MAX(seq) AS maxseq FROM docupdates
   WHERE direction = 's2c' AND kind = 'op' GROUP BY doc, member) d
JOIN docupdates c
  ON c.doc = d.doc AND c.direction = 'c2s' AND c.kind = 'op'
  AND c.seq <= d.maxseq AND c.member != d.member
WHERE c.seq > (SELECT MAX(j.seq) FROM docupdates j
               WHERE j.kind = 'join' AND j.doc = d.doc
               AND j.member = d.member)
  AND NOT EXISTS (SELECT 1 FROM docupdates x
                  WHERE x.direction = 's2c' AND x.kind = 'op'
                  AND x.doc = d.doc AND x.member = d.member
                  AND x.seq = c.seq)
"""

# Trimming (§6.5: the log is proportional to the *last session's*
# activity). What may go is decided per kind of row, by what a later
# honest response could still refer to:
#
# - an op (either direction) once no honest response can deliver it
#   again: its sequence number is at or below both the document's latest
#   client snapshot (joins replay only what follows the snapshot) and
#   every member's progress — the highest sequence the member has sent,
#   been sent, or joined at (syncs replay only what follows that). Ops
#   are cut by *sequence*, never by time: a delivery logged after the
#   snapshot may echo an op logged before it, and update soundness needs
#   both or neither;
# - a snapshot row older than the document's latest client snapshot;
# - a join row once the same member has joined again. Each member's
#   latest join stays: it is the baseline update completeness compares
#   against, and without it the comparison is against NULL and checks
#   nothing.
TRIMMING = [
    """DELETE FROM docupdates WHERE kind = 'op'
  AND seq <= (
    SELECT c.seq FROM docupdates c
    WHERE c.doc = docupdates.doc AND c.kind = 'snapshot'
    AND c.direction = 'c2s' ORDER BY c.time DESC LIMIT 1)
  AND seq <= (
    SELECT MIN(p.progress) FROM (
      SELECT MAX(m.seq) AS progress FROM docupdates m
      WHERE m.doc = docupdates.doc AND m.kind IN ('op', 'join')
      GROUP BY m.member) p)""",
    """DELETE FROM docupdates WHERE kind = 'snapshot' AND time < (
  SELECT MAX(c.time) FROM docupdates c
  WHERE c.doc = docupdates.doc AND c.kind = 'snapshot'
  AND c.direction = 'c2s')""",
    """DELETE FROM docupdates WHERE kind = 'join' AND time < (
  SELECT MAX(j.time) FROM docupdates j
  WHERE j.doc = docupdates.doc AND j.kind = 'join'
  AND j.member = docupdates.member)""",
]


class OwnCloudSSM(ServiceSpecificModule):
    """Audits ownCloud Documents sync traffic for lost/corrupted edits."""

    name = "owncloud"

    @property
    def schema_sql(self) -> str:
        return OWNCLOUD_SCHEMA

    @property
    def invariants(self) -> dict[str, str]:
        return {
            "snapshot_soundness": SNAPSHOT_SOUNDNESS,
            "update_soundness": UPDATE_SOUNDNESS,
            "update_completeness": UPDATE_COMPLETENESS,
        }

    @property
    def trimming_queries(self) -> list[str]:
        return list(TRIMMING)

    def log(
        self,
        request: HttpRequest,
        response: HttpResponse,
        emit: LogEmitter,
        time: int,
    ) -> None:
        if response.status != 200:
            return
        segments = [s for s in request.path.split("/") if s]
        if len(segments) != 3 or segments[0] != "documents":
            return
        doc_id, action = segments[1], segments[2]
        try:
            req_body = json.loads(request.body.decode()) if request.body else {}
            rsp_body = json.loads(response.body.decode()) if response.body else {}
        except ValueError:
            return
        member = req_body.get("member", "")
        if action == "join":
            emit(
                "docupdates",
                (time, doc_id, member, rsp_body.get("snapshot_seq", 0),
                 "s2c", "join", ""),
            )
            emit(
                "docupdates",
                (time, doc_id, member, rsp_body.get("snapshot_seq", 0),
                 "s2c", "snapshot", rsp_body.get("snapshot", "")),
            )
            for op in rsp_body.get("ops", []):
                emit(
                    "docupdates",
                    (time, doc_id, member, op["seq"], "s2c", "op", op["payload"]),
                )
            return
        if action == "sync":
            accepted = rsp_body.get("accepted", [])
            client_ops = req_body.get("ops", [])
            for seq, op in zip(accepted, client_ops):
                # Canonicalise through EditOp so c2s and s2c payloads of
                # the same logical op are byte-identical.
                payload = EditOp.from_json(json.dumps(op)).to_json()
                emit(
                    "docupdates",
                    (time, doc_id, member, seq, "c2s", "op", payload),
                )
            for op in rsp_body.get("ops", []):
                emit(
                    "docupdates",
                    (time, doc_id, member, op["seq"], "s2c", "op", op["payload"]),
                )
            return
        if action == "leave":
            emit(
                "docupdates",
                (time, doc_id, member, req_body.get("seq", 0), "c2s",
                 "snapshot", req_body.get("snapshot", "")),
            )
