"""End-to-end: the ``repro obs`` workload under an enabled plane.

A short git replay must produce a trace that covers every pipeline seam
the paper attributes cost to — handshake, record processing, audit
append/seal, ROTE rounds, invariant checking — with non-zero modelled
cycles, the counters must agree with the workload report, and every
pair must have been served by the production front end (the event loop).
"""

import pytest

from repro.core import LibSeal
from repro.obs import ObsConfig, hooks
from repro.obs import workload as obs_workload
from repro.obs.render import aggregate_spans, render_span_tree
from repro.obs.workload import WORKLOADS, run_workload

pytestmark = pytest.mark.obs

#: Seams that burn modelled CPU cycles inside the enclave.
CYCLE_SPANS = {
    "tls.handshake",
    "tls.record.read",
    "tls.record.write",
    "audit.pair",
    "audit.seal",
    "check.invariant",
}
#: Grouping spans (check.pass) and network waits (rote.*) carry no CPU
#: cycles of their own — each span owns only its cost, never a roll-up.
EXPECTED_SPANS = CYCLE_SPANS | {"check.pass", "rote.increment"}


def test_git_replay_traces_every_pipeline_seam():
    with hooks.observe(ObsConfig(ring_capacity=65536)) as plane:
        report = run_workload(
            "git", requests=40, check_interval=20, reconnect_every=10
        )
        names = {s.name for s in plane.tracer.spans()}
        assert EXPECTED_SPANS <= names
        assert any(n.startswith("sgx.ecall.") for n in names)

        # Cycle attribution is non-zero at every compute seam, and ROTE
        # spans report their quorum round-trip latency.
        by_name: dict[str, float] = {}
        for span in plane.tracer.spans():
            by_name[span.name] = by_name.get(span.name, 0.0) + span.cycles
        for name in CYCLE_SPANS:
            assert by_name[name] > 0, f"no cycles attributed to {name}"
        rote_spans = [
            s for s in plane.tracer.spans() if s.name == "rote.increment"
        ]
        assert rote_spans
        assert all("latency_ms" in s.attrs for s in rote_spans)

        # Counters agree with the run's own report.
        metrics = plane.metrics
        assert metrics.value("tls_handshakes_total") == float(report.handshakes)
        assert metrics.value("libseal_pairs_total") == float(report.pairs_logged)
        assert metrics.value("audit_seals_total") == float(report.epochs_sealed)
        assert report.checks_run > 0 and report.audit_rows > 0
        # Every pair went through the event loop, one connection per
        # handshake.
        assert metrics.value("frontend_requests_served_total") == float(
            report.pairs_pumped
        )
        assert metrics.value("frontend_connections_total") == float(
            report.handshakes
        )
        assert report.pairs_pumped == report.pairs_logged > 40

        # The aggregated tree nests records under their enclave entry.
        root = aggregate_spans(plane.tracer.spans())
        ecall_write = root.children["sgx.ecall.ssl_write"]
        assert "tls.record.write" in ecall_write.children
        assert "audit.pair" in ecall_write.children["tls.record.write"].children
        rendered = render_span_tree(plane.tracer)
        assert "audit.pair" in rendered and "Mcyc" in rendered


def test_workload_report_is_plane_independent():
    with hooks.observe():
        observed = run_workload("messaging", requests=20, check_interval=10)
    bare = run_workload("messaging", requests=20, check_interval=10)
    assert observed == bare


def test_all_workload_names_resolve():
    assert set(WORKLOADS) == {"git", "owncloud", "dropbox", "messaging"}
    with pytest.raises(ValueError):
        run_workload("apache")


def test_pump_rejects_nonpositive_reconnect():
    with pytest.raises(ValueError):
        run_workload("git", requests=5, reconnect_every=0)


def test_run_releases_every_connection(monkeypatch):
    """Closing each connection through the loop releases the logger's
    pairing state: nothing is left behind after a run."""
    built: list[LibSeal] = []

    class Recorded(LibSeal):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(obs_workload, "LibSeal", Recorded)
    report = run_workload("git", requests=60, reconnect_every=10)
    assert report.handshakes == 7  # two set-up pushes + 60 ops, 10 a connection
    assert len(built) == 1
    assert built[0].logger._connections == {}
