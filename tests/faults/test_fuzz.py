"""Seeded protocol-fuzzing harness: determinism and the typed-error contract.

Marked ``fuzz`` so CI can run a fixed-seed smoke subset; scale the case
count up locally with ``REPRO_FUZZ_CASES``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.faults.fuzz import (
    ALLOWED_ERRORS,
    FuzzReport,
    fuzz_http_layer,
    fuzz_service_layer,
    fuzz_tls_layer,
    run_fuzz,
)

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "150"))

pytestmark = pytest.mark.fuzz


#: Outcome-key streams recorded at the last commit that had two
#: connection drivers (the externally-pumped supervisor and the event
#: loop), where both produced exactly these.
GOLDEN_STREAMS = json.loads(
    Path(__file__).with_name("golden_fuzz_streams.json").read_text()
)


def _outcome_key(outcome):
    return (outcome.case, outcome.op, outcome.result, outcome.error)


def _golden_keys(layer):
    return [tuple(key) for key in GOLDEN_STREAMS[layer]["outcomes"]]


class TestDeterminism:
    def test_same_seed_same_outcomes_http(self):
        a = fuzz_http_layer(seed=11, cases=60)
        b = fuzz_http_layer(seed=11, cases=60)
        assert [_outcome_key(o) for o in a.outcomes] == [
            _outcome_key(o) for o in b.outcomes
        ]

    def test_same_seed_same_outcomes_tls(self):
        a = fuzz_tls_layer(seed=11, cases=40)
        b = fuzz_tls_layer(seed=11, cases=40)
        assert [_outcome_key(o) for o in a.outcomes] == [
            _outcome_key(o) for o in b.outcomes
        ]

    def test_different_seeds_diverge(self):
        a = fuzz_http_layer(seed=1, cases=60)
        b = fuzz_http_layer(seed=2, cases=60)
        assert [_outcome_key(o) for o in a.outcomes] != [
            _outcome_key(o) for o in b.outcomes
        ]


class TestTypedErrorContract:
    def test_tls_layer_contract_holds(self):
        report = fuzz_tls_layer(seed=0, cases=CASES)
        assert report.ok, report.describe()
        assert report.cases == CASES
        # Mutations genuinely bit: most hostile streams must abort.
        counts = report.counts()
        assert counts.get("aborted", 0) > 0

    def test_http_layer_contract_holds(self):
        report = fuzz_http_layer(seed=0, cases=CASES)
        assert report.ok, report.describe()
        counts = report.counts()
        assert counts.get("aborted", 0) > 0
        assert counts.get("served", 0) > 0  # canary traffic kept flowing

    def test_service_layer_contract_and_audit_log_verifies(self):
        report = fuzz_service_layer(seed=0, cases=max(40, CASES // 4),
                                    services=["git"])
        assert report.ok, report.describe()
        assert any("pairs_logged" in note for note in report.notes)

    def test_errors_are_typed(self):
        report = fuzz_http_layer(seed=5, cases=80)
        allowed = tuple(cls.__name__ for cls in ALLOWED_ERRORS)
        for outcome in report.outcomes:
            if outcome.error:
                assert outcome.error.startswith(allowed), outcome


class TestEventLoopDriver:
    """The event loop is the only connection driver, so what used to be
    "both drivers agree" is now "the loop still produces the stream both
    drivers produced": any divergence from the recording is a change in
    front-end semantics, not flakiness."""

    def test_http_outcomes_identical_across_drivers(self):
        golden = GOLDEN_STREAMS["http"]
        report = fuzz_http_layer(seed=golden["seed"], cases=golden["cases"])
        assert [_outcome_key(o) for o in report.outcomes] == _golden_keys("http")

    def test_tls_outcomes_identical_across_drivers(self):
        golden = GOLDEN_STREAMS["tls"]
        report = fuzz_tls_layer(seed=golden["seed"], cases=golden["cases"])
        assert [_outcome_key(o) for o in report.outcomes] == _golden_keys("tls")

    def test_http_contract_holds_through_eventloop(self):
        report = fuzz_http_layer(seed=1, cases=CASES)
        assert report.ok, report.describe()
        counts = report.counts()
        assert counts.get("aborted", 0) > 0
        assert counts.get("served", 0) > 0

    def test_service_layer_audit_verifies_through_eventloop(self):
        # Every service, not just git: four deployments' audit logs must
        # each verify as a consistent prefix after hostile payloads.
        report = fuzz_service_layer(seed=1, cases=max(40, CASES // 4))
        assert report.ok, report.describe()
        assert sum("pairs_logged" in note for note in report.notes) == 4

    def test_run_fuzz_threads_driver_through_all_layers(self):
        reports = run_fuzz(seed=3, cases_per_layer=20)
        assert [r.layer for r in reports] == ["http", "service", "tls"]
        assert all(r.ok for r in reports)


class TestRunner:
    def test_run_fuzz_covers_requested_layers(self):
        reports = run_fuzz(seed=3, cases_per_layer=40, layers=["tls", "http"])
        assert [r.layer for r in reports] == ["tls", "http"]
        assert all(isinstance(r, FuzzReport) and r.ok for r in reports)

    def test_describe_names_layer_and_seed(self):
        report = fuzz_http_layer(seed=9, cases=30)
        text = report.describe()
        assert "[http]" in text and "seed=9" in text
