"""The crash-at-every-checkpoint matrix for every ``CheckpointedWal`` protocol.

One parametrised test, defined here once: crash at checkpoint ``step`` of
a change, (optionally keep working against the half-done change), replay
the surviving WAL entry, check convergence. A protocol contributes a
:class:`WalCase` — how to build its stack, start its change and judge
convergence — and instantiates the matrix in its own test class, so the
checkpoint count always comes from the protocol's step table.
"""

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.audit.wal import CheckpointedWal
from repro.faults import hooks as _faults
from repro.faults.plan import FaultEvent, FaultPlan, InjectedCrash


def crash_at(coordinator: CheckpointedWal, step: int, change: Callable[[], Any]):
    """Run ``change`` with a crash injected at its ``step``-th checkpoint."""
    plan = FaultPlan(
        [FaultEvent(coordinator.FAULT_SITE, "crash", at=step)],
        scenario="wal-crash-test",
    )
    with _faults.inject(plan):
        with pytest.raises(InjectedCrash):
            change()
    assert coordinator.pending()  # the WAL entry survived the crash


@dataclass(frozen=True)
class WalCase:
    """One protocol's row of the crash matrix."""

    coordinator_type: type[CheckpointedWal]
    #: Build a fresh stack with some history behind it.
    build: Callable[[], Any]
    #: The stack's coordinator instance.
    coordinator: Callable[[Any], CheckpointedWal]
    #: Start the change (the call the crash interrupts).
    start: Callable[[Any], Any]
    #: The protocol's own convergence oracle.
    assert_converged: Callable[[Any, Any], None]
    #: What the service keeps doing between the crash and the replay.
    while_crashed: Callable[[Any], None] = lambda stack: None


def crash_matrix(case: WalCase):
    """The parametrised test for ``case``; assign it in a test class."""

    @pytest.mark.parametrize(
        "step", range(1, case.coordinator_type.checkpoints() + 1)
    )
    def test_crash_then_resume_converges(self, step):
        stack = case.build()
        coordinator = case.coordinator(stack)
        crash_at(coordinator, step, lambda: case.start(stack))
        case.while_crashed(stack)
        report = coordinator.resume()
        assert report is not None
        assert report.resumed
        case.assert_converged(stack, report)
        assert not coordinator.pending()
        assert coordinator.resume() is None  # nothing left to replay

    return test_crash_then_resume_converges
