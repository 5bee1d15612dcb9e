"""The front end's time source and deadline type.

The connection-lifecycle scenarios live in
``tests/servers/test_eventloop.py`` (``TestFrontendParity``), against the
one :class:`EventLoop` that owns the connection table; what stays here is
the clock those deadlines are measured on and the violation they raise.
"""

import pytest

from repro.errors import ProtocolViolation
from repro.servers.connection import DeadlineViolation
from repro.sim.clock import SimClock


class TestSimClock:
    def test_rejects_negative_advance(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_deadline_violation_type(self):
        assert issubclass(DeadlineViolation, ProtocolViolation)
