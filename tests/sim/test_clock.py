"""One time source: SimClock and its Simulator-backed view.

The front end's deadlines and the discrete-event simulator must never
disagree about "now" — :class:`SimulatorClock` makes the event loop's
clock *be* the simulator's clock.
"""

import pytest

from repro.servers.connection import ConnectionLimits
from repro.servers.eventloop import EventLoop
from repro.sim import SimClock, SimulatorClock
from repro.sim.engine import Simulator


class TestSimClock:
    def test_starts_at_zero_and_accumulates(self):
        clock = SimClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == 2.0

    def test_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)


class TestSimulatorClock:
    def test_now_reads_the_simulator(self):
        sim = Simulator()
        clock = SimulatorClock(sim)
        assert clock.now() == sim.now == 0.0
        sim.run_until(3.0)
        assert clock.now() == 3.0

    def test_advance_runs_the_simulation(self):
        sim = Simulator()
        fired = []

        def process():
            yield 2.0  # sleep 2 sim-seconds
            fired.append(sim.now)

        sim.spawn(process())
        clock = SimulatorClock(sim)
        clock.advance(1.0)
        assert fired == []  # not due yet
        clock.advance(1.5)
        assert fired == [2.0]

    def test_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            SimulatorClock(Simulator()).advance(-1.0)

    def test_supervisor_deadlines_share_the_simulator_timeline(self):
        """A supervisor clocked by the simulator expires idle
        connections exactly when simulated processes observe the same
        instant — one totally-ordered notion of time."""
        sim = Simulator()
        clock = SimulatorClock(sim)
        sup = EventLoop(
            lambda req: None,
            limits=ConnectionLimits(idle_timeout_s=10.0),
            clock=clock,
        )
        cid = sup.open()
        clock.advance(8.0)
        assert sup.tick() == []  # 8s idle: still within budget
        clock.advance(4.0)
        assert sup.tick() == [cid]
        assert sim.now == 12.0
