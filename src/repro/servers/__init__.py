"""Server machine model and the client-facing front end.

:mod:`repro.servers.machine` executes :class:`~repro.sim.costs.RequestProfile`
request streams on a simulated 4-core server with closed-loop clients
(the per-figure experiment functions over it live in
:mod:`repro.bench.perf`); :mod:`repro.servers.connection` holds the
per-connection state machine, with bounded input paths and
per-connection fault isolation; :mod:`repro.servers.eventloop` owns the
table of live connections and is the one pump: it runs every connection
as a cooperative lthread task on one scheduler (the §4.3 async front-end
core, 100k+ concurrent connections). A deep copy of a loop stands in for
handing a live table to a second loop;
:mod:`repro.servers.client` is the client end of one loop connection;
:mod:`repro.servers.attest` wraps a handler with the ``GET /attest``
monitoring endpoint.
"""

from repro.servers.attest import AttestMonitor
from repro.servers.client import LoopClient
from repro.servers.connection import (
    BufferBoundViolation,
    ConnectionAborted,
    ConnectionLimits,
    DeadlineViolation,
    FeedResult,
    ServerConnection,
)
from repro.servers.eventloop import (
    AUDIT_FLUSH_OCALL,
    EventLoop,
    EventLoopStats,
    ReadWait,
    Reschedule,
)
from repro.servers.machine import (
    FrontendRunResult,
    MachineConfig,
    RunResult,
    ServerMachine,
)

__all__ = [
    "AUDIT_FLUSH_OCALL",
    "AttestMonitor",
    "BufferBoundViolation",
    "ConnectionAborted",
    "ConnectionLimits",
    "DeadlineViolation",
    "EventLoop",
    "EventLoopStats",
    "FeedResult",
    "FrontendRunResult",
    "LoopClient",
    "MachineConfig",
    "ReadWait",
    "Reschedule",
    "RunResult",
    "ServerConnection",
    "ServerMachine",
]
