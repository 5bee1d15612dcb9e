"""The async front-end core: one scheduler, 100k+ live connections.

LibSEAL's front end (§4.3) keeps user-level lthreads resident inside the
enclave and multiplexes every client connection over them: a connection
never owns an OS thread, it owns a *task* whose TLS handshake, HTTP parse,
handler dispatch and audit append are cooperative scheduler slices. This
module is that architecture over the per-connection state machine
(:mod:`repro.servers.connection`):

- :class:`EventLoop` is the one owner of the table of live connections:
  it opens, accounts, closes and deadline-expires them, and runs one
  generator-based :class:`~repro.lthreads.LThreadTask` per live
  connection on a single :class:`~repro.lthreads.LThreadScheduler`
  (``allow_growth`` lets the task pool stretch to the connection count;
  worker slots still bound concurrency, which is what produces the
  saturation knee in ``benchmarks/bench_saturation.py``);
- a connection's driver yields :class:`ReadWait` to park until client
  bytes arrive, :class:`Reschedule` to split TLS decryption and HTTP
  dispatch into separate slices (FIFO fairness applies *between
  phases*, so one connection's heavy dispatch cannot monopolise a
  worker through its neighbour's handshake), and — when an
  :class:`~repro.asynccalls.AsyncCallRuntime` is attached — an
  :class:`~repro.asynccalls.OcallRequest` that models the audit-log
  append leaving the enclave through the async slot protocol;
- a violation tears down exactly one connection: the driver catches
  exactly :data:`~repro.servers.connection.VIOLATION_ERRORS`, aborts via
  :meth:`~repro.servers.connection.ServerConnection.abort`, and the loop
  retires it from the table and counts it in :class:`EventLoopStats`;
- a deep copy of a loop is an independent loop over copies of its
  connections (a fresh driver per live one): the fuzzing harness revives
  an established TLS connection that way instead of handshaking again;
- aborting or deadline-expiring a connection whose task is parked
  *reaps the task* through :meth:`~repro.lthreads.LThreadScheduler.cancel`
  (closing the generator, returning the slot), so 100k churned
  connections cannot leak 100k parked tasks.

The loop is the only thing that moves client bytes, and callers reach it
two ways:

- **closed-loop**: :meth:`EventLoop.feed` delivers one chunk, pumps the
  scheduler to quiescence and returns the chunk's
  :class:`~repro.servers.connection.FeedResult` (tests, the fuzzing
  harness, the wall-clock benchmark);
- **open-loop**: :meth:`deliver` only enqueues bytes and wakes the
  parked task; the caller (``ServerMachine.run_frontend``) invokes
  :meth:`step` slice by slice and converts executed slices into
  modelled time, so queueing delay under overload is *emergent* from
  genuine ready-queue backlog.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.asynccalls import AsyncCallRuntime, OcallRequest
from repro.errors import SimulationError
from repro.lthreads import LThreadScheduler, LThreadTask, TaskState
from repro.obs import hooks as _obs
from repro.servers.connection import (
    VIOLATION_ERRORS,
    ConnectionAborted,
    ConnectionLimits,
    FeedResult,
    Handler,
    ServerConnection,
)
from repro.sim.clock import SimClock

#: Name of the async-ocall the driver issues after serving requests: the
#: audit-log append crossing the enclave boundary. Auto-registered on the
#: attached runtime when absent.
AUDIT_FLUSH_OCALL = "frontend.audit_flush"

#: Buckets for the per-connection slice-count histogram (slices are small
#: integers, not seconds — the default buckets would collapse them).
_STEP_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class ReadWait:
    """Yielded by a connection driver to park until client bytes arrive."""

    conn_id: int


@dataclass(frozen=True)
class Reschedule:
    """Yielded to end the current slice and requeue at the FIFO tail.

    This is the slice boundary between TLS decryption and HTTP dispatch:
    the task goes back through the ready queue, so every other runnable
    connection gets its turn in between.
    """

    conn_id: int


@dataclass
class EventLoopStats:
    """Everything the loop counts: the connection table's accounting and
    the scheduler's."""

    opened: int = 0
    closed: int = 0  # graceful closes
    aborted: int = 0  # teardowns for a violation (framing, TLS, deadline)
    requests_served: int = 0
    bad_requests: int = 0
    violations: list[tuple[int, str]] = field(default_factory=list)
    slices: int = 0  # scheduler slices executed
    feeds: int = 0  # chunks fully processed by drivers
    parked_waits: int = 0  # times a driver parked on an empty inbox
    resumed_reads: int = 0  # parked reads resumed with bytes
    audit_ocalls: int = 0  # audit appends issued through the slot runtime
    reaped_tasks: int = 0  # parked/ready tasks cancelled at teardown
    peak_ready_depth: int = 0  # run-queue high-water mark
    peak_concurrent: int = 0  # live-connection high-water mark
    per_conn_steps: dict[int, int] = field(default_factory=dict)


#: Task slots the scheduler starts with per worker; it grows on demand
#: up to ``max_tasks``.
INITIAL_TASKS_PER_WORKER = 48


class EventLoop:
    """The table of live connections, each run as a cooperative lthread
    task. One hostile connection can at worst abort itself."""

    def __init__(
        self,
        handler: Handler,
        api: Any = None,
        ssl_ctx: Any = None,
        limits: ConnectionLimits | None = None,
        clock: SimClock | None = None,
        on_close: Callable[[int], None] | None = None,
        num_workers: int = 3,
        max_tasks: int = 2_000_000,
        async_runtime: AsyncCallRuntime | None = None,
        on_result: Callable[[int, FeedResult], None] | None = None,
        audit_flush: Callable[[], Any] | None = None,
    ):
        if (api is None) != (ssl_ctx is None):
            raise ValueError("TLS mode needs both api and ssl_ctx (or neither)")
        self.handler = handler
        self.api = api
        self.ssl_ctx = ssl_ctx
        self.limits = limits or ConnectionLimits()
        self.clock = clock or SimClock()
        self.on_close = on_close
        self.connections: dict[int, ServerConnection] = {}
        self._next_id = 1
        self.scheduler = LThreadScheduler(
            num_tasks=num_workers * INITIAL_TASKS_PER_WORKER,
            num_workers=num_workers,
            allow_growth=True,
            max_tasks=max_tasks,
        )
        self.async_runtime = async_runtime
        if async_runtime is not None and (
            AUDIT_FLUSH_OCALL not in async_runtime._ocalls
        ):
            async_runtime.register_ocall(
                AUDIT_FLUSH_OCALL, lambda conn_id, served: served
            )
        self.on_result = on_result
        # Invoked when an audit-flush ocall completes: the untrusted side
        # has taken the appended records, which is the point where a
        # group-sealing LibSeal closes its deferral window (wire
        # ``libseal.flush_pending`` here) so staged pairs never wait on
        # further traffic for their acknowledging seal.
        self.audit_flush = audit_flush
        self.stats = EventLoopStats()
        self._tasks: dict[int, LThreadTask] = {}
        self._inboxes: dict[int, deque[bytes]] = {}
        self._pending_results: dict[int, list[FeedResult]] = {}
        self._collect: set[int] = set()
        self._obs_slices_reported = 0
        self._obs_cancels_reported = 0

    def __deepcopy__(self, memo: dict) -> "EventLoop":
        """An independent loop over deep copies of this loop's clock, SSL
        context, connections and stats; handler, TLS API, callbacks and
        async runtime are shared. Driver generators cannot be copied, so
        every live connection gets a fresh driver that parks for bytes
        exactly as the original's did (the fuzzing harness revives an
        established TLS connection this way, without a handshake)."""
        for shared in (self.handler, self.api, self.on_close, self.on_result,
                       self.audit_flush, self.async_runtime):
            memo.setdefault(id(shared), shared)
        clone = EventLoop(
            self.handler,
            api=self.api,
            ssl_ctx=copy.deepcopy(self.ssl_ctx, memo),
            limits=self.limits,
            clock=copy.deepcopy(self.clock, memo),
            on_close=self.on_close,
            num_workers=self.scheduler.num_workers,
            max_tasks=self.scheduler.max_tasks,
            async_runtime=self.async_runtime,
            on_result=self.on_result,
            audit_flush=self.audit_flush,
        )
        memo[id(self)] = clone
        clone.connections = copy.deepcopy(self.connections, memo)
        clone.stats = copy.deepcopy(self.stats, memo)
        clone._next_id = self._next_id
        for conn in clone.connections.values():
            clone._spawn_driver(conn)
        return clone

    # ------------------------------------------------------------------
    # The connection table
    # ------------------------------------------------------------------

    @property
    def live_connections(self) -> list[int]:
        return sorted(self.connections)

    def connection(self, conn_id: int) -> ServerConnection:
        conn = self.connections.get(conn_id)
        if conn is None:
            raise ConnectionAborted(f"unknown connection {conn_id}")
        return conn

    def open(self) -> int:
        """Accept a connection and spawn its driver task (READY, not yet
        run — its first slice parks it on :class:`ReadWait`)."""
        conn_id = self._next_id
        self._next_id += 1
        conn = self.connections[conn_id] = ServerConnection(
            conn_id,
            self.handler,
            self.limits,
            self.clock,
            api=self.api,
            ssl_ctx=self.ssl_ctx,
            on_close=self.on_close,
        )
        self.stats.opened += 1
        if _obs.ON:
            _obs.active().metrics.counter(
                "frontend_connections_total", "Connections accepted"
            ).inc()
        self._spawn_driver(conn)
        live = len(self.connections)
        if live > self.stats.peak_concurrent:
            self.stats.peak_concurrent = live
        return conn_id

    def feed(self, conn_id: int, data: bytes) -> FeedResult:
        """Deliver one chunk and pump until the connection's driver has
        fully processed it; returns that chunk's result. Never raises
        for malformed input — a violation aborts *this* connection and
        is reported in the :class:`FeedResult`; feeding a connection
        already torn down raises ``ConnectionAborted``.
        """
        conn = self.connection(conn_id)
        self.deliver(conn_id, data)
        self._collect.add(conn_id)
        try:
            self.pump()
        finally:
            self._collect.discard(conn_id)
        outcomes = self._pending_results.pop(conn_id, [])
        if not outcomes:
            return conn.closed_result()
        result = outcomes[0]
        for extra in outcomes[1:]:  # pragma: no cover - one chunk, one result
            result.output += extra.output
            result.served += extra.served
            result.bad_requests += extra.bad_requests
            result.aborted = result.aborted or extra.aborted
            result.violation = result.violation or extra.violation
        return result

    def close(self, conn_id: int) -> None:
        """Graceful close; reaps the connection's parked task."""
        conn = self.connections.pop(conn_id, None)
        if conn is not None:
            conn.close()
            self.stats.closed += 1
        self._reap(conn_id)

    def tick(self) -> list[int]:
        """Enforce deadlines against the clock now; every expired
        connection is aborted and its task reaped. Returns their ids."""
        now = self.clock.now()
        expired: list[int] = []
        for conn in list(self.connections.values()):
            violation = conn.deadline_violation(now)
            if violation is not None:
                conn.abort(violation)
                self._note_abort(conn)
                self._reap(conn.conn_id)
                expired.append(conn.conn_id)
        return expired

    def _note_abort(self, conn: ServerConnection) -> None:
        """Retire an aborted connection, once: it is still in the table
        exactly when its abort has not been noted yet."""
        if self.connections.pop(conn.conn_id, None) is None:
            return
        self.stats.aborted += 1
        self.stats.violations.append((conn.conn_id, repr(conn.violation)))
        if _obs.ON:
            _obs.active().metrics.counter(
                "frontend_connections_aborted_total",
                "Connections torn down for protocol violations",
                reason=type(conn.violation).__name__,
            ).inc()

    # ------------------------------------------------------------------
    # Open-loop interface (ServerMachine.run_frontend)
    # ------------------------------------------------------------------

    def deliver(self, conn_id: int, data: bytes) -> None:
        """Enqueue client bytes and wake the parked driver — no pumping.

        The caller decides when slices run (:meth:`step` / :meth:`pump`),
        so arrival and service are decoupled: under overload the bytes
        sit in the inbox and the task sits in the ready queue, which is
        where saturation-knee queueing delay comes from.
        """
        self.connection(conn_id)  # raises if torn down
        task = self._tasks.get(conn_id)
        if task is None:  # pragma: no cover - defensive
            raise SimulationError(f"connection {conn_id} has no driver task")
        self._inboxes[conn_id].append(data)
        if task.state is TaskState.WAITING and isinstance(
            task.pending_yield, ReadWait
        ):
            self._service(task)

    def step(self) -> bool:
        """Run one scheduler slice and service its yield; False if idle."""
        if not self.scheduler.step():
            return False
        self._after_slice()
        return True

    def pump(self) -> int:
        """Run slices until no task is runnable; returns slices executed.

        Quiescence means every live driver is parked on a
        :class:`ReadWait` with an empty inbox (":class:`Reschedule`" and
        ocall yields are serviced immediately, so they cannot pin the
        loop).
        """
        executed = 0
        while self.scheduler.step():
            self._after_slice()
            executed += 1
        self.sample_obs()
        return executed

    # ------------------------------------------------------------------
    # Driver machinery
    # ------------------------------------------------------------------

    def _spawn_driver(self, conn: ServerConnection) -> None:
        conn_id = conn.conn_id
        task = self.scheduler.spawn(self._driver(conn_id, conn))
        task.context["conn_id"] = conn_id
        task.context["steps_base"] = task.steps_executed
        self._tasks[conn_id] = task
        self._inboxes[conn_id] = deque()

    def _driver(
        self, conn_id: int, conn: ServerConnection
    ) -> Generator[Any, Any, None]:
        """One connection's lifetime as cooperative slices.

        Slice 1: park for bytes; ingress + TLS step on wake.
        Slice 2: HTTP parse + handler dispatch (only when plaintext
        surfaced — handshake flights finish in one slice).
        Slice 3 (enclave mode): audit append as an async-ocall.
        Violations tear down exactly this connection.
        """
        while not (conn.aborted or conn.closed):
            chunk = yield ReadWait(conn_id)
            data = conn.ingress(chunk)
            result = FeedResult()
            try:
                plaintext = conn.decrypt(data)
                if plaintext or conn.api is None:
                    yield Reschedule(conn_id)  # dispatch runs on its own turn
                    conn.dispatch(plaintext, result)
            except VIOLATION_ERRORS as exc:
                conn.abort(exc)
                result.aborted = True
                result.violation = exc
            else:
                if self.async_runtime is not None and (
                    result.served or result.bad_requests
                ):
                    self.stats.audit_ocalls += 1
                    yield OcallRequest(
                        AUDIT_FLUSH_OCALL, (conn_id, result.served)
                    )
            result.output += conn.drain_output()
            self._finish_feed(conn_id, conn, result)
            if result.aborted:
                break
        self._detach(conn_id)

    def _service(self, task: LThreadTask) -> None:
        """Handle what a parked task yielded (resume now or leave parked)."""
        request = task.pending_yield
        if isinstance(request, ReadWait):
            inbox = self._inboxes.get(request.conn_id)
            if inbox:
                task.pending_yield = None
                self.stats.resumed_reads += 1
                self.scheduler.resume(task, inbox.popleft())
            else:
                self.stats.parked_waits += 1  # stays WAITING
        elif isinstance(request, Reschedule):
            task.pending_yield = None
            self.scheduler.resume(task, True)
        elif isinstance(request, OcallRequest):
            if self.async_runtime is None:  # pragma: no cover - defensive
                raise SimulationError(
                    "driver issued an ocall with no async runtime attached"
                )
            reply = self.async_runtime.execute_ocall(task.task_id, request)
            if request.name == AUDIT_FLUSH_OCALL and self.audit_flush is not None:
                self.audit_flush()
            task.pending_yield = None
            self.scheduler.resume(task, reply if reply is not None else True)
        else:  # pragma: no cover - defensive
            raise SimulationError(
                f"connection driver yielded unexpected {request!r}"
            )

    def _after_slice(self) -> None:
        self.stats.slices += 1
        depth = self.scheduler.ready_depth()
        if depth > self.stats.peak_ready_depth:
            self.stats.peak_ready_depth = depth
        task = self.scheduler.last_ran
        if task is not None and task.state is TaskState.WAITING:
            self._service(task)

    def _finish_feed(
        self, conn_id: int, conn: ServerConnection, result: FeedResult
    ) -> None:
        self.stats.feeds += 1
        self.stats.requests_served += result.served
        self.stats.bad_requests += result.bad_requests
        if _obs.ON:
            metrics = _obs.active().metrics
            if result.served:
                metrics.counter(
                    "frontend_requests_served_total", "Requests served"
                ).inc(result.served)
            if result.bad_requests:
                metrics.counter(
                    "frontend_bad_requests_total", "Malformed requests rejected"
                ).inc(result.bad_requests)
        if result.aborted and conn.violation is result.violation:
            self._note_abort(conn)
        if conn_id in self._collect:
            self._pending_results.setdefault(conn_id, []).append(result)
        if self.on_result is not None:
            self.on_result(conn_id, result)

    def _detach(self, conn_id: int) -> None:
        """Driver ran to completion: drop loop-side state (the task slot
        returns to the pool via the scheduler's normal StopIteration)."""
        task = self._tasks.pop(conn_id, None)
        self._inboxes.pop(conn_id, None)
        if task is not None:
            self._record_steps(conn_id, task)

    def _reap(self, conn_id: int) -> None:
        """Cancel the connection's task wherever it is parked."""
        task = self._tasks.pop(conn_id, None)
        self._inboxes.pop(conn_id, None)
        self._pending_results.pop(conn_id, None)
        self._collect.discard(conn_id)
        if task is not None:
            self._record_steps(conn_id, task)
            if task.generator is not None:
                self.scheduler.cancel(task)
                self.stats.reaped_tasks += 1

    def _record_steps(self, conn_id: int, task: LThreadTask) -> None:
        steps = task.steps_executed - task.context.get("steps_base", 0)
        self.stats.per_conn_steps[conn_id] = steps
        if _obs.ON:
            _obs.active().metrics.histogram(
                "frontend_connection_steps",
                "Scheduler slices one connection consumed over its lifetime",
                buckets=_STEP_BUCKETS,
            ).observe(steps)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def worker_occupancy(self) -> float:
        """Demand over capacity: fraction of worker slots the current
        runnable backlog would keep busy (1.0 == saturated)."""
        demand = self.scheduler.ready_depth() + self.scheduler.running_count()
        return min(1.0, demand / self.scheduler.num_workers)

    def sample_obs(self) -> None:
        """Publish scheduler gauges/counters (pump boundaries, never per
        slice — the obs plane must stay cheap-by-default)."""
        if not _obs.ON:
            return
        metrics = _obs.active().metrics
        metrics.gauge(
            "lthread_ready_queue_depth", "READY tasks queued for a worker slot"
        ).set(self.scheduler.ready_depth())
        metrics.gauge(
            "lthread_ready_depth_peak", "Run-queue depth high-water mark"
        ).set(self.stats.peak_ready_depth)
        metrics.gauge(
            "lthread_worker_slots", "Simulated enclave worker slots"
        ).set(self.scheduler.num_workers)
        metrics.gauge(
            "lthread_worker_occupancy",
            "Runnable demand over worker capacity (1.0 == saturated)",
        ).set(self.worker_occupancy())
        metrics.gauge(
            "frontend_parked_connections", "Driver tasks parked on reads"
        ).set(self.scheduler.waiting_count())
        metrics.gauge(
            "frontend_live_connections", "Connections currently supervised"
        ).set(len(self.connections))
        metrics.counter(
            "lthread_slices_total", "Scheduler slices executed"
        ).inc(self.stats.slices - self._obs_slices_reported)
        self._obs_slices_reported = self.stats.slices
        metrics.counter(
            "lthread_cancellations_total", "Tasks reaped by cancellation"
        ).inc(self.scheduler.cancellations - self._obs_cancels_reported)
        self._obs_cancels_reported = self.scheduler.cancellations
        if self.async_runtime is not None:
            self.async_runtime.record_obs()
