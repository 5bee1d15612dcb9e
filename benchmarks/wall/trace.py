"""Timing spans recorded from outside the program.

The wall benchmark never edits ``src/``: a layer is timed by replacing
the attribute through which callers reach its entry point with a wrapper
that records ``[name, start_ns, end_ns, parent]`` and calls through.
:func:`installed` puts every wrapper in place and restores the original
attributes on exit, so the untraced pass runs the program's own
functions. Spans stay in memory; :func:`write_trace` dumps them when the
run ends.

A layer's *self time* is its span's duration minus the durations of its
direct child spans. Summed over every span that is exactly the time
covered by top-level spans, which is what ``closure_ratio`` compares
with the traced wall time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.audit import log as audit_log
from repro.audit import persistence, rote
from repro.core import libseal as core_libseal
from repro.core import logger as core_logger
from repro.crypto import aead, ec, ecdsa
from repro.enclave_tls import runtime as enclave_runtime
from repro.lthreads import scheduler
from repro.sealdb import engine
from repro.servers import connection as server_connection
from repro.servers import eventloop
from repro.services.dropbox import DropboxHttpService
from repro.services.git import GitHttpService
from repro.services.messaging import MessagingHttpService
from repro.sgx import interface as sgx_interface
from repro.shard import plane as shard_plane
from repro.shard import router as shard_router
from repro.ssm import DropboxSSM, GitSSM, MessagingSSM
from repro.tls import api as native_api
from repro.tls import record

#: Every span name the traced pass reports (31 layers).
LAYERS = (
    "client.tls",
    "backend.handle",
    "servers.eventloop",
    "lthreads.step",
    "enclave_tls.accept",
    "enclave_tls.read",
    "enclave_tls.write",
    "sgx.ecall",
    "tls.record",
    "crypto.aead",
    "crypto.ec.mul",
    "crypto.ecdsa.sign",
    "crypto.ecdsa.verify",
    "http.parse",
    "core.pair",
    "ssm.log",
    "audit.append",
    "sealdb.insert",
    "sealdb.select",
    "sealdb.delete",
    "core.checker.check",
    "core.checker.trim",
    "audit.seal_epoch",
    "audit.rote.increment",
    "audit.serialize",
    "audit.storage",
    "audit.recover",
    "audit.verify",
    "shard.plane.log_pair",
    "shard.router",
    "shard.plane.check",
)

NAME, START, END, PARENT = range(4)


class Tracer:
    """Collects spans while ``recording``; wrappers call through otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.recording = False
        self._stack: list[int] = []

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper around ``func`` that records one span per call."""
        tracer = self
        now = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return func(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            span = [name, now(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span[END] = now()
                stack.pop()

        return traced

    def wrap_by_kind(
        self, func: Callable[..., Any], kind_of: Callable[[Any], str | None]
    ) -> Callable[..., Any]:
        """Like :meth:`wrap`, but the span name comes from the first
        positional argument after ``self`` (``None`` = not a traced kind)."""
        tracer = self
        variants: dict[str, Callable[..., Any]] = {}

        @functools.wraps(func)
        def dispatch(owner: Any, subject: Any, *args: Any, **kwargs: Any) -> Any:
            name = kind_of(subject) if tracer.recording else None
            if name is None:
                return func(owner, subject, *args, **kwargs)
            traced = variants.get(name)
            if traced is None:
                traced = variants[name] = tracer.wrap(name, func)
            return traced(owner, subject, *args, **kwargs)

        return dispatch

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open; take() only between ops")
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> dict[str, tuple[int, int]]:
    """``{layer: (self_ns, calls)}`` over ``spans``.

    A span nested in another of the same name (a re-entrant layer) is
    handled like any other child: the outer span loses the inner span's
    duration, and both add their self time to the same layer.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_ns[parent] += span[END] - span[START]
    totals: dict[str, tuple[int, int]] = {}
    for index, span in enumerate(spans):
        own = span[END] - span[START] - child_ns[index]
        self_ns, calls = totals.get(span[NAME], (0, 0))
        totals[span[NAME]] = (self_ns + own, calls + 1)
    return totals


def inclusive_us_per_call(spans: list[list]) -> dict[str, float]:
    """Mean duration of each layer's outermost spans, children included."""
    totals: dict[str, tuple[int, int]] = {}
    for span in spans:
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent >= 0:
            continue  # nested in its own layer: the outer span covers it
        total, calls = totals.get(span[NAME], (0, 0))
        totals[span[NAME]] = (total + span[END] - span[START], calls + 1)
    return {name: total / calls / 1e3 for name, (total, calls) in totals.items()}


def covered_ns(spans: list[list]) -> int:
    """Time inside any top-level span (equals the sum of all self times)."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def write_trace(path: Path, spans: list[list], meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"meta": meta, "fields": ["name", "start_ns", "end_ns", "parent"],
           "spans": spans}
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, separators=(",", ":")))
    tmp.replace(path)


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------


def _sql_kind(sql: str) -> str | None:
    head = sql.lstrip()[:6].lower()
    return f"sealdb.{head}" if head in ("insert", "select", "delete") else None


def _ast_kind(statement: Any) -> str | None:
    head = type(statement).__name__.lower()
    return f"sealdb.{head}" if head in ("insert", "select", "delete") else None


def targets(tracer: Tracer) -> list[tuple[Any, str, Callable[..., Any]]]:
    """``(owner, attribute, wrapper)`` for every traced entry point.

    Module-level functions are wrapped at the modules that imported them
    by name (the import site is the attribute callers read).
    """
    plan: list[tuple[Any, str, str]] = []
    for name in ("SSL_connect", "SSL_write", "SSL_read"):
        plan.append((native_api, name, "client.tls"))
    for service in (GitHttpService, DropboxHttpService, MessagingHttpService):
        plan.append((service, "handle", "backend.handle"))
    for name in ("open", "feed", "close"):
        plan.append((eventloop.EventLoop, name, "servers.eventloop"))
    plan.append((scheduler.LThreadScheduler, "step", "lthreads.step"))
    plan.append((sgx_interface.EnclaveInterface, "ecall", "sgx.ecall"))
    for name in ("seal", "open"):
        plan.append((record.RecordLayer, name, "tls.record"))
        plan.append((aead.AEAD, name, "crypto.aead"))
    plan.append((ec.ECPoint, "__mul__", "crypto.ec.mul"))
    plan.append((ec.ECPoint, "__rmul__", "crypto.ec.mul"))
    plan.append((ecdsa.EcdsaPrivateKey, "sign", "crypto.ecdsa.sign"))
    plan.append((ecdsa.EcdsaPublicKey, "verify", "crypto.ecdsa.verify"))
    for module in (core_logger, server_connection):
        for name in ("extract_message", "parse_request", "parse_response"):
            if hasattr(module, name):
                plan.append((module, name, "http.parse"))
    for name in ("on_read", "on_write"):
        plan.append((core_logger.AuditLogger, name, "core.pair"))
    for ssm in (GitSSM, DropboxSSM, MessagingSSM):
        plan.append((ssm, "log", "ssm.log"))
    plan.append((audit_log.AuditLog, "append", "audit.append"))
    plan.append((audit_log.AuditLog, "seal_epoch", "audit.seal_epoch"))
    plan.append((audit_log.AuditLog, "serialize", "audit.serialize"))
    plan.append((audit_log.AuditLog, "verify", "audit.verify"))
    plan.append((core_libseal.LibSeal, "check_invariants", "core.checker.check"))
    plan.append((core_libseal.LibSeal, "trim", "core.checker.trim"))
    plan.append((rote.RoteCluster, "increment", "audit.rote.increment"))
    for storage in (persistence.LogStorage, persistence.InMemoryStorage):
        for name in ("save", "save_intent", "clear_intent", "load"):
            plan.append((storage, name, "audit.storage"))
    plan.append((core_libseal, "recover_log", "audit.recover"))
    plan.append((shard_plane.ShardPlane, "log_pair", "shard.plane.log_pair"))
    plan.append((shard_plane.ShardPlane, "check_invariants", "shard.plane.check"))
    for name in ("point", "owner_of_point"):
        plan.append((shard_router.ShardRouter, name, "shard.router"))

    wrappers = [
        (owner, attr, tracer.wrap(span, owner.__dict__[attr]))
        for owner, attr, span in plan
    ]
    wrappers.append((
        engine.Database, "execute",
        tracer.wrap_by_kind(engine.Database.__dict__["execute"], _sql_kind),
    ))
    wrappers.append((
        engine.Database, "execute_ast",
        tracer.wrap_by_kind(engine.Database.__dict__["execute_ast"], _ast_kind),
    ))

    # The enclave API is a per-runtime namespace of closures, so the three
    # data-path entry points are wrapped where each namespace is built.
    build_api = enclave_runtime.EnclaveTlsRuntime.__dict__["_build_api"]

    @functools.wraps(build_api)
    def build_traced_api(runtime: Any) -> Any:
        api = build_api(runtime)
        api.SSL_accept = tracer.wrap("enclave_tls.accept", api.SSL_accept)
        api.SSL_read = tracer.wrap("enclave_tls.read", api.SSL_read)
        api.SSL_write = tracer.wrap("enclave_tls.write", api.SSL_write)
        return api

    wrappers.append(
        (enclave_runtime.EnclaveTlsRuntime, "_build_api", build_traced_api)
    )
    return wrappers


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper; restore the original attributes on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, wrapper in targets(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
