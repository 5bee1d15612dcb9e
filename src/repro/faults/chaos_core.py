"""The one chaos scenario runner behind ``python -m repro chaos``.

A *scenario* is a seeded script of plain action tuples plus an optional
fault plan. :class:`ChaosHarness` runs it and owns everything that does
not depend on the system under test: the event trace and its digest, the
violation list, the action dispatch, the fault-plan activation and the
verdict. A *deployment* is a subclass that builds the system under test
(:mod:`repro.faults.chaos_rote`, :mod:`repro.faults.chaos_shard`) and
supplies its action handlers, its per-step oracle, its final check and
its verdict fields.

Everything is deterministic: the script, the network, the lie models and
the workload all derive from the scenario seed, and each run emits an
event trace whose SHA-256 digest must be identical across runs of the
same seed — the acceptance gate CI enforces.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable

from repro.audit.rote import RoteCluster
from repro.crypto.hashing import sha256_hex
from repro.errors import SimulationError
from repro.faults import hooks as _faults
from repro.faults.plan import FaultInjector, FaultPlan

#: Replica build installed when a stranded ROTE group is upgraded.
UPGRADED_BUILD = "rote-counter-2.0"


@dataclass
class ChaosScenario:
    """One seeded scenario: a family, its script, and its knobs."""

    family: str
    seed: int
    f: int = 1
    actions: tuple = ()
    plan: FaultPlan | None = None

    @property
    def name(self) -> str:
        return f"{self.family}/seed-{self.seed}"


@dataclass
class ScenarioVerdict:
    """The oracle's judgement of one scenario run."""

    family: str
    seed: int
    ok: bool
    violations: list[str]
    pairs_ok: int
    pairs_blocked: int
    stale_probes: int
    recovered_in: int | None
    head_counter: int
    trace_digest: str
    network: dict[str, int]

    def as_dict(self) -> dict:
        return {
            "scenario": f"{self.family}/seed-{self.seed}",
            "family": self.family,
            "seed": self.seed,
            "ok": self.ok,
            "violations": list(self.violations),
            "pairs_ok": self.pairs_ok,
            "pairs_blocked": self.pairs_blocked,
            "stale_probes": self.stale_probes,
            "recovered_in": self.recovered_in,
            "head_counter": self.head_counter,
            "trace_digest": self.trace_digest,
            "network": dict(self.network),
        }


# Operations both deployments perform on a ROTE group; each handler that
# uses one still emits its own trace event.


def pin_replicas(cluster: RoteCluster, indices: Iterable[int]) -> None:
    """Strand replicas on their current enclave build."""
    for i in indices:
        cluster.nodes[i].pin()


def upgrade_replicas(cluster: RoteCluster, indices: Iterable[int]) -> None:
    """Install :data:`UPGRADED_BUILD` on (stranded) replicas."""
    for i in indices:
        cluster.nodes[i].upgrade(UPGRADED_BUILD)


class ChaosHarness:
    """Runs one scenario and judges it after every step.

    A deployment subclass provides:

    - one ``do_<kind>(*args)`` method per action ``(kind, *args)`` its
      scripts emit — the method's docstring is the action's vocabulary
      line;
    - ``_pair()``: drive one audited pair, counting it into ``pairs_ok``
      or ``pairs_blocked``;
    - ``_after_step(kind)``: the oracle checked after every action;
    - ``_final_check()``: what must hold once the script has ended;
    - the verdict fields ``stale_probes``, ``recovered_in``,
      ``_head_counter()`` and ``network`` (the scenario's
      :class:`~repro.sim.network.SimNetwork`).
    """

    #: Reseal attempts the liveness clock needed; None without one.
    recovered_in: int | None = None

    def __init__(self, scenario: ChaosScenario):
        self.scenario = scenario
        self.trace: list[tuple] = []
        self.violations: list[str] = []
        self.pairs_ok = 0
        self.pairs_blocked = 0

    def _note(self, *event) -> None:
        self.trace.append(tuple(event))

    def _violate(self, message: str) -> None:
        self.violations.append(message)
        self._note("VIOLATION", message)

    def do_pairs(self, k: int) -> None:
        """``("pairs", k)``: drive k audited request/response pairs."""
        for _ in range(k):
            self._pair()

    def _apply(self, action: tuple) -> None:
        kind, *args = action
        handler = getattr(self, f"do_{kind}", None)
        if handler is None:
            raise SimulationError(f"unknown chaos action {kind!r}")
        handler(*args)
        self._after_step(kind)

    def run(self) -> ScenarioVerdict:
        plan = self.scenario.plan
        injector = None if plan is None else FaultInjector(plan)
        with nullcontext() if plan is None else _faults.inject(injector):
            for action in self.scenario.actions:
                self._apply(action)
        if plan is not None:
            for fired in injector.fired:
                self._note("plan_fired", fired.event.describe())
            # A plan-driven family proves nothing unless its faults bite.
            for event in injector.unfired:
                self._violate(f"planned fault never fired: {event.describe()}")
        self._final_check()
        if self.pairs_ok == 0:
            self._violate("scenario completed no successful pairs")
        digest = sha256_hex(
            json.dumps(self.trace, sort_keys=True, default=str).encode()
        )
        return ScenarioVerdict(
            family=self.scenario.family,
            seed=self.scenario.seed,
            ok=not self.violations,
            violations=list(self.violations),
            pairs_ok=self.pairs_ok,
            pairs_blocked=self.pairs_blocked,
            stale_probes=self.stale_probes,
            recovered_in=self.recovered_in,
            head_counter=self._head_counter(),
            trace_digest=digest,
            network=self.network.stats.as_dict(),
        )
