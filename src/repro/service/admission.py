"""Admission control: per-tenant concurrency caps and load shedding.

The :class:`AdmissionController` is the service's front gate.  Every
request must hold an admission slot while it executes:

* each tenant may have at most ``tier.max_concurrency`` queries in
  flight; beyond that, requests **queue briefly** (up to
  ``tier.queue_timeout`` seconds) waiting for a slot;
* a **global in-flight ceiling** bounds the whole process regardless of
  tenant mix, so one process never takes on more concurrent evaluation
  than it was sized for;
* when the wait times out — or the global ceiling would be breached for
  longer than the tenant's patience — the request is **shed** with a
  :class:`LoadShedError`, which the server answers as ``429`` with a
  ``Retry-After`` header (the tier's ``retry_after``).

Shedding at the gate is what keeps the served requests fast: a saturated
tier fails quickly with a clear signal instead of stacking unbounded
queues in front of the evaluator.  Everything is accounted in the shared
metrics registry with per-tenant labels::

    service.admitted{tenant=...}        # granted slots
    service.shed{tenant=..., scope=...} # 429s, scope = tenant | global
    service.queue_wait_seconds{tenant=...}
    service.in_flight{tenant=...}       # gauges read at scrape time
    service.in_flight_global
    service.queued

A request that finds a slot free and nobody queued takes it at once
(:meth:`AdmissionController.try_admit`, no lock, no ``await``); only
otherwise does it queue on the controller's ``asyncio.Condition``
(:meth:`AdmissionController.admit`).

The controller is single-event-loop asyncio (the service's model): all
state transitions happen on the loop, so counters need no locks; only
the metrics registry (shared with scrape threads) is thread-safe.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Set, Tuple

from ..exceptions import ReproError
from ..telemetry.metrics import Counter, Histogram, MetricsRegistry
from .tenancy import TenantConfig

__all__ = ["AdmissionController", "AdmissionSlot", "LoadShedError"]

#: Default process-wide in-flight ceiling.
DEFAULT_GLOBAL_LIMIT = 64


class LoadShedError(ReproError):
    """The request was shed; answer 429 with ``Retry-After``."""

    def __init__(self, tenant: str, scope: str, retry_after: float, waited: float):
        super().__init__(
            "tenant %r shed after %.0f ms (%s concurrency limit reached)"
            % (tenant, waited * 1000.0, scope)
        )
        self.tenant = tenant
        #: ``"tenant"`` (the tier cap bound) or ``"global"`` (the
        #: process ceiling bound).
        self.scope = scope
        self.retry_after = retry_after
        self.waited = waited


class AdmissionSlot:
    """A granted slot; an async context manager releasing on exit."""

    __slots__ = ("_controller", "_tenant", "_released")

    def __init__(self, controller: "AdmissionController", tenant: TenantConfig):
        self._controller = controller
        self._tenant = tenant
        self._released = False

    async def __aenter__(self) -> "AdmissionSlot":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release(self._tenant)


class AdmissionController:
    """Grant, queue, or shed admission to the evaluation executor."""

    def __init__(
        self,
        global_limit: int = DEFAULT_GLOBAL_LIMIT,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if global_limit < 1:
            raise ValueError("global_limit must be >= 1")
        self.global_limit = int(global_limit)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._in_flight: Dict[str, int] = {}
        self._in_flight_global = 0
        self._waiting = 0
        self._condition: Optional[asyncio.Condition] = None
        self._notifying: Set["asyncio.Task"] = set()
        # Lifetime tallies for /healthz (metrics hold the labeled detail).
        self.admitted_total = 0
        self.shed_total = 0
        #: Per tenant: its ``service.admitted`` counter and
        #: ``service.queue_wait_seconds`` histogram, looked up once.
        self._instruments: Dict[str, Tuple[Counter, Histogram]] = {}
        # The levels are read when scraped, not set on every change.
        self.metrics.gauge_view("service.in_flight_global", lambda: self._in_flight_global)
        self.metrics.gauge_view("service.queued", lambda: self._waiting)

    def _cond(self) -> asyncio.Condition:
        # Created lazily so the controller can be built off-loop (the
        # server constructs it before its event loop exists).
        if self._condition is None:
            self._condition = asyncio.Condition()
        return self._condition

    # ------------------------------------------------------------------
    def _has_capacity(self, tenant: TenantConfig) -> Optional[str]:
        """``None`` when a slot is free, else which scope is saturated."""
        if self._in_flight_global >= self.global_limit:
            return "global"
        if self._in_flight.get(tenant.name, 0) >= tenant.tier.max_concurrency:
            return "tenant"
        return None

    def try_admit(self, tenant: TenantConfig) -> Optional[AdmissionSlot]:
        """A slot at once — counted as :meth:`admit` counts a grant with
        no wait — when nobody is queued and both caps have room, else
        ``None`` (then :meth:`admit` queues or sheds)."""
        if self._waiting or self._has_capacity(tenant) is not None:
            return None
        self._grant(tenant, 0.0)
        return AdmissionSlot(self, tenant)

    async def admit(self, tenant: TenantConfig) -> AdmissionSlot:
        """Wait up to the tier's ``queue_timeout`` for a slot.

        Returns an :class:`AdmissionSlot` (use ``async with``) or raises
        :class:`LoadShedError`.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        condition = self._cond()
        async with condition:
            scope = self._has_capacity(tenant)
            if scope is not None:
                deadline = start + tenant.tier.queue_timeout
                self._waiting += 1
                try:
                    while scope is not None:
                        remaining = deadline - loop.time()
                        if remaining <= 0:
                            self._shed(tenant, scope, loop.time() - start)
                        try:
                            await asyncio.wait_for(condition.wait(), remaining)
                        except asyncio.TimeoutError:
                            scope = self._has_capacity(tenant)
                            if scope is not None:
                                self._shed(tenant, scope, loop.time() - start)
                            break
                        scope = self._has_capacity(tenant)
                finally:
                    self._waiting -= 1
            self._grant(tenant, loop.time() - start)
            return AdmissionSlot(self, tenant)

    def _shed(self, tenant: TenantConfig, scope: str, waited: float) -> None:
        self.shed_total += 1
        self.metrics.counter(
            "service.shed", labels={"tenant": tenant.name, "scope": scope}
        ).inc()
        raise LoadShedError(tenant.name, scope, tenant.tier.retry_after, waited)

    def _grant(self, tenant: TenantConfig, waited: float) -> None:
        name = tenant.name
        instruments = self._instruments.get(name)
        if instruments is None:
            instruments = self._instruments[name] = self._register(name)
        self.admitted_total += 1
        self._in_flight[name] = self._in_flight.get(name, 0) + 1
        self._in_flight_global += 1
        admitted, queue_wait = instruments
        admitted.inc()
        queue_wait.observe(waited)

    def _register(self, name: str) -> Tuple[Counter, Histogram]:
        """A tenant's instruments, the first time it is admitted."""
        labels = {"tenant": name}
        self.metrics.gauge_view(
            "service.in_flight", lambda: self._in_flight.get(name, 0), labels=labels
        )
        return (
            self.metrics.counter("service.admitted", labels=labels),
            self.metrics.histogram("service.queue_wait_seconds", labels=labels),
        )

    def _release(self, tenant: TenantConfig) -> None:
        self._in_flight[tenant.name] = max(
            0, self._in_flight.get(tenant.name, 0) - 1
        )
        self._in_flight_global = max(0, self._in_flight_global - 1)
        # A waiter counts itself before it first yields, so with none
        # counted nobody can miss this release.  The loop holds tasks
        # weakly: the set keeps each notify alive until it has run.
        if self._waiting:
            task = asyncio.ensure_future(self._notify())
            self._notifying.add(task)
            task.add_done_callback(self._notifying.discard)

    async def _notify(self) -> None:
        condition = self._cond()
        async with condition:
            condition.notify_all()

    # ------------------------------------------------------------------
    @property
    def in_flight_global(self) -> int:
        return self._in_flight_global

    def snapshot(self) -> Dict[str, Any]:
        """The admission state for ``/healthz`` and ``/tenants``."""
        return {
            "global_limit": self.global_limit,
            "in_flight_global": self._in_flight_global,
            "queued": self._waiting,
            "in_flight": {
                name: count
                for name, count in sorted(self._in_flight.items())
                if count
            },
            "admitted_total": self.admitted_total,
            "shed_total": self.shed_total,
        }

    def __repr__(self) -> str:
        return "AdmissionController(%d/%d in flight, %d queued)" % (
            self._in_flight_global, self.global_limit, self._waiting,
        )
