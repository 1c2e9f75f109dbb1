"""The one HTTP front and the multi-tenant async query service.

:class:`MetricsServer` serves ``/metrics``, ``/healthz`` and
``/debug/*`` on the package's socket edge, an ``asyncio`` loop
(``repro run --serve-debug``).  :class:`ServiceServer`
(``repro serve``) is a ``MetricsServer`` that owns a pool of warm per-tenant
:class:`~repro.engine.Session`\\ s over one shared planner and storage
backend, fronted by admission control (per-tenant concurrency caps, a
global in-flight ceiling, 429 load shedding) and request coalescing.
See :mod:`repro.service.server` for the architecture and
``docs/SERVICE.md`` for the operator guide.

::

    from repro.service import ServiceServer, load_tenants

    server = ServiceServer(triples, tenants=load_tenants("tenants.json"))
    with server:                      # embedded mode; `repro serve` for prod
        requests.post(server.url + "/query", json={"query": text},
                      headers={"X-Api-Key": "..."})
"""

from .admission import AdmissionController, AdmissionSlot, LoadShedError
from .protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    QueryRequest,
)
from .server import MetricsServer, ServiceServer
from .tenancy import (
    API_KEY_HEADER,
    TenantConfig,
    TenantRegistry,
    default_registry,
    load_tenants,
)

__all__ = [
    "API_KEY_HEADER",
    "AdmissionController",
    "AdmissionSlot",
    "LoadShedError",
    "MAX_BODY_BYTES",
    "MetricsServer",
    "ProtocolError",
    "QueryRequest",
    "ServiceServer",
    "TenantConfig",
    "TenantRegistry",
    "default_registry",
    "load_tenants",
]
