"""Tenant registry: API keys, QoS tiers, per-tenant budgets and caches.

A **tenant** is one API-key-authenticated consumer of the query service.
Each tenant belongs to a **QoS tier** bundling everything the service
enforces per tenant:

* ``max_concurrency`` — queries of this tenant allowed in flight at
  once; further requests queue briefly, then are shed with ``429``;
* ``queue_timeout`` — how long an over-cap request may wait for a slot
  before shedding;
* ``retry_after`` — the ``Retry-After`` header value sent on a shed;
* ``budget`` — the per-query :class:`~repro.telemetry.resources.
  ResourceBudget` (wall/memory/intermediate-rows soft+hard limits)
  applied to every query the tenant runs;
* ``cache_size`` — the LRU bound of the tenant's private version-stamped
  :class:`~repro.storage.cache.ResultCache`.

Tenants are declared in a JSON file (``repro serve --tenants FILE``)::

    {
      "tiers": {
        "gold":   {"max_concurrency": 8, "queue_timeout_ms": 250,
                   "cache_size": 256,
                   "budget": {"hard_wall_seconds": 5.0}},
        "bronze": {"max_concurrency": 2, "queue_timeout_ms": 50,
                   "retry_after_seconds": 2,
                   "budget": {"hard_intermediate_rows": 100000}}
      },
      "tenants": [
        {"name": "acme",   "api_key": "acme-key-1",   "tier": "gold"},
        {"name": "initech", "api_key": "initech-key", "tier": "bronze"}
      ]
    }

``tiers`` may be omitted or partial — the named defaults
(:data:`DEFAULT_TIERS`: ``gold``/``silver``/``bronze``) fill the gaps.
``budget`` keys are exactly the :class:`ResourceBudget` constructor
arguments.  :func:`default_registry` builds the zero-configuration
single-tenant registry (one anonymous ``public`` tenant) used when no
tenants file is given.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterator, List, Optional

from ..exceptions import ReproError
from ..telemetry.resources import ResourceBudget

__all__ = [
    "DEFAULT_TIERS",
    "QoSTier",
    "TenantConfig",
    "TenantRegistry",
    "TenantsFileError",
    "default_registry",
    "load_tenants",
]

#: The header clients authenticate with.
API_KEY_HEADER = "X-Api-Key"


class TenantsFileError(ReproError):
    """The tenants file is malformed (bad JSON, unknown tier, ...)."""


class QoSTier:
    """One quality-of-service tier: admission caps + per-query budget."""

    __slots__ = (
        "name", "max_concurrency", "queue_timeout", "retry_after",
        "cache_size", "budget",
    )

    def __init__(
        self,
        name: str,
        max_concurrency: int = 4,
        queue_timeout: float = 0.25,
        retry_after: float = 1.0,
        cache_size: int = 128,
        budget: Optional[ResourceBudget] = None,
    ):
        if max_concurrency < 1:
            raise TenantsFileError(
                "tier %r: max_concurrency must be >= 1" % name
            )
        self.name = name
        self.max_concurrency = int(max_concurrency)
        self.queue_timeout = float(queue_timeout)
        self.retry_after = float(retry_after)
        self.cache_size = int(cache_size)
        self.budget = budget

    def describe(self) -> Dict[str, Any]:
        """The public (key-free) JSON view served by ``/tenants``."""
        budget = None
        if self.budget is not None:
            budget = {
                slot: getattr(self.budget, slot)
                for slot in self.budget.__slots__
                if getattr(self.budget, slot) is not None
            }
        return {
            "name": self.name,
            "max_concurrency": self.max_concurrency,
            "queue_timeout_ms": round(self.queue_timeout * 1000.0, 3),
            "retry_after_seconds": self.retry_after,
            "cache_size": self.cache_size,
            "budget": budget,
        }

    def __repr__(self) -> str:
        return "QoSTier(%r, max_concurrency=%d)" % (
            self.name, self.max_concurrency,
        )


def _default_tiers() -> Dict[str, QoSTier]:
    return {
        "gold": QoSTier(
            "gold", max_concurrency=8, queue_timeout=0.5, retry_after=0.5,
            cache_size=256,
        ),
        "silver": QoSTier(
            "silver", max_concurrency=4, queue_timeout=0.25, retry_after=1.0,
            cache_size=128,
            budget=ResourceBudget(hard_wall_seconds=30.0),
        ),
        "bronze": QoSTier(
            "bronze", max_concurrency=2, queue_timeout=0.1, retry_after=2.0,
            cache_size=64,
            budget=ResourceBudget(
                hard_wall_seconds=10.0, hard_intermediate_rows=1_000_000,
            ),
        ),
    }


#: The built-in tiers a tenants file may reference without defining.
DEFAULT_TIERS: Dict[str, QoSTier] = _default_tiers()

_BUDGET_KEYS = frozenset(ResourceBudget.__slots__)


def _budget_from_dict(tier_name: str, data: Any) -> Optional[ResourceBudget]:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise TenantsFileError(
            "tier %r: 'budget' must be an object of ResourceBudget limits"
            % tier_name
        )
    unknown = sorted(set(data) - _BUDGET_KEYS)
    if unknown:
        raise TenantsFileError(
            "tier %r: unknown budget limit(s) %s (allowed: %s)"
            % (tier_name, ", ".join(map(repr, unknown)),
               ", ".join(sorted(_BUDGET_KEYS)))
        )
    return ResourceBudget(**data)


def _tier_from_dict(name: str, data: Any) -> QoSTier:
    if not isinstance(data, dict):
        raise TenantsFileError("tier %r must be a JSON object" % name)
    known = {
        "max_concurrency", "queue_timeout_ms", "retry_after_seconds",
        "cache_size", "budget",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise TenantsFileError(
            "tier %r: unknown field(s) %s (allowed: %s)"
            % (name, ", ".join(map(repr, unknown)), ", ".join(sorted(known)))
        )
    defaults = DEFAULT_TIERS.get(name)
    return QoSTier(
        name,
        max_concurrency=data.get(
            "max_concurrency",
            defaults.max_concurrency if defaults else 4,
        ),
        queue_timeout=data.get(
            "queue_timeout_ms",
            (defaults.queue_timeout if defaults else 0.25) * 1000.0,
        ) / 1000.0,
        retry_after=data.get(
            "retry_after_seconds",
            defaults.retry_after if defaults else 1.0,
        ),
        cache_size=data.get(
            "cache_size", defaults.cache_size if defaults else 128
        ),
        budget=(
            _budget_from_dict(name, data["budget"])
            if "budget" in data
            else (defaults.budget if defaults else None)
        ),
    )


class TenantConfig:
    """One tenant: a name, its API key, and the tier it belongs to."""

    __slots__ = ("name", "api_key", "tier")

    def __init__(self, name: str, api_key: Optional[str], tier: QoSTier):
        self.name = name
        #: ``None`` means the tenant accepts unauthenticated requests
        #: (the zero-configuration ``public`` tenant).
        self.api_key = api_key
        self.tier = tier

    def key_fingerprint(self) -> Optional[str]:
        """A non-reversible key identifier safe to expose in ``/tenants``."""
        if self.api_key is None:
            return None
        return hashlib.sha256(self.api_key.encode("utf-8")).hexdigest()[:12]

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "tier": self.tier.name,
            "api_key_sha256_12": self.key_fingerprint(),
            "qos": self.tier.describe(),
        }

    def __repr__(self) -> str:
        return "TenantConfig(%r, tier=%r)" % (self.name, self.tier.name)


class TenantRegistry:
    """API-key → :class:`TenantConfig` lookup for the service."""

    def __init__(self, tenants: List[TenantConfig]):
        if not tenants:
            raise TenantsFileError("at least one tenant is required")
        self._by_name: Dict[str, TenantConfig] = {}
        self._by_key: Dict[str, TenantConfig] = {}
        self._anonymous: Optional[TenantConfig] = None
        for tenant in tenants:
            if tenant.name in self._by_name:
                raise TenantsFileError("duplicate tenant name %r" % tenant.name)
            self._by_name[tenant.name] = tenant
            if tenant.api_key is None:
                if self._anonymous is not None:
                    raise TenantsFileError(
                        "only one tenant may omit 'api_key' (the anonymous "
                        "default); both %r and %r do"
                        % (self._anonymous.name, tenant.name)
                    )
                self._anonymous = tenant
            else:
                if tenant.api_key in self._by_key:
                    raise TenantsFileError(
                        "duplicate api_key shared by tenants %r and %r"
                        % (self._by_key[tenant.api_key].name, tenant.name)
                    )
                self._by_key[tenant.api_key] = tenant

    @classmethod
    def from_dict(cls, data: Any) -> "TenantRegistry":
        """Build a registry from the tenants-file JSON structure."""
        if not isinstance(data, dict):
            raise TenantsFileError("tenants file must be a JSON object")
        unknown = sorted(set(data) - {"tiers", "tenants"})
        if unknown:
            raise TenantsFileError(
                "unknown top-level field(s) %s (allowed: 'tiers', 'tenants')"
                % ", ".join(map(repr, unknown))
            )
        tiers = _default_tiers()
        raw_tiers = data.get("tiers", {})
        if not isinstance(raw_tiers, dict):
            raise TenantsFileError("'tiers' must be a JSON object")
        for name, tier_data in raw_tiers.items():
            tiers[name] = _tier_from_dict(name, tier_data)
        raw_tenants = data.get("tenants")
        if not isinstance(raw_tenants, list) or not raw_tenants:
            raise TenantsFileError("'tenants' must be a non-empty array")
        tenants = []
        for i, entry in enumerate(raw_tenants):
            if not isinstance(entry, dict):
                raise TenantsFileError("tenants[%d] must be a JSON object" % i)
            unknown = sorted(set(entry) - {"name", "api_key", "tier"})
            if unknown:
                raise TenantsFileError(
                    "tenants[%d]: unknown field(s) %s "
                    "(allowed: 'name', 'api_key', 'tier')"
                    % (i, ", ".join(map(repr, unknown)))
                )
            name = entry.get("name")
            if not isinstance(name, str) or not name:
                raise TenantsFileError(
                    "tenants[%d]: 'name' must be a non-empty string" % i
                )
            tier_name = entry.get("tier", "silver")
            if tier_name not in tiers:
                raise TenantsFileError(
                    "tenants[%d] (%r): unknown tier %r (defined: %s)"
                    % (i, name, tier_name, ", ".join(sorted(tiers)))
                )
            api_key = entry.get("api_key")
            if api_key is not None and (
                not isinstance(api_key, str) or not api_key
            ):
                raise TenantsFileError(
                    "tenants[%d] (%r): 'api_key' must be a non-empty string "
                    "or omitted for the anonymous tenant" % (i, name)
                )
            tenants.append(TenantConfig(name, api_key, tiers[tier_name]))
        return cls(tenants)

    # ------------------------------------------------------------------
    def authenticate(self, api_key: Optional[str]) -> Optional[TenantConfig]:
        """The tenant for ``api_key`` — the anonymous tenant (if any) when
        no key is presented; ``None`` when authentication fails."""
        if api_key:
            return self._by_key.get(api_key)
        return self._anonymous

    def get(self, name: str) -> Optional[TenantConfig]:
        return self._by_name.get(name)

    def names(self) -> List[str]:
        return sorted(self._by_name)

    def snapshot(self) -> List[Dict[str, Any]]:
        """The key-free ``/tenants`` payload."""
        return [self._by_name[name].describe() for name in self.names()]

    def __iter__(self) -> Iterator[TenantConfig]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __repr__(self) -> str:
        return "TenantRegistry(%s)" % ", ".join(self.names())


def load_tenants(path: str) -> TenantRegistry:
    """Read and validate a tenants file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise TenantsFileError("cannot read tenants file %s: %s" % (path, exc))
    except ValueError as exc:
        raise TenantsFileError(
            "tenants file %s is not valid JSON: %s" % (path, exc)
        )
    return TenantRegistry.from_dict(data)


def default_registry() -> TenantRegistry:
    """The zero-configuration registry: one anonymous ``public`` tenant
    on the ``gold`` tier (no API key required)."""
    return TenantRegistry(
        [TenantConfig("public", None, DEFAULT_TIERS["gold"])]
    )
