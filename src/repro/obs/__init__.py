"""``repro.obs`` — the engine's observability layer (pure stdlib).

* :class:`MetricsRegistry` with :class:`Counter`, :class:`Gauge` and
  :class:`Histogram` families, a Prometheus text renderer
  (:meth:`~MetricsRegistry.render_prometheus`) and a plain-dict snapshot
  (:meth:`~MetricsRegistry.collect`).
* :class:`QueryTrace` spans recorded by ``Session.execute`` (ring buffer
  via ``Session.recent_traces()``, slow-query log via
  ``Session.slow_query_threshold``).
* A process-global default registry (:func:`get_registry` /
  :func:`set_registry`).  A ``Database`` built with
  ``metrics=MetricsRegistry()`` keeps its series isolated from the
  global one (the idiom the test-suite uses); :func:`registry_for`
  resolves whichever applies.

Every metric the engine emits is prefixed ``repro_`` — see the README's
"Observability" section for the full catalog.
"""

from __future__ import annotations

from typing import Any, Optional

from .metrics import (
    ERROR_RATIO_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from .tracing import QueryTrace, slow_query_logger

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryTrace",
    "LATENCY_BUCKETS",
    "ERROR_RATIO_BUCKETS",
    "get_registry",
    "set_registry",
    "registry_for",
    "disabled_registry",
    "parse_prometheus",
    "slow_query_logger",
]

_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry (what a ``/metrics`` endpoint
    would serve when no per-database registry is in play)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one (so
    tests can restore it)."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def registry_for(database: Optional[Any]) -> MetricsRegistry:
    """The registry a component acting on *database* should write to:
    the database's own (``Database(metrics=...)``) when set, else the
    process-global default."""
    registry = getattr(database, "metrics", None)
    if isinstance(registry, MetricsRegistry):
        return registry
    return _default_registry


def disabled_registry() -> MetricsRegistry:
    """A registry whose children are shared no-ops — instrumentation
    costs one attribute lookup and a no-op call, for callers who want the
    engine silent."""
    return MetricsRegistry(enabled=False)
