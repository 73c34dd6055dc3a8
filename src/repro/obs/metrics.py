"""A dependency-free metrics subsystem (Prometheus-style, pure stdlib).

The registry holds *families* — a metric name plus a label schema — and
each family holds one child per distinct label combination.  Three
primitives cover the engine's needs:

``Counter``
    Monotonically increasing totals (``statements_total``,
    ``wal_records_total``).
``Gauge``
    Point-in-time values that move both ways (``stats_stale``,
    ``checkpoint_worker_failing``).
``Histogram``
    Observations bucketed into **fixed log-scaled latency buckets**
    (:data:`LATENCY_BUCKETS`, 10 µs → 50 s in a 1-2-5 progression), with
    cumulative bucket counts, ``_sum`` and ``_count`` in the classic
    Prometheus exposition shape.

All increments are thread-safe (one lock per child) and cheap enough for
per-statement instrumentation; hot paths cache the child returned by
``family.labels(...)`` so steady-state cost is a lock + float add.

Two read surfaces:

``MetricsRegistry.collect()``
    Plain dicts/lists — for tests and JSON shipping.
``MetricsRegistry.render_prometheus()``
    The text exposition format a future HTTP server can mount verbatim
    as ``/metrics``.  :func:`parse_prometheus` is the matching reader
    used by the test-suite round-trip and the CI smoke step.

A registry built with ``enabled=False`` (see
:func:`repro.obs.disabled_registry`) hands out a shared no-op child, so
instrumented code needs no ``if`` guards and benchmarks can measure the
true zero-instrumentation baseline.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "LATENCY_BUCKETS",
    "ERROR_RATIO_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
]

#: Fixed log-scaled latency buckets (seconds): a 1-2-5 progression from
#: 10 microseconds to 50 seconds.  Every latency histogram in the engine
#: shares these bounds so panels line up.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** exponent * mantissa, 12)
    for exponent in range(-5, 2)
    for mantissa in (1.0, 2.0, 5.0)
)

#: Buckets for dimensionless ratios (planner estimate-vs-actual error):
#: log-scaled around 1.0 (a perfect estimate).
ERROR_RATIO_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0, 10.0, 100.0,
)


class _NoopChild:
    """Shared child handed out by a disabled registry — every write is a
    no-op, so instrumentation sites need no enabled checks."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


_NOOP_CHILD = _NoopChild()


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (or be set outright)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Observations in fixed buckets, plus a running sum and count."""

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self._bounds = bounds
        # one slot per finite bound plus the implicit +Inf overflow slot
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative ``(le, count)`` pairs ending in ``+Inf``, plus sum
        and count — the exposition shape."""
        with self._lock:
            counts = list(self._counts)
            total, summed = self._count, self._sum
        cumulative = []
        running = 0
        for bound, bucket_count in zip(self._bounds, counts):
            running += bucket_count
            cumulative.append((bound, running))
        cumulative.append((math.inf, running + counts[-1]))
        return {"buckets": cumulative, "sum": summed, "count": total}


_KIND_FACTORIES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricFamily:
    """A named metric plus its label schema; children live per label set."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        kind: str,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ):
        self.registry = registry
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._buckets if self._buckets else LATENCY_BUCKETS)
        return _KIND_FACTORIES[self.kind]()

    def labels(self, **labels: Any):
        """The child for this label combination (created on first use)."""
        if not self.registry.enabled:
            return _NOOP_CHILD
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    # -- convenience for label-less families ---------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = sorted(self._children.items())
        out = []
        for key, child in items:
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                sample = child.snapshot()
                sample["labels"] = labels
            else:
                sample = {"labels": labels, "value": child.value}
            out.append(sample)
        return out


class MetricsRegistry:
    """Holds metric families; the engine's single observability sink.

    ``enabled=False`` turns every child into a shared no-op, for callers
    who want the engine silent.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: "Dict[str, MetricFamily]" = {}
        self._handles: Dict[str, Any] = {}

    # -- family constructors (get-or-create, idempotent) ---------------------
    def _family(
        self,
        kind: str,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.labelnames}"
                    )
                return family
            family = MetricFamily(self, kind, name, help, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family("counter", name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family("gauge", name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._family("histogram", name, help, labelnames, buckets)

    def handles(self, key: str, build: "Callable[[MetricsRegistry], Any]") -> Any:
        """``build(self)``, computed once per registry and *key*: where a
        component whose own objects live for one statement (a query plan)
        keeps its resolved label children, so the hot path pays one dict
        lookup instead of re-resolving families and labels every time."""
        resolved = self._handles.get(key)
        if resolved is None:
            resolved = self._handles[key] = build(self)
        return resolved

    # -- read surfaces ---------------------------------------------------------
    def collect(self) -> List[Dict[str, Any]]:
        """A plain-data snapshot of every family (see module docstring)."""
        with self._lock:
            families = list(self._families.values())
        return [
            {
                "name": family.name,
                "type": family.kind,
                "help": family.help,
                "samples": family.samples(),
            }
            for family in families
        ]

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.collect():
            name, kind = family["name"], family["type"]
            if family["help"]:
                lines.append(f"# HELP {name} {_escape_help(family['help'])}")
            lines.append(f"# TYPE {name} {kind}")
            for sample in family["samples"]:
                labels = sample["labels"]
                if kind == "histogram":
                    for bound, count in sample["buckets"]:
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_bound(bound)
                        lines.append(
                            f"{name}_bucket{_render_labels(bucket_labels)} {count}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} "
                        f"{_format_value(sample['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} {sample['count']}"
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} "
                        f"{_format_value(sample['value'])}"
                    )
        return "\n".join(lines) + "\n"


# -- exposition helpers ---------------------------------------------------------

def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in labels.items()
    )
    return "{" + inner + "}"


def _format_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return _format_value(bound)


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse text-exposition output back into ``{(name, labels): value}``.

    The inverse of :meth:`MetricsRegistry.render_prometheus` for the
    subset this module emits — used by the round-trip test and the CI
    metrics smoke.  Labels are a sorted tuple of ``(key, value)`` pairs.
    """
    series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_blob, value_text = rest.rsplit("} ", 1)
            labels = []
            for part in _split_label_pairs(label_blob):
                key, raw_value = part.split("=", 1)
                unquoted = raw_value[1:-1]
                unescaped = (
                    unquoted.replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                labels.append((key, unescaped))
            key_tuple = tuple(sorted(labels))
        else:
            name, value_text = line.rsplit(" ", 1)
            key_tuple = ()
        series[(name, key_tuple)] = float(value_text)
    return series


def _split_label_pairs(blob: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in blob:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        parts.append("".join(current))
    return parts
