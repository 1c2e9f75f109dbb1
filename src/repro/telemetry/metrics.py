"""Metrics: named counters, gauges, and quantile histograms.

A :class:`MetricsRegistry` is a thread-safe bag of instruments created on
first use::

    registry = MetricsRegistry()
    registry.counter("planner.engine.selected", {"engine": "yannakakis"}).inc()
    registry.histogram("planner.engine_seconds").observe(0.002)
    registry.snapshot()["histograms"]["planner.engine_seconds"]["p95"]

Instruments optionally carry **labels** (a small ``{name: value}`` dict):
the registry keys instruments by ``(name, labels)``, so one metric family
(``planner.engine.selected``) fans out into one series per label
combination — exactly the Prometheus data model, which
:meth:`MetricsRegistry.to_prometheus` renders in the text exposition
format (``# TYPE`` headers, escaped label values, summary quantiles).
A lookup resolves labels as given (one tuple, one dict read) and sorts a
label set only the first time it is seen; label values are compared as
the caller passes them, so one label takes values of one type (``1`` and
``True`` are equal keys but distinct series).

Histograms keep exact ``count``/``sum``/``max`` and a bounded reservoir of
recent observations for the quantile estimates (p50/p95/p99 by default,
configurable per instrument), so long-running sessions do not grow without
bound.  A :class:`View` is a counter or gauge read, when asked, from
other state (a histogram's ``count``, a family's summed ``sum``, a
count kept on an object): it is exported as a counter or a gauge, and
what it reads is updated once.  The planner owns one registry.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, Mapping, Optional, Sequence, Tuple, Union

#: Observations retained per histogram for quantile estimation.
DEFAULT_RESERVOIR = 2048

#: Quantiles every histogram reports unless configured otherwise.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.50, 0.95, 0.99)

#: Normalised label form used as part of the registry key.
LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Mapping[str, str]]) -> LabelsKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _display_name(name: str, labels: LabelsKey) -> str:
    """The snapshot key: ``name`` or ``name{k="v",…}`` (Prometheus style)."""
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join('%s="%s"' % kv for kv in labels))


def quantile_key(q: float) -> str:
    """``0.5 → "p50"``, ``0.95 → "p95"``, ``0.999 → "p99.9"``."""
    return "p%g" % (q * 100)


class Counter:
    """A monotonically increasing value (floats allowed, e.g. seconds)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels: LabelsKey = _labels_key(labels)
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0

    def __repr__(self) -> str:
        return "Counter(%r, %g)" % (_display_name(self.name, self.labels), self.value)


class View:
    """A counter (:meth:`MetricsRegistry.counter_view`) or a gauge
    (:meth:`MetricsRegistry.gauge_view`) whose value is read, when asked,
    from other state (``read()``): exported like one, never set.
    Resetting it is resetting what it reads."""

    __slots__ = ("name", "labels", "_read")

    def __init__(
        self, name: str, read: Callable[[], float],
        labels: Optional[Mapping[str, str]] = None,
    ):
        self.name = name
        self.labels: LabelsKey = _labels_key(labels)
        self._read = read

    @property
    def value(self) -> float:
        return float(self._read())

    def reset(self) -> None:
        pass

    def __repr__(self) -> str:
        return "View(%r, %g)" % (_display_name(self.name, self.labels), self.value)


class Gauge:
    """A last-value-wins instrument."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels: LabelsKey = _labels_key(labels)
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = None

    def __repr__(self) -> str:
        return "Gauge(%r, %r)" % (_display_name(self.name, self.labels), self.value)


class Histogram:
    """Exact count/sum/max plus reservoir-backed quantiles.

    ``quantiles`` configures which quantiles :meth:`snapshot` (and the
    Prometheus exposition) report — p50/p95/p99 by default.
    """

    __slots__ = ("name", "labels", "count", "sum", "max", "quantiles",
                 "_values", "_lock")

    def __init__(
        self,
        name: str,
        reservoir: int = DEFAULT_RESERVOIR,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        labels: Optional[Mapping[str, str]] = None,
    ):
        self.name = name
        self.labels: LabelsKey = _labels_key(labels)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.quantiles: Tuple[float, ...] = tuple(quantiles)
        self._values: Deque[float] = deque(maxlen=reservoir)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value > self.max:
                self.max = value
            self._values.append(value)

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (0 ≤ q ≤ 1) of the retained observations,
        by the nearest-rank method; ``None`` before any observation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % (q,))
        with self._lock:
            values = sorted(self._values)
        if not values:
            return None
        rank = min(len(values) - 1, max(0, int(round(q * (len(values) - 1)))))
        return values[rank]

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.sum = 0.0
            self.max = 0.0
            self._values.clear()

    def snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "mean": self.mean,
        }
        for q in self.quantiles:
            snap[quantile_key(q)] = self.quantile(q)
        return snap

    def __repr__(self) -> str:
        return "Histogram(%r, count=%d, sum=%g)" % (
            _display_name(self.name, self.labels), self.count, self.sum,
        )


class MetricsRegistry:
    """Thread-safe, create-on-first-use collection of instruments,
    keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelsKey], Union[Counter, View]] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Union[Gauge, View]] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}
        #: Every instrument by ``(kind, name, labels as the caller gave
        #: them)``, so a lookup sorts a label set only the first time it
        #: is seen.  Instruments are never removed (``reset`` zeroes
        #: them), so an entry cannot go stale.
        self._given: Dict[Tuple[Any, ...], Any] = {}
        self._lock = threading.Lock()

    def _register(self, given: Tuple[Any, ...], store: Dict, fresh: Any) -> Any:
        """The instrument registered under ``fresh``'s name and labels
        (``fresh`` itself the first time), remembered under ``given``."""
        with self._lock:
            instrument = store.setdefault((fresh.name, fresh.labels), fresh)
            self._given[given] = instrument
        return instrument

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        given = ("c", name, tuple(labels.items()) if labels else ())
        instrument = self._given.get(given)
        if instrument is None:
            instrument = self._register(given, self._counters, Counter(name, labels))
        return instrument

    def counter_view(
        self, name: str, read: Callable[[], float],
        labels: Optional[Mapping[str, str]] = None,
    ) -> View:
        """The counter ``name`` (with ``labels``) as a :class:`View` of
        ``read``, registered the first time: :meth:`counter` then returns
        it too."""
        given = ("c", name, tuple(labels.items()) if labels else ())
        instrument = self._given.get(given)
        if instrument is None:
            instrument = self._register(given, self._counters, View(name, read, labels))
        return instrument

    def gauge_view(
        self, name: str, read: Callable[[], float],
        labels: Optional[Mapping[str, str]] = None,
    ) -> View:
        """The gauge ``name`` (with ``labels``) as a :class:`View` of
        ``read``: a level kept elsewhere, read at scrape time instead of
        set on every change."""
        given = ("g", name, tuple(labels.items()) if labels else ())
        instrument = self._given.get(given)
        if instrument is None:
            instrument = self._register(given, self._gauges, View(name, read, labels))
        return instrument

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Gauge:
        given = ("g", name, tuple(labels.items()) if labels else ())
        instrument = self._given.get(given)
        if instrument is None:
            instrument = self._register(given, self._gauges, Gauge(name, labels))
        return instrument

    def histogram(
        self,
        name: str,
        reservoir: int = DEFAULT_RESERVOIR,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        given = ("h", name, tuple(labels.items()) if labels else ())
        instrument = self._given.get(given)
        if instrument is None:
            instrument = self._register(given, self._histograms, Histogram(
                name, reservoir=reservoir, quantiles=quantiles, labels=labels,
            ))
        return instrument

    def bound(self, **labels: str) -> "BoundRegistry":
        """A view of this registry whose :meth:`counter` adds ``labels``
        to every series it names: one component's counters, kept apart
        from a peer's of the same name (``registry.bound(tenant="a")``,
        as ``QueryLog.bound`` stamps a tenant's log records)."""
        return BoundRegistry(self, labels)

    def counters_with_prefix(self, prefix: str) -> Dict[str, float]:
        """``{suffix: value}`` for every unlabeled counter named
        ``prefix + suffix`` (labeled families use :meth:`labeled_values`)."""
        return {
            name[len(prefix):]: c.value
            for (name, labels), c in sorted(self._counters.items())
            if labels == () and name.startswith(prefix)
        }

    def labeled_values(self, name: str, label: str) -> Dict[str, float]:
        """``{label value: counter value}`` for the counter family ``name``
        (one entry per distinct value of ``label``)."""
        out: Dict[str, float] = {}
        for (n, labels), c in sorted(self._counters.items()):
            if n != name:
                continue
            for k, v in labels:
                if k == label:
                    out[v] = out.get(v, 0.0) + c.value
        return out

    def labeled_histograms(self, name: str, label: str) -> Dict[str, Histogram]:
        """``{label value: histogram}`` for the histogram family ``name``."""
        out: Dict[str, Histogram] = {}
        for (n, labels), h in sorted(self._histograms.items()):
            if n != name:
                continue
            for k, v in labels:
                if k == label:
                    out[v] = h
        return out

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A JSON-friendly dump of every instrument (labeled instruments
        appear under ``name{k="v"}`` keys)."""
        return {
            "counters": {
                _display_name(n, ls): c.value
                for (n, ls), c in sorted(self._counters.items())
            },
            "gauges": {
                _display_name(n, ls): g.value
                for (n, ls), g in sorted(self._gauges.items())
            },
            "histograms": {
                _display_name(n, ls): h.snapshot()
                for (n, ls), h in sorted(self._histograms.items())
            },
        }

    # ------------------------------------------------------------------
    # Prometheus text exposition (format version 0.0.4)
    # ------------------------------------------------------------------
    def to_prometheus(self, namespace: str = "repro") -> str:
        """The registry in the Prometheus text exposition format.

        * counters → ``# TYPE … counter``;
        * gauges → ``# TYPE … gauge`` (unset gauges are omitted);
        * histograms → ``# TYPE … summary`` with one ``quantile``-labeled
          sample per configured quantile plus ``_sum``/``_count`` (and a
          ``_max`` gauge, which plain summaries lack).

        Metric names are sanitised to ``[a-zA-Z0-9_:]`` and prefixed with
        ``namespace_``; label values are escaped per the spec.
        """
        lines: list = []
        for name, family in _families(self._counters):
            _type_line(lines, _prom_name(namespace, name), "counter")
            for labels, c in family:
                lines.append(
                    "%s%s %s"
                    % (_prom_name(namespace, name), _prom_labels(labels),
                       _prom_value(c.value))
                )
        for name, family in _families(self._gauges):
            samples = [(labels, g) for labels, g in family if g.value is not None]
            if not samples:
                continue
            _type_line(lines, _prom_name(namespace, name), "gauge")
            for labels, g in samples:
                lines.append(
                    "%s%s %s"
                    % (_prom_name(namespace, name), _prom_labels(labels),
                       _prom_value(g.value))
                )
        for name, family in _families(self._histograms):
            metric = _prom_name(namespace, name)
            _type_line(lines, metric, "summary")
            for labels, h in family:
                for q in h.quantiles:
                    value = h.quantile(q)
                    if value is None:
                        continue
                    q_labels = labels + (("quantile", "%g" % q),)
                    lines.append(
                        "%s%s %s" % (metric, _prom_labels(q_labels), _prom_value(value))
                    )
                lines.append(
                    "%s_sum%s %s" % (metric, _prom_labels(labels), _prom_value(h.sum))
                )
                lines.append("%s_count%s %d" % (metric, _prom_labels(labels), h.count))
            _type_line(lines, metric + "_max", "gauge")
            for labels, h in family:
                lines.append(
                    "%s_max%s %s" % (metric, _prom_labels(labels), _prom_value(h.max))
                )
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        """Zero every instrument (instruments themselves are kept)."""
        for c in self._counters.values():
            c.reset()
        for g in self._gauges.values():
            g.reset()
        for h in self._histograms.values():
            h.reset()

    def __repr__(self) -> str:
        return "MetricsRegistry(%d counters, %d gauges, %d histograms)" % (
            len(self._counters), len(self._gauges), len(self._histograms),
        )


class BoundRegistry:
    """:meth:`MetricsRegistry.bound`: counters of the underlying registry,
    each carrying the bound labels beside its own."""

    __slots__ = ("registry", "labels")

    def __init__(self, registry: MetricsRegistry, labels: Mapping[str, str]):
        self.registry = registry
        self.labels = dict(labels)

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        merged = dict(self.labels)
        if labels:
            merged.update(labels)
        return self.registry.counter(name, merged)

    def __repr__(self) -> str:
        return "BoundRegistry(%r, %r)" % (self.labels, self.registry)


def _families(store: Dict[Tuple[str, LabelsKey], Any]):
    """``(name, [(labels, instrument), …])`` per metric family, sorted."""
    grouped: Dict[str, list] = {}
    for (name, labels), instrument in sorted(store.items()):
        grouped.setdefault(name, []).append((labels, instrument))
    return sorted(grouped.items())


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(namespace: str, name: str) -> str:
    metric = _PROM_INVALID.sub("_", name)
    if namespace:
        metric = "%s_%s" % (_PROM_INVALID.sub("_", namespace), metric)
    if metric and metric[0].isdigit():
        metric = "_" + metric
    return metric


def _prom_escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_labels(labels: LabelsKey) -> str:
    if not labels:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (_PROM_INVALID.sub("_", k), _prom_escape(v)) for k, v in labels
    )


def _prom_value(value: float) -> str:
    return repr(float(value))


def _type_line(lines, metric: str, kind: str) -> None:
    """Emit the ``# TYPE`` header once per metric family."""
    header = "# TYPE %s %s" % (metric, kind)
    if header not in lines:
        lines.append(header)


class NodeStatsCollector:
    """Per-key numeric accumulation — the WDPT evaluators use one per run
    to build the per-tree-node rows of ``EXPLAIN ANALYZE`` (key = node id).

    Allocated only when tracing is enabled, so the disabled-path cost at
    every instrumentation site is a single ``is None`` check.  Increments
    commute and take a lock, so a collector shared between threads loses
    none.
    """

    __slots__ = ("_rows", "_lock")

    def __init__(self) -> None:
        self._rows: Dict[Any, Dict[str, float]] = {}
        self._lock = threading.Lock()

    def add(self, key: Any, **increments: float) -> None:
        with self._lock:
            row = self._rows.setdefault(key, {})
            for name, amount in increments.items():
                row[name] = row.get(name, 0) + amount

    def tally(self, key: Any, field: str, label: str) -> None:
        """Count one ``label`` under ``field`` (a ``{label: count}`` dict)."""
        with self._lock:
            counts = self._rows.setdefault(key, {}).setdefault(field, {})
            counts[label] = counts.get(label, 0) + 1

    def rows(self) -> Dict[Any, Dict[str, Any]]:
        with self._lock:
            return {key: dict(row) for key, row in self._rows.items()}

    def __repr__(self) -> str:
        return "NodeStatsCollector(%d keys)" % len(self._rows)

