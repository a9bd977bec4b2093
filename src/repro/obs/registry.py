"""A thread-safe metrics registry: counters, gauges, histograms.

The paper's evaluation hangs on *internal* quantities — E-Scenarios
examined, candidate-set shrink, detections extracted, task times on
the cluster — so the pipeline needs first-class, exportable counters
rather than ad-hoc prints.  This module is the metrics half of
:mod:`repro.obs` (the span half lives in
:mod:`repro.obs.tracing`):

* Three instrument kinds, all label-aware and thread-safe:
  :class:`Counter` (monotonic), :class:`Gauge` (set/inc/dec), and
  :class:`Histogram` (fixed buckets for exposition *plus* a bounded
  reservoir for exact percentiles — one class serves both the
  Prometheus text format and the serving layer's p50/p95/p99).
* :class:`MetricsRegistry` owns instruments by name
  (get-or-create, kind-checked) and renders the whole family as
  Prometheus-style text exposition (``# HELP`` / ``# TYPE`` /
  ``name{label="v"} value``).
* A **process-global default registry** (:func:`get_registry` /
  :func:`set_registry`) that instrumented code reaches for, and a
  shared **no-op registry** (:func:`null_registry`) whose instruments
  drop everything — zero samples retained, empty exposition — for
  callers that must not pay even the bookkeeping.

Percentile convention (pinned, shared with the serving layer): the
**nearest-rank** method — the q-th percentile of ``n`` retained
samples is the ``max(1, ceil(q / 100 * n))``-th smallest.  It is
deterministic and always returns an actual sample: p50 of
``[1, 2, 3, 4]`` is **2** (the 2nd smallest), never an interpolated
2.5.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Default histogram buckets (seconds-flavored, Prometheus-style).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default reservoir size for exact percentiles.
DEFAULT_MAX_SAMPLES = 4096

LabelKey = Tuple[Tuple[str, str], ...]


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The q-th percentile (0-100) of ``samples`` by nearest rank.

    ``rank = max(1, ceil(q / 100 * n))``, 1-indexed into the sorted
    samples; p50 of ``[1, 2, 3, 4]`` is 2.  Returns 0.0 on no samples.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil((q / 100.0) * len(ordered)))
    return ordered[rank - 1]


#: Label keys one instrument keeps for label sets that repeat.
_MAX_KEPT_KEYS = 4096


def _label_key(labels: Dict[str, str]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and line-feed must be backslash-escaped."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP lines escape backslash and line-feed (not double-quote)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Instrument:
    """Common label-series plumbing; one lock per instrument."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._keys: Dict[Tuple[Tuple[str, Any], ...], LabelKey] = {}

    def _key(self, labels: Dict[str, Any]) -> LabelKey:
        """``_label_key(labels)``, kept by the label set's items in call
        order, so a label set that repeats (every request's ``verb``
        and ``status``) is not sorted again.  Only all-``str`` sets are
        kept: ``1``, ``1.0`` and ``True`` are equal items that render
        differently."""
        if not labels:
            return ()
        items = tuple(labels.items())
        try:
            key = self._keys.get(items)
        except TypeError:  # an unhashable label value
            return _label_key(labels)
        if key is None:
            key = _label_key(labels)
            if len(self._keys) < _MAX_KEPT_KEYS and all(
                type(value) is str for _, value in items
            ):
                self._keys[items] = key
        return key

    def series(self) -> List[Tuple[LabelKey, Any]]:  # pragma: no cover - abstract
        raise NotImplementedError

    def render(self) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Instrument):
    """A monotonically-increasing, label-aware counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label series."""
        with self._lock:
            return sum(self._values.values())

    def series(self) -> List[Tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())

    def render(self) -> List[str]:
        lines = self._header()
        for key, value in self.series():
            lines.append(f"{self.name}{_render_labels(key)} {value:g}")
        return lines


class Gauge(_Instrument):
    """A label-aware gauge: set to arbitrary values, inc/dec."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def series(self) -> List[Tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())

    def render(self) -> List[str]:
        lines = self._header()
        for key, value in self.series():
            lines.append(f"{self.name}{_render_labels(key)} {value:g}")
        return lines


class _HistogramSeries:
    """One label series of a histogram: buckets + bounded reservoir."""

    __slots__ = ("bucket_counts", "sum", "count", "reservoir")

    def __init__(self, num_buckets: int, max_samples: int) -> None:
        self.bucket_counts = [0] * (num_buckets + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0
        self.reservoir: Deque[float] = deque(maxlen=max_samples)


class Histogram(_Instrument):
    """Bucketed histogram with a bounded exact-percentile reservoir.

    The buckets serve Prometheus exposition
    (``name_bucket{le=...}`` / ``name_sum`` / ``name_count``); the
    reservoir keeps the most recent ``max_samples`` observations so
    :meth:`percentile` is exact over a sliding window (the serving
    layer's reporting contract) rather than bucket-interpolated.
    Percentiles follow the pinned nearest-rank convention — see the
    module docstring and :func:`nearest_rank`.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> None:
        super().__init__(name, help)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be non-empty and ascending: {buckets}")
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.buckets = tuple(float(b) for b in buckets)
        self.max_samples = max_samples
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def _series_for(self, key: LabelKey) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(len(self.buckets), self.max_samples)
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series_for(key)
            series.bucket_counts[bisect_left(self.buckets, value)] += 1
            series.sum += value
            series.count += 1
            series.reservoir.append(value)

    def observe_many(self, values: Iterable[float], **labels: str) -> None:
        """Record a batch of observations under one lock acquisition.

        Semantically identical to calling :meth:`observe` per value in
        order (same buckets, sum, count, and reservoir tail) — the
        batch form exists for hot paths that publish one value per
        item, e.g. the E stage's per-target candidate-set sizes.
        """
        values = list(values)
        if not values:
            return
        key = self._key(labels)
        with self._lock:
            series = self._series_for(key)
            counts = series.bucket_counts
            buckets = self.buckets
            for value in values:
                counts[bisect_left(buckets, value)] += 1
            series.sum += sum(values)
            series.count += len(values)
            series.reservoir.extend(values)

    def count(self, **labels: str) -> int:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.count if series else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.sum if series else 0.0

    def mean(self, **labels: str) -> float:
        with self._lock:
            series = self._series.get(self._key(labels))
            if series is None or series.count == 0:
                return 0.0
            return series.sum / series.count

    def samples(self, **labels: str) -> List[float]:
        """The retained reservoir (most recent observations)."""
        with self._lock:
            series = self._series.get(self._key(labels))
            return list(series.reservoir) if series else []

    def percentile(self, q: float, **labels: str) -> float:
        """Nearest-rank percentile over the retained window."""
        return nearest_rank(self.samples(**labels), q)

    def percentiles(
        self, qs: Iterable[float] = (50.0, 95.0, 99.0), **labels: str
    ) -> Dict[str, float]:
        samples = self.samples(**labels)
        return {f"p{q:g}": nearest_rank(samples, q) for q in qs}

    def series(self) -> List[Tuple[LabelKey, _HistogramSeries]]:
        with self._lock:
            return sorted(self._series.items(), key=lambda kv: kv[0])

    def render(self) -> List[str]:
        lines = self._header()
        for key, series in self.series():
            cumulative = 0
            for bound, count in zip(self.buckets, series.bucket_counts):
                cumulative += count
                labels = _render_labels(key, f'le="{bound:g}"')
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            cumulative += series.bucket_counts[-1]
            labels = _render_labels(key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {series.sum:g}")
            lines.append(f"{self.name}_count{_render_labels(key)} {series.count}")
        return lines


# ---------------------------------------------------------------------------
# No-op instruments: accept every call, retain nothing.


class _NullCounter(Counter):
    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float, **labels: str) -> None:
        pass

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float, **labels: str) -> None:
        pass

    def observe_many(self, values: Iterable[float], **labels: str) -> None:
        pass


class MetricsRegistry:
    """Named instruments behind one lock; Prometheus text exposition.

    Args:
        enabled: ``False`` builds a **no-op registry**: every
            instrument it hands out accepts calls and records nothing,
            and :meth:`render_prometheus` returns ``""``.  The shared
            process-wide no-op instance is :func:`null_registry`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, null_cls, name: str, help: str, **kwargs):
        if not self.enabled:
            cls = null_cls
        # Instruments are only ever added, so a family that exists is
        # found without the lock.
        existing = self._instruments.get(name)
        if existing is None:
            with self._lock:
                existing = self._instruments.get(name)
                if existing is None:
                    instrument = cls(name, help, **kwargs)
                    self._instruments[name] = instrument
                    return instrument
        if not isinstance(existing, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{existing.kind}, requested {cls.kind}"
            )
        return existing

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, _NullCounter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, _NullGauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, _NullHistogram, name, help,
            buckets=buckets, max_samples=max_samples,
        )

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{metric: {rendered-labels: value}}`` for counters/gauges,
        plus ``{metric: {labels: count}}`` for histograms."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            values: Dict[str, float] = {}
            for key, state in instrument.series():
                label = _render_labels(key) or "{}"
                if isinstance(state, _HistogramSeries):
                    values[label] = float(state.count)
                else:
                    values[label] = float(state)
            out[instrument.name] = values
        return out

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        if not self.enabled:
            return ""
        with self._lock:
            instruments = [
                self._instruments[name] for name in sorted(self._instruments)
            ]
        lines: List[str] = []
        for instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def export_state(self) -> Dict[str, Any]:
        """A JSON-able snapshot of every instrument's full state.

        The wire shape behind cluster metrics federation: workers ship
        this on heartbeats and the gateway re-bases + re-labels it.
        Counters/gauges export ``[labels, value]`` pairs; histograms
        export per-bucket counts plus sum/count (the percentile
        reservoir stays local — exact percentiles do not merge).
        """
        with self._lock:
            instruments = [
                self._instruments[name] for name in sorted(self._instruments)
            ]
        metrics: List[Dict[str, Any]] = []
        for instrument in instruments:
            entry: Dict[str, Any] = {
                "name": instrument.name,
                "kind": instrument.kind,
                "help": instrument.help,
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = list(instrument.buckets)
                entry["series"] = [
                    [
                        [list(pair) for pair in key],
                        {
                            "bucket_counts": list(state.bucket_counts),
                            "sum": state.sum,
                            "count": state.count,
                        },
                    ]
                    for key, state in instrument.series()
                ]
            else:
                entry["series"] = [
                    [[list(pair) for pair in key], value]
                    for key, value in instrument.series()
                ]
            metrics.append(entry)
        return {"metrics": metrics}


def merge_expositions(texts: Iterable[str]) -> str:
    """Merge Prometheus text expositions, deduping family headers.

    Concatenating registries repeats ``# HELP`` / ``# TYPE`` lines for
    any family present in more than one source (the service registry
    and the global registry both render ``ev_*`` families; federated
    worker expositions repeat every family per worker).  This re-groups
    samples by family, emits each family's headers exactly once (first
    source wins), and preserves first-seen family order.  Histogram
    ``_bucket`` / ``_sum`` / ``_count`` samples are grouped under their
    base family.
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family(name: str) -> Dict[str, Any]:
        entry = families.get(name)
        if entry is None:
            entry = {"help": None, "type": None, "samples": []}
            families[name] = entry
        return entry

    for text in texts:
        if not text:
            continue
        for line in text.splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith(("# HELP ", "# TYPE ")):
                parts = stripped.split(" ", 3)
                if len(parts) < 3:
                    continue
                entry = family(parts[2])
                slot = "help" if parts[1] == "HELP" else "type"
                if entry[slot] is None:
                    entry[slot] = stripped
                continue
            if stripped.startswith("#"):
                continue
            metric = stripped.split("{", 1)[0].split(" ", 1)[0]
            name = metric
            for suffix in ("_bucket", "_sum", "_count"):
                base = metric[: -len(suffix)] if metric.endswith(suffix) else ""
                if base and base in families:
                    name = base
                    break
            family(name)["samples"].append(stripped)

    lines: List[str] = []
    for entry in families.values():
        if entry["help"]:
            lines.append(entry["help"])
        if entry["type"]:
            lines.append(entry["type"])
        lines.extend(entry["samples"])
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Process-global default + shared no-op.

_NULL_REGISTRY = MetricsRegistry(enabled=False)
_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global default registry instrumented code records to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


def null_registry() -> MetricsRegistry:
    """The shared no-op registry (zero overhead, zero retention)."""
    return _NULL_REGISTRY
