"""Bounded time-series metrics for the serving stack.

The serve path used to answer every ``stats`` request by rescanning an
unbounded span list, so snapshot cost and memory grew with request
count.  This module replaces that with three O(1)-per-event primitives
and a registry tying them together:

* :class:`LatencyHistogram` — fixed log-spaced buckets (1e-5 s .. 1e2 s,
  8 per decade).  Observing is one bucket increment; percentiles are a
  single pass over ~56 buckets with log interpolation inside the
  winning bucket, independent of how many values were observed.
  Histograms merge bucket-wise, which is what makes windowing work.
* :class:`WindowedCounter` / :class:`WindowedGauge` — a monotonic total
  (or last-value gauge) plus a ring of per-second slots stamped with
  their wall second, so 1 s / 10 s / 60 s rolling sums, rates, and
  maxima cost one pass over at most 61 slots.
* :class:`WindowedHistogram` — a cumulative histogram plus a ring of
  per-second histograms; ``window(10)`` merges the last ten seconds
  into a fresh histogram for windowed percentiles.

:class:`MetricsRegistry` keys all three by ``(name, labels)`` under one
lock, renders Prometheus text exposition, and takes an injectable clock
so tests can step time deterministically.  Memory is fixed by
construction: nothing here retains per-request state.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Iterable

#: histogram bucket geometry: log-spaced from 10 microseconds to 100
#: seconds, 8 buckets per decade.  Upper bounds are exclusive; a final
#: overflow bucket catches anything >= 1e2 s (and negatives clamp to
#: the first bucket).
HIST_LO = 1e-5
HIST_HI = 1e2
HIST_PER_DECADE = 8

#: ring horizon in seconds: one more than the widest window we serve,
#: so a 60 s window never reads a slot that the current second is
#: about to overwrite
DEFAULT_HORIZON = 61

#: windows (seconds) rendered in deep snapshots
DEFAULT_WINDOWS = (1.0, 10.0, 60.0)

_DECADES = int(round(math.log10(HIST_HI / HIST_LO)))
_NBUCKETS = _DECADES * HIST_PER_DECADE  # plus one overflow bucket

#: shared exclusive upper bound per bucket, in seconds
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    HIST_LO * 10.0 ** ((i + 1) / HIST_PER_DECADE) for i in range(_NBUCKETS)
)


def bucket_index(seconds: float) -> int:
    """Bucket index for a latency value (clamped into range)."""
    if seconds <= HIST_LO:
        return 0
    if seconds >= HIST_HI:
        return _NBUCKETS  # overflow bucket
    i = int(math.log10(seconds / HIST_LO) * HIST_PER_DECADE)
    # float rounding can land one bucket low at exact boundaries
    if i < _NBUCKETS and seconds >= BUCKET_BOUNDS[i]:
        i += 1
    return min(i, _NBUCKETS)


class LatencyHistogram:
    """Fixed-bucket mergeable latency histogram.

    Not thread safe on its own; :class:`MetricsRegistry` serializes
    access.  ``counts`` has one overflow bucket past
    :data:`BUCKET_BOUNDS`."""

    __slots__ = ("counts", "count", "sum")

    def __init__(self) -> None:
        self.counts = [0] * (_NBUCKETS + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bucket_index(seconds)] += 1
        self.count += 1
        self.sum += max(seconds, 0.0)

    def merge(self, other: "LatencyHistogram") -> None:
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum

    def percentile(self, q: float) -> float:
        """Latency at quantile ``q`` (0..100), log-interpolated inside
        the winning bucket.  0.0 when empty."""
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile out of range: {q}")
        rank = max(1, math.ceil(self.count * q / 100.0))
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            seen += c
            if seen >= rank:
                if i >= _NBUCKETS:  # overflow: report the floor
                    return HIST_HI
                lo = HIST_LO if i == 0 else BUCKET_BOUNDS[i - 1]
                hi = BUCKET_BOUNDS[i]
                # position of the requested rank inside this bucket
                frac = (rank - (seen - c)) / c
                return lo * (hi / lo) ** frac
        return HIST_HI  # unreachable; counts sum to self.count

    def percentiles(self, qs: Iterable[float] = (50, 95, 99)) -> dict[str, float]:
        return {f"p{q:g}": self.percentile(q) for q in qs}

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _Ring:
    """Per-second slot ring stamped with the owning wall second.

    Shared machinery for the windowed primitives: ``slot(sec)`` returns
    the live slot for a wall second (resetting it if it still holds a
    stale lap), ``live(sec, seconds)`` yields slots covering the last
    ``seconds`` whole seconds ending at ``sec`` inclusive."""

    __slots__ = ("horizon", "stamps", "slots")

    def __init__(self, horizon: int, make: Callable[[], Any]) -> None:
        self.horizon = horizon
        self.stamps = [-1] * horizon
        self.slots = [make() for _ in range(horizon)]

    def slot(self, sec: int, reset: Callable[[Any], Any]) -> Any:
        i = sec % self.horizon
        if self.stamps[i] != sec:
            self.stamps[i] = sec
            self.slots[i] = reset(self.slots[i])
        return self.slots[i]

    def live(self, sec: int, seconds: float) -> Iterable[Any]:
        span = max(1, min(int(math.ceil(seconds)), self.horizon - 1))
        lo = sec - span + 1
        for i, stamp in enumerate(self.stamps):
            if lo <= stamp <= sec:
                yield self.slots[i]


class WindowedCounter:
    """Monotonic counter with per-second rolling windows."""

    __slots__ = ("total", "_ring")

    def __init__(self, horizon: int = DEFAULT_HORIZON) -> None:
        self.total = 0.0
        self._ring = _Ring(horizon, lambda: 0.0)

    def add(self, value: float, now: float) -> None:
        self.total += value
        sec = int(now)
        i = sec % self._ring.horizon
        if self._ring.stamps[i] != sec:
            self._ring.stamps[i] = sec
            self._ring.slots[i] = 0.0
        self._ring.slots[i] += value

    def window_sum(self, seconds: float, now: float) -> float:
        return sum(self._ring.live(int(now), seconds))

    def rate(self, seconds: float, now: float) -> float:
        """Events per second over the trailing window."""
        span = max(1.0, min(float(seconds), self._ring.horizon - 1))
        return self.window_sum(seconds, now) / span


class WindowedGauge:
    """Last-value gauge that also keeps a per-second maximum ring."""

    __slots__ = ("last", "peak", "_ring")

    def __init__(self, horizon: int = DEFAULT_HORIZON) -> None:
        self.last = 0.0
        self.peak = 0.0
        self._ring = _Ring(horizon, lambda: 0.0)

    def set(self, value: float, now: float) -> None:
        self.last = value
        self.peak = max(self.peak, value)
        sec = int(now)
        i = sec % self._ring.horizon
        if self._ring.stamps[i] != sec:
            self._ring.stamps[i] = sec
            self._ring.slots[i] = value
        else:
            self._ring.slots[i] = max(self._ring.slots[i], value)

    def window_max(self, seconds: float, now: float) -> float:
        return max(self._ring.live(int(now), seconds), default=0.0)


class WindowedHistogram:
    """Cumulative histogram plus per-second histogram ring."""

    __slots__ = ("cumulative", "_ring")

    def __init__(self, horizon: int = DEFAULT_HORIZON) -> None:
        self.cumulative = LatencyHistogram()
        self._ring = _Ring(horizon, LatencyHistogram)

    def observe(self, seconds: float, now: float) -> None:
        self.cumulative.observe(seconds)
        self._ring.slot(int(now), lambda _old: LatencyHistogram()).observe(seconds)

    def window(self, seconds: float, now: float) -> LatencyHistogram:
        merged = LatencyHistogram()
        for h in self._ring.live(int(now), seconds):
            merged.merge(h)
        return merged


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _label_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


def _prom_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + body + "}"


class MetricsRegistry:
    """Thread-safe collection of windowed counters, gauges, histograms.

    All metric families live in one registry keyed by
    ``(name, sorted label items)``; one lock serializes every
    operation, which is cheap because each operation is O(1) or
    O(buckets).  ``clock`` defaults to :func:`time.monotonic` and is
    injectable so tests can step time by hand."""

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        horizon: int = DEFAULT_HORIZON,
    ) -> None:
        if horizon < 2:
            raise ValueError(f"horizon must be >= 2, got {horizon}")
        self._clock = clock
        self._horizon = horizon
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, tuple], WindowedCounter] = {}
        self._gauges: dict[tuple[str, tuple], WindowedGauge] = {}
        self._hists: dict[tuple[str, tuple], WindowedHistogram] = {}

    # -- write side --------------------------------------------------------

    def inc(
        self, name: str, value: float = 1.0, labels: dict[str, str] | None = None
    ) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = WindowedCounter(self._horizon)
            c.add(value, self._clock())

    def set_gauge(
        self, name: str, value: float, labels: dict[str, str] | None = None
    ) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            g = self._gauges.get(key)
            if g is None:
                g = self._gauges[key] = WindowedGauge(self._horizon)
            g.set(value, self._clock())

    def observe(
        self, name: str, seconds: float, labels: dict[str, str] | None = None
    ) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            h = self._hists.get(key)
            if h is None:
                h = self._hists[key] = WindowedHistogram(self._horizon)
            h.observe(seconds, self._clock())

    # -- read side ---------------------------------------------------------

    def counter_total(
        self, name: str, labels: dict[str, str] | None = None
    ) -> float:
        with self._lock:
            c = self._counters.get((name, _label_key(labels)))
            return c.total if c else 0.0

    def rate(
        self, name: str, seconds: float, labels: dict[str, str] | None = None
    ) -> float:
        with self._lock:
            c = self._counters.get((name, _label_key(labels)))
            return c.rate(seconds, self._clock()) if c else 0.0

    def gauge_peak(self, name: str, labels: dict[str, str] | None = None) -> float:
        with self._lock:
            g = self._gauges.get((name, _label_key(labels)))
            return g.peak if g else 0.0

    def gauge_window_max(
        self, name: str, seconds: float, labels: dict[str, str] | None = None
    ) -> float:
        with self._lock:
            g = self._gauges.get((name, _label_key(labels)))
            return g.window_max(seconds, self._clock()) if g else 0.0

    def percentiles(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        qs: Iterable[float] = (50, 95, 99),
        window: float | None = None,
    ) -> dict[str, float]:
        """Percentiles for a histogram family member.

        ``window=None`` reads the cumulative histogram; a number reads
        the merged trailing window of that many seconds.  Unknown
        families return all-zero percentiles (a server that has not
        seen a request kind yet is not an error)."""
        with self._lock:
            h = self._hists.get((name, _label_key(labels)))
            if h is None:
                hist = LatencyHistogram()
            elif window is None:
                hist = h.cumulative
            else:
                hist = h.window(window, self._clock())
        return hist.percentiles(qs)

    def merged_percentiles(
        self,
        name: str,
        qs: Iterable[float] = (50, 95, 99),
        window: float | None = None,
    ) -> dict[str, float]:
        """Percentiles over every label set of one histogram family
        merged together (e.g. request latency across all kinds)."""
        merged = LatencyHistogram()
        with self._lock:
            now = self._clock()
            for (n, _key), h in self._hists.items():
                if n != name:
                    continue
                merged.merge(
                    h.cumulative if window is None else h.window(window, now)
                )
        return merged.percentiles(qs)

    # -- snapshots ---------------------------------------------------------

    def snapshot(
        self, windows: Iterable[float] = DEFAULT_WINDOWS
    ) -> dict[str, Any]:
        """Point-in-time view of every family: totals, last/peak
        gauges, cumulative percentiles, and per-window rates, maxima,
        and percentiles.  Cost is O(families x windows x buckets) —
        independent of request count."""
        windows = tuple(windows)
        now = self._clock()
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            for (name, key), c in sorted(self._counters.items()):
                out["counters"][name + _prom_labels(key)] = {
                    "total": c.total,
                    "rates": {
                        f"{w:g}s": c.rate(w, now) for w in windows
                    },
                }
            for (name, key), g in sorted(self._gauges.items()):
                out["gauges"][name + _prom_labels(key)] = {
                    "last": g.last,
                    "peak": g.peak,
                    "window_max": {
                        f"{w:g}s": g.window_max(w, now) for w in windows
                    },
                }
            for (name, key), h in sorted(self._hists.items()):
                entry: dict[str, Any] = {
                    "count": h.cumulative.count,
                    "mean": h.cumulative.mean,
                    "overall": h.cumulative.percentiles(),
                }
                for w in windows:
                    win = h.window(w, now)
                    entry[f"{w:g}s"] = {
                        "count": win.count,
                        **win.percentiles(),
                    }
                out["histograms"][name + _prom_labels(key)] = entry
        return out

    def render_prometheus(self, namespace: str = "repro_serve") -> str:
        """Prometheus text exposition (version 0.0.4) of the registry.

        Counters render as ``_total``, gauges as-is, histograms as the
        standard cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``
        triple over the shared log-spaced bounds."""
        lines: list[str] = []
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            hists = sorted(self._hists.items())
            seen: set[str] = set()
            for (name, key), c in counters:
                full = f"{namespace}_{name}_total"
                if full not in seen:
                    seen.add(full)
                    lines.append(f"# TYPE {full} counter")
                lines.append(f"{full}{_prom_labels(key)} {c.total:g}")
            for (name, key), g in gauges:
                full = f"{namespace}_{name}"
                if full not in seen:
                    seen.add(full)
                    lines.append(f"# TYPE {full} gauge")
                lines.append(f"{full}{_prom_labels(key)} {g.last:g}")
            for (name, key), h in hists:
                full = f"{namespace}_{name}_seconds"
                if full not in seen:
                    seen.add(full)
                    lines.append(f"# TYPE {full} histogram")
                cum = 0
                for i, bound in enumerate(BUCKET_BOUNDS):
                    cum += h.cumulative.counts[i]
                    labels = _prom_labels(key + (("le", f"{bound:.6g}"),))
                    lines.append(f"{full}_bucket{labels} {cum}")
                labels = _prom_labels(key + (("le", "+Inf"),))
                lines.append(f"{full}_bucket{labels} {h.cumulative.count}")
                lines.append(
                    f"{full}_sum{_prom_labels(key)} {h.cumulative.sum:.9g}"
                )
                lines.append(f"{full}_count{_prom_labels(key)} {h.cumulative.count}")
        return "\n".join(lines) + "\n"
