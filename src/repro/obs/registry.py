"""The metrics registry: one snapshot API over every operational counter.

Every operational number is declared once, beside the attribute that holds
it: an owner (broker, breaker, batch window, ``StageTimings``, flight
recorder, router counters, replay buffer, ...) carries a ``STATS`` table of
``(attribute, series, kind, help)`` rows.  Two renderings read that table:

* :meth:`MetricsRegistry.expose` registers one *function-backed* series per
  row that names one — ``registry.counter(name, help, read=...)`` — whose
  value is read off the owner only when someone scrapes, so the hot path
  keeps bumping plain Python ints and an unscraped registry costs nothing;
* :func:`stat_values` is the owner's section of a ``stats`` reply:
  ``{attribute: value}`` over the same rows.

Components may also own explicit :class:`Counter` / :class:`Gauge` /
:class:`Histogram` instruments they update themselves (the broker's
``decision_latency_ms``).

Snapshots are JSON-ready dicts (the control plane ships them in ``metrics``
replies) and render to the Prometheus text exposition format via
:func:`render_prometheus`, so the same endpoint feeds both the repo's own
ops tooling and a real scrape pipeline.

Lock discipline: instrument *creation* takes the registry lock; *updates* are
plain attribute writes.  Under CPython's GIL a bare ``+=`` on an int can lose
an increment only when two threads race the same instrument, which the
serving stack never does (each instrument has a single writer: the dispatch
thread, the event loop, or the manager loop).  That is the "lock-cheap"
contract: reads may be momentarily stale, updates never block the hot path.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, NamedTuple, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Stat",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "render_prometheus",
    "sample_value",
    "stat_values",
    "summarize_snapshot",
]

# Fixed decision-latency buckets (milliseconds).  Fixed — not adaptive — so
# bucket series from different shards, runs and versions are always mergeable.
DEFAULT_LATENCY_BUCKETS_MS = (
    0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
)


class Stat(NamedTuple):
    """One row of an owner's ``STATS`` table.

    ``attribute`` names a plain attribute, property or zero-argument method
    of the owner and is the number's key in a ``stats`` reply.  Rows that also
    name a ``series`` are registry series of ``kind`` (``"counter"`` or
    ``"gauge"``); with a ``label`` the attribute holds a ``{label value:
    number}`` mapping and the series carries one sample per entry.  Owners
    write rows as plain tuples (a shorter tuple is a ``stats``-only number).
    """

    attribute: str
    series: Optional[str] = None
    kind: Optional[str] = None
    help: str = ""
    label: Optional[str] = None


def _read_stat(owner, attribute: str):
    value = getattr(owner, attribute)
    return value() if callable(value) else value


def stat_values(owner) -> dict:
    """An owner's section of a ``stats`` reply: its ``STATS`` rows, read now."""
    return {row[0]: _read_stat(owner, row[0]) for row in owner.STATS}


def _label_key(label_names: Sequence[str], labels: dict) -> tuple:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {tuple(label_names)}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Instrument:
    """Shared identity of one named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)

    def _samples(self) -> list:
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "samples": self._samples(),
        }


class _ValueInstrument(_Instrument):
    """One number per label set: set by the owner, or read when scraped.

    ``read`` callables make a series *function-backed*: nothing runs until
    :meth:`_samples` (a snapshot) calls them.  An unlabelled series reads one
    number; a series with one label reads a ``{label value: number}`` mapping.
    """

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        read: Optional[Callable[[], object]] = None,
    ):
        super().__init__(name, help, label_names)
        if read is not None and len(self.label_names) > 1:
            raise ValueError("a function-backed series takes at most one label")
        self._values: dict[tuple, float] = {}
        self._readers: list = [] if read is None else [read]

    def value(self, **labels) -> float:
        return self._values.get(_label_key(self.label_names, labels), 0.0)

    def _samples(self) -> list:
        values = sorted(self._values.items())
        for read in self._readers:
            result = read()
            if self.label_names:
                values.extend(((str(key),), value) for key, value in result.items())
            else:
                values.append(((), result))
        return [
            {"labels": dict(zip(self.label_names, key)), "value": float(value)}
            for key, value in values
        ]


class Counter(_ValueInstrument):
    """A monotonically increasing count (events, decisions, errors)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_ValueInstrument):
    """A value that can go both ways (live sessions, buffer occupancy)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(self.label_names, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)


class Histogram(_Instrument):
    """Fixed-bucket distribution (decision latency, batch sizes).

    Buckets are cumulative upper bounds, Prometheus-style; an implicit
    ``+Inf`` bucket always exists.  ``observe`` is a linear scan over a
    handful of bounds — no allocation, no lock.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        label_names: Sequence[str] = (),
    ):
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        # key -> (per-bucket counts incl. +Inf, sum, count)
        self._series: dict[tuple, list] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(self.label_names, labels)
        series = self._series.get(key)
        if series is None:
            series = [[0] * (len(self.bounds) + 1), 0.0, 0]
            self._series[key] = series
        counts, _, _ = series
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[len(self.bounds)] += 1
        series[1] += value
        series[2] += 1

    def _samples(self) -> list:
        samples = []
        for key, (counts, total, count) in sorted(self._series.items()):
            cumulative, buckets = 0, []
            for bound, bucket_count in zip(self.bounds, counts):
                cumulative += bucket_count
                buckets.append([bound, cumulative])
            buckets.append(["+Inf", count])
            samples.append(
                {
                    "labels": dict(zip(self.label_names, key)),
                    "buckets": buckets,
                    "sum": total,
                    "count": count,
                }
            )
        return samples


class MetricsRegistry:
    """Create instruments and produce one snapshot of all of them."""

    def __init__(self, namespace: str = "decima"):
        self.namespace = namespace
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    # ------------------------------------------------------------ instruments
    def _register(self, instrument: _Instrument) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(instrument.name)
            if existing is not None:
                if type(existing) is not type(instrument):
                    raise ValueError(
                        f"metric {instrument.name!r} already registered as "
                        f"{existing.kind}"
                    )
                if isinstance(instrument, _ValueInstrument):
                    # Registering a name again adds the new reader to the one
                    # family (one more sample source), never a second family.
                    existing._readers.extend(instrument._readers)
                return existing
            self._instruments[instrument.name] = instrument
            return instrument

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        read: Optional[Callable[[], object]] = None,
    ) -> Counter:
        return self._register(Counter(name, help, labels, read))  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        read: Optional[Callable[[], object]] = None,
    ) -> Gauge:
        return self._register(Gauge(name, help, labels, read))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        labels: Sequence[str] = (),
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets, labels))  # type: ignore[return-value]

    def expose(self, owner) -> None:
        """Put every ``STATS`` row of ``owner`` that names a series on this
        registry, read off the owner's attribute at snapshot time."""
        for row in (Stat(*row) for row in owner.STATS):
            if row.series is None:
                continue
            create = {"counter": self.counter, "gauge": self.gauge}[row.kind]
            create(
                row.series,
                row.help,
                labels=() if row.label is None else (row.label,),
                read=functools.partial(_read_stat, owner, row.attribute),
            )

    # --------------------------------------------------------------- snapshot
    def snapshot(self) -> dict:
        """Every instrument as one JSON-ready dict."""
        with self._lock:
            instruments = list(self._instruments.values())
        return {instrument.name: instrument.describe() for instrument in instruments}

    def prometheus(self, extra_labels: Optional[dict] = None) -> str:
        """The snapshot in Prometheus text exposition format."""
        return render_prometheus(
            self.snapshot(), namespace=self.namespace, extra_labels=extra_labels
        )


# ------------------------------------------------------------------ rendering
def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '{}="{}"'.format(
            name,
            str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"),
        )
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(
    snapshot: dict, namespace: str = "decima", extra_labels: Optional[dict] = None
) -> str:
    """Render a snapshot (or a merged set of them) as Prometheus text.

    ``extra_labels`` is attached to every sample — the router uses it to tag
    each shard's snapshot with ``shard="N"`` before concatenating, so one
    scrape of the control plane sees the whole fleet with standard labels.
    """
    extra = dict(extra_labels or {})
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        full_name = f"{namespace}_{name}" if namespace else name
        if family.get("help"):
            lines.append(f"# HELP {full_name} {family['help']}")
        lines.append(f"# TYPE {full_name} {family.get('type', 'untyped')}")
        for sample in family.get("samples", []):
            labels = {**sample.get("labels", {}), **extra}
            if family.get("type") == "histogram":
                for bound, count in sample["buckets"]:
                    bucket_labels = {**labels, "le": bound}
                    lines.append(
                        f"{full_name}_bucket{_format_labels(bucket_labels)} {count}"
                    )
                lines.append(f"{full_name}_sum{_format_labels(labels)} {sample['sum']}")
                lines.append(
                    f"{full_name}_count{_format_labels(labels)} {sample['count']}"
                )
            else:
                lines.append(f"{full_name}{_format_labels(labels)} {sample['value']}")
    return "\n".join(lines) + "\n" if lines else ""


def sample_value(snapshot: dict, name: str, labels: Optional[dict] = None):
    family = snapshot.get(name)
    if not family:
        return None
    for sample in family.get("samples", []):
        if labels is None or all(
            sample.get("labels", {}).get(k) == v for k, v in labels.items()
        ):
            return sample.get("value", sample.get("count"))
    return None


def summarize_snapshot(snapshot: dict) -> str:
    """One human-readable ops line from a registry snapshot.

    The shared live-surface formatter: ``run_policy_server.py
    --stats-interval`` and the loadgen's ``--watch`` mode both print this
    instead of hand-rolled dicts.  Missing series degrade to ``-`` so the
    line works against any subset of the serving stack.
    """

    def fmt(value, spec="{:.0f}"):
        return "-" if value is None else spec.format(value)

    version = sample_value(snapshot, "policy_version")
    decisions = sample_value(snapshot, "decisions_total")
    fallbacks = sample_value(snapshot, "fallback_decisions_total")
    sessions = sample_value(snapshot, "sessions_open")
    delta = sample_value(snapshot, "graph_delta_refreshes_total")
    full = sample_value(snapshot, "graph_full_refreshes_total")
    rebuilds = sample_value(snapshot, "graph_rebuilds_total")
    parts = [
        f"v{fmt(version)}",
        f"sessions={fmt(sessions)}",
        f"decisions={fmt(decisions)} (fallback {fmt(fallbacks)})",
        f"features: {fmt(delta)} delta / {fmt(full)} full / {fmt(rebuilds)} rebuilds",
    ]
    stage_family = snapshot.get("stage_mean_ms")
    if stage_family and stage_family.get("samples"):
        stages = " ".join(
            f"{sample['labels'].get('stage', '?')} {sample['value']:.2f}"
            for sample in stage_family["samples"]
        )
        parts.append(f"stage ms/step: {stages}")
    latency = snapshot.get("decision_latency_ms")
    if latency and latency.get("samples"):
        sample = latency["samples"][0]
        if sample["count"]:
            parts.append(
                f"latency mean {sample['sum'] / sample['count']:.2f} ms "
                f"(n={sample['count']})"
            )
    return " | ".join(parts)
