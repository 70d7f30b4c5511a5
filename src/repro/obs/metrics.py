"""One labelled metrics registry over every counter the system ticks.

The runtime (:class:`~repro.runtime.stats.RuntimeStats`), the index
layer (per-tree :class:`~repro.stats.counters.PageAccessCounter`) and
the serving tier (:class:`~repro.serve.stats.ServeStats` with its
latency histograms) each grew their own snapshot dialect.
:class:`MetricsRegistry` registers them all as *sources* and renders
one hierarchical snapshot — exportable as JSON (the schema
``benchmarks/run_all.py --json`` embeds) or Prometheus text exposition
format (``repro-obs export --format prometheus``).

A source is ``(group, provider, label)``: ``provider()`` returns a
flat mapping of metric name to value, or — when ``label`` names a
label key — a mapping of label value to such a flat mapping (one
family per tree, per request kind...).  Providers are called at
snapshot time, so the registry is always live and registration is
free.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping

__all__ = ["MetricsRegistry"]

Provider = Callable[[], Mapping[str, Any]]


def _prom_name(raw: str) -> str:
    """Sanitise a metric-name fragment for Prometheus."""
    out = []
    for ch in raw:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    name = "".join(out)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_label_value(raw: str) -> str:
    return raw.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class MetricsRegistry:
    """A live registry of counter sources with JSON/Prometheus export."""

    def __init__(self) -> None:
        self._sources: list[tuple[str, Provider, str | None]] = []

    def register(
        self, group: str, provider: Provider, *, label: str | None = None
    ) -> None:
        """Add one source under ``group``.

        With ``label=None`` the provider returns ``{metric: value}``;
        with ``label="tree"`` (say) it returns
        ``{tree_name: {metric: value}}`` and the first nesting level
        becomes a Prometheus label instead of part of the metric name.
        """
        self._sources.append((group, provider, label))

    @property
    def groups(self) -> list[str]:
        """Registered group names, in registration order, deduplicated."""
        seen: list[str] = []
        for group, __, __label in self._sources:
            if group not in seen:
                seen.append(group)
        return seen

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Every source's current values as one hierarchical dict."""
        doc: dict[str, dict[str, Any]] = {}
        for group, provider, __ in self._sources:
            data = provider()
            if data is None:
                continue
            doc.setdefault(group, {}).update(data)
        return doc

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    # ---------------------------------------------------------- prometheus

    def to_prometheus(self, prefix: str = "repro") -> str:
        """The snapshot in Prometheus text exposition format.

        All metrics are exposed as gauges (the counters are externally
        resettable via ``reset_stats``, so ``counter`` semantics would
        lie); string values become ``*_info`` gauges carrying the
        string as a label.
        """
        samples: dict[str, list[tuple[dict[str, str], float]]] = {}
        for group, provider, label in self._sources:
            data = provider()
            if not data:
                continue
            base = f"{_prom_name(prefix)}_{_prom_name(group)}"
            if label is None:
                self._collect(samples, base, {}, data)
            else:
                for label_value, sub in data.items():
                    self._collect(
                        samples,
                        base,
                        {label: str(label_value)},
                        sub if isinstance(sub, Mapping) else {"value": sub},
                    )
        lines: list[str] = []
        for name in sorted(samples):
            lines.append(f"# TYPE {name} gauge")
            for labels, value in samples[name]:
                if labels:
                    inner = ",".join(
                        f'{_prom_name(k)}="{_prom_label_value(v)}"'
                        for k, v in sorted(labels.items())
                    )
                    lines.append(f"{name}{{{inner}}} {value:g}")
                else:
                    lines.append(f"{name} {value:g}")
        return "\n".join(lines) + "\n" if lines else ""

    @staticmethod
    def _collect(
        samples: dict[str, list[tuple[dict[str, str], float]]],
        base: str,
        labels: dict[str, str],
        data: Mapping[str, Any],
    ) -> None:
        for key, value in data.items():
            name = f"{base}_{_prom_name(key)}"
            if isinstance(value, bool):
                samples.setdefault(name, []).append((labels, 1.0 if value else 0.0))
            elif isinstance(value, (int, float)):
                samples.setdefault(name, []).append((labels, float(value)))
            elif isinstance(value, str):
                info_labels = dict(labels)
                info_labels[_prom_name(key)] = value
                samples.setdefault(f"{name}_info", []).append((info_labels, 1.0))
            elif isinstance(value, Mapping):
                MetricsRegistry._collect(samples, name, labels, value)
            # other types (lists...) are JSON-only and skipped here

    # -------------------------------------------------------- constructors

    @classmethod
    def for_database(cls, db: Any) -> "MetricsRegistry":
        """A registry over one :class:`~repro.core.engine.ObstacleDatabase`.

        Groups: ``runtime`` (the shared :class:`RuntimeStats`) and
        ``pages`` (per-tree page counters, labelled by ``tree``), plus
        ``pool`` when a persistent serving pool is up and ``journal``
        when the database is durable (write-ahead journal attached).
        """
        registry = cls()
        registry.register("runtime", db.runtime_stats)
        registry.register("pages", db.stats, label="tree")

        def pool_state() -> dict[str, int]:
            pool = getattr(db, "_serving_pool", None)
            if pool is None or getattr(pool, "_shut", True):
                return {}
            return {"workers": pool.workers, "alive": 1}

        def journal_state() -> dict[str, int | float]:
            journal = db.journal
            if journal is None:
                return {}
            stats = db.runtime_stats()
            appended = stats["journal_bytes"]
            # Physical durable bytes written per byte of journaled
            # mutation: 1.0 while appends only grow the log, rising
            # with every compaction's base-snapshot rewrite (the
            # log-structured GC cost).
            total = appended + stats["compaction_bytes"]
            return {
                "attached": 1,
                "size_bytes": journal.size,
                "records": journal.record_count,
                "journal_appends": stats["journal_appends"],
                "journal_bytes": appended,
                "compactions": stats["compactions"],
                "compaction_bytes": stats["compaction_bytes"],
                "write_amplification": (
                    total / appended if appended else 0.0
                ),
            }

        registry.register("pool", pool_state)
        registry.register("journal", journal_state)
        return registry

    @classmethod
    def for_server(cls, server: Any) -> "MetricsRegistry":
        """A registry over a :class:`~repro.serve.server.QueryServer`:
        the database's groups plus ``serve`` (front-end counters and
        the ``queue_wait`` histogram, admission to dispatch start) and
        ``serve_latency`` (per-kind histograms, labelled by ``kind``)."""
        registry = cls.for_database(server.db)
        stats = server.stats

        def serve_counters() -> dict[str, Any]:
            return {
                "requests": stats.requests,
                "completed": stats.completed,
                "failed": stats.failed,
                "batches": stats.batches,
                "coalesced": stats.coalesced,
                "in_flight": stats.in_flight,
                "in_flight_peak": stats.in_flight_peak,
                "queue_wait": stats.queue_wait.snapshot(),
            }

        def latency() -> dict[str, dict[str, float]]:
            return {
                kind: hist.snapshot()
                for kind, hist in stats.histograms.items()
            }

        registry.register("serve", serve_counters)
        registry.register("serve_latency", latency, label="kind")
        return registry
