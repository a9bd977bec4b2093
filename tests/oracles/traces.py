"""The trace collector converting span records as they arrive.

:class:`~repro.cluster.telemetry.TraceCollector` stores each arrival's
span records raw and converts them only when a trace is read.  This
oracle keeps the eager path it replaced: every record becomes a Chrome
complete event when it lands, and process labels are remembered per
pid.  Eviction is left out; the retention suite compares rendered
traces only.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional


class EagerTraceCollector:
    """Span records converted to Chrome events on arrival."""

    def __init__(self) -> None:
        self._traces: "OrderedDict[str, List[Dict[str, Any]]]" = OrderedDict()
        self._process_labels: Dict[int, str] = {}

    def add_records(
        self,
        trace_id: str,
        records: List[Dict[str, Any]],
        label: Optional[str] = None,
    ) -> None:
        events = []
        for record in records:
            try:
                name = str(record["name"])
                pid = int(record["pid"])
                event = {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": float(record["ts_us"]),
                    "dur": float(record["dur_us"]),
                    "pid": pid,
                    "tid": int(record.get("tid", 0)),
                    "args": {
                        **dict(record.get("args") or {}),
                        "trace_id": trace_id,
                        "span_id": record.get("span_id"),
                        "parent_span_id": record.get("parent_span_id"),
                    },
                }
            except (KeyError, TypeError, ValueError):
                continue
            events.append(event)
        if not events:
            return
        if label:
            for event in events:
                self._process_labels[event["pid"]] = label
        self._traces.setdefault(trace_id, []).extend(events)
        self._traces.move_to_end(trace_id)

    def chrome_trace(
        self, trace_id: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        if trace_id is None:
            trace_id = next(reversed(self._traces), None)
        if trace_id is None or trace_id not in self._traces:
            return None
        events = [dict(e) for e in self._traces[trace_id]]
        origin = min(e["ts"] for e in events)
        for event in events:
            event["ts"] -= origin
        events.sort(key=lambda e: (e["ts"], e["pid"]))
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": self._process_labels.get(pid, f"pid {pid}")},
            }
            for pid in sorted({e["pid"] for e in events})
        ]
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": trace_id},
        }
