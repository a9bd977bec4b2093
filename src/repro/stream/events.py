"""Stream items: the units of streaming ingestion.

The streaming layer transports exactly the raw sensor records the
batch :class:`~repro.sensing.builder.ScenarioBuilder` aggregates, in
two shapes:

* :class:`~repro.sensing.builder.SightingBatch` — an arrival-ordered
  run of cell-attributed electronic sightings held as columns (the E
  side; a window's sightings travel as one batch, or as a few runs
  when jitter interleaves them with frames);
* :class:`~repro.sensing.builder.VFrame` — one cell's camera frame for
  a window, stamped with the window's middle tick (the V side).

Items are transported whole but *counted as events*: a batch of n
sightings is n events for every event-granular figure (events
applied, the ``max_events`` kill, the checkpoint resume offset, late
drops, sheds and the per-kind event counters).  Every sighting and
frame carries its **event time** as a tick; arrival order is whatever
the network delivered (the sources can jitter it), and the watermark
machinery reconciles the two.
"""

from __future__ import annotations

from typing import Union

from repro.sensing.builder import SightingBatch, VFrame

#: Anything a source may emit and the assembler must accept.
StreamItem = Union[SightingBatch, VFrame]


def event_kind(item: StreamItem) -> str:
    """``"e"`` for electronic sightings, ``"v"`` for camera frames."""
    return "v" if isinstance(item, VFrame) else "e"


def event_count(item: StreamItem) -> int:
    """How many events the item carries."""
    return 1 if isinstance(item, VFrame) else len(item)


__all__ = [
    "SightingBatch",
    "StreamItem",
    "VFrame",
    "event_count",
    "event_kind",
]
