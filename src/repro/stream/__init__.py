"""``repro.stream`` — streaming ingestion for EV-Matching.

The batch pipeline (:mod:`repro.datagen` → :mod:`repro.sensing`)
builds a complete :class:`~repro.sensing.scenarios.ScenarioStore` in
one pass.  This package feeds the same stores — and the live serving
layer — from *unbounded, unordered* sensor-event streams instead:

* :mod:`repro.stream.events` — the transported items: columnar
  sighting batches and camera frames, counted as events;
* :mod:`repro.stream.sources` — trace replay (speedup/jitter) and a
  synthetic live generator;
* :mod:`repro.stream.watermark` — event-time watermarking with
  bounded lateness;
* :mod:`repro.stream.assembler` — windowed EV-scenario assembly,
  closing windows on watermark advance;
* :mod:`repro.stream.queues` — bounded admission with block/shed
  backpressure;
* :mod:`repro.stream.checkpoint` — crash-tolerant JSON snapshots;
* :mod:`repro.stream.pipeline` — the orchestrator and its sinks;
* :mod:`repro.stream.equivalence` — the checkable batch-equivalence
  guarantee.

See the "Streaming ingestion" section of ``docs/architecture.md``.
"""

from repro.stream.assembler import ClosedWindow, OpenWindow, WindowAssembler
from repro.stream.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointMismatch,
    StreamCheckpoint,
    load_checkpoint,
    restore_into,
    save_checkpoint,
    scenario_from_json,
    scenario_to_json,
    snapshot,
)
from repro.stream.equivalence import (
    diff_stores,
    scenario_digest,
    store_digest,
    stores_equivalent,
)
from repro.stream.events import (
    SightingBatch,
    StreamItem,
    event_count,
    event_kind,
)
from repro.stream.pipeline import (
    DurableStoreSink,
    ServiceSink,
    StoreSink,
    StreamConfig,
    StreamPipeline,
    StreamReport,
)
from repro.stream.queues import POLICIES, BoundedEventQueue
from repro.stream.sources import (
    ReplayConfig,
    SyntheticLiveSource,
    TraceReplaySource,
)
from repro.stream.watermark import WatermarkTracker

__all__ = [
    "BoundedEventQueue",
    "CHECKPOINT_VERSION",
    "CheckpointMismatch",
    "DurableStoreSink",
    "ClosedWindow",
    "OpenWindow",
    "POLICIES",
    "ReplayConfig",
    "ServiceSink",
    "SightingBatch",
    "StoreSink",
    "StreamCheckpoint",
    "StreamConfig",
    "StreamItem",
    "StreamPipeline",
    "StreamReport",
    "SyntheticLiveSource",
    "TraceReplaySource",
    "WatermarkTracker",
    "WindowAssembler",
    "diff_stores",
    "event_count",
    "event_kind",
    "load_checkpoint",
    "restore_into",
    "save_checkpoint",
    "scenario_from_json",
    "scenario_to_json",
    "scenario_digest",
    "snapshot",
    "store_digest",
    "stores_equivalent",
]
