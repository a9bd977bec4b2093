"""Checkpoint/restore: crash-tolerant streaming state snapshots.

A checkpoint is one JSON document capturing everything the pipeline
needs to resume a deterministic replay without duplicate scenario
emission:

* ``events_processed`` — how many source events the consumer has fully
  applied (the resume offset: the restored pipeline skips exactly this
  many events from the deterministic source);
* the **watermark state** (``max_tick``, ``events_seen``);
* the **open-window state** — per window: its on-time sightings as
  columns in arrival order (ticks, cells, EID indices, vague flags),
  and per cell its camera frame's tick and detections as
  ``[id, VID index, feature]`` rows written straight from the frame's
  columns (features serialized as exact-roundtrip JSON floats);
* ``next_window`` — the emitted-scenario high-water mark: every window
  below it was closed and handed to the sink before the snapshot, so
  the restored run never re-emits it;
* a **config fingerprint** (window/threshold/lateness parameters) so a
  restore under different semantics fails loudly instead of silently
  assembling different scenarios.

Writes are atomic (temp file + ``os.replace``), so a crash mid-write
leaves the previous checkpoint intact.  Scenarios closed *after* the
last checkpoint are re-assembled and re-offered on restore; the
pipeline's idempotent sinks suppress them, which is what keeps the
end-to-end guarantee "zero duplicate emissions" rather than merely
"at-least-once".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from repro.sensing.builder import SightingBatch, VFrame
from repro.sensing.scenarios import (
    EScenario,
    EVScenario,
    ScenarioKey,
    VScenario,
    detection_columns,
)
from repro.stream.assembler import OpenWindow, WindowAssembler
from repro.world.entities import EID, MAC_SPACE

#: Bumped whenever the snapshot layout changes incompatibly (2: open
#: windows hold sighting columns and frame ticks, not per-EID counts).
CHECKPOINT_VERSION = 2


class CheckpointMismatch(ValueError):
    """A snapshot cannot be restored into this pipeline configuration."""


@dataclass(frozen=True)
class StreamCheckpoint:
    """One decoded snapshot (see module docstring for field meaning)."""

    config: Dict[str, Any]
    events_processed: int
    max_tick: Optional[int]
    events_seen: int
    next_window: int
    late_dropped: int
    scenarios_emitted: int
    open_windows: Dict[int, OpenWindow]


def _detections_to_json(
    ids: np.ndarray, vids: np.ndarray, features: np.ndarray
) -> list:
    """Detection columns as ``[id, VID index, feature]`` rows."""
    return [
        [detection_id, vid, feature]
        for detection_id, vid, feature in zip(
            ids.tolist(), vids.tolist(), features.tolist()
        )
    ]


def _detections_from_json(
    payload: list,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`_detections_to_json`: the three columns."""
    if not payload:
        return detection_columns(())
    ids, vids, features = zip(*payload)
    return (
        np.array(ids, dtype=np.int64),
        np.array(vids, dtype=np.int64),
        np.array(features, dtype=np.float64),
    )


def scenario_to_json(scenario: EVScenario) -> Dict[str, Any]:
    """One emitted scenario as a JSON document (exact roundtrip,
    shared by the durable sink journal)."""
    v = scenario.v
    return {
        "cell": scenario.key.cell_id,
        "tick": scenario.key.tick,
        "inclusive": sorted(e.index for e in scenario.e.inclusive),
        "vague": sorted(e.index for e in scenario.e.vague),
        "detections": _detections_to_json(v.detection_ids, v.vids, v.features),
    }


def scenario_from_json(payload: Dict[str, Any]) -> EVScenario:
    """Inverse of :func:`scenario_to_json`."""
    key = ScenarioKey(cell_id=int(payload["cell"]), tick=int(payload["tick"]))
    return EVScenario(
        e=EScenario(
            key=key,
            inclusive=_eids_from_json(payload["inclusive"]),
            vague=_eids_from_json(payload["vague"]),
        ),
        v=VScenario(key, *_detections_from_json(payload["detections"])),
    )


def _eids_from_json(indices: Sequence[Any]) -> FrozenSet[EID]:
    """The EIDs of a decoded scenario.  Indices come from outside (the
    cluster ingest codec, a journal), and one outside the MAC space is
    malformed: the co-occurrence count holds indices as int64."""
    values = [int(i) for i in indices]
    if values and not (0 <= min(values) and max(values) < MAC_SPACE):
        raise ValueError(f"EID index outside the MAC space in {values}")
    return frozenset(map(EID, values))


class _EIDsByIndex(dict):
    """Index → EID table for restored sightings: a fresh :class:`EID`
    per index, made on first lookup."""

    def __missing__(self, index: int) -> EID:
        eid = self[index] = EID(index)
        return eid


def _window_to_json(state: OpenWindow) -> Dict[str, Any]:
    sightings = state.sightings()
    return {
        "sightings": {
            column: (
                [] if sightings is None else getattr(sightings, column).tolist()
            )
            for column in ("ticks", "cells", "eids", "vague")
        },
        "frames": {
            str(cell): {
                "tick": frame.tick,
                "detections": _detections_to_json(
                    frame.detection_ids, frame.vids, frame.features
                ),
            }
            for cell, frame in state.frames.items()
        },
    }


def _window_from_json(payload: Dict[str, Any]) -> OpenWindow:
    columns = payload["sightings"]
    chunks = []
    if columns["ticks"]:
        chunks.append(
            SightingBatch(
                ticks=np.asarray(columns["ticks"], dtype=np.int64),
                cells=np.asarray(columns["cells"], dtype=np.int64),
                eids=np.asarray(columns["eids"], dtype=np.int64),
                vague=np.asarray(columns["vague"], dtype=bool),
                eid_table=_EIDsByIndex(),
            )
        )
    return OpenWindow(
        chunks=chunks,
        frames={
            int(cell): VFrame(
                int(frame["tick"]),
                int(cell),
                *_detections_from_json(frame["detections"]),
            )
            for cell, frame in payload["frames"].items()
        },
    )


def snapshot(
    assembler: WindowAssembler,
    events_processed: int,
    scenarios_emitted: int,
    config: Dict[str, Any],
) -> StreamCheckpoint:
    """Capture the pipeline's resumable state as a checkpoint value."""
    return StreamCheckpoint(
        config=dict(config),
        events_processed=events_processed,
        max_tick=assembler.watermark.max_tick,
        events_seen=assembler.watermark.events_seen,
        next_window=assembler.next_window,
        late_dropped=assembler.late_dropped,
        scenarios_emitted=scenarios_emitted,
        open_windows=assembler.export_state(),
    )


def save_checkpoint(path: str, checkpoint: StreamCheckpoint) -> str:
    """Atomically write one snapshot; returns the path written."""
    document = {
        "version": CHECKPOINT_VERSION,
        "config": checkpoint.config,
        "events_processed": checkpoint.events_processed,
        "max_tick": checkpoint.max_tick,
        "events_seen": checkpoint.events_seen,
        "next_window": checkpoint.next_window,
        "late_dropped": checkpoint.late_dropped,
        "scenarios_emitted": checkpoint.scenarios_emitted,
        "open_windows": {
            str(window): _window_to_json(state)
            for window, state in checkpoint.open_windows.items()
        },
    }
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    os.replace(tmp_path, path)
    return path


def load_checkpoint(path: str) -> StreamCheckpoint:
    """Parse one snapshot written by :func:`save_checkpoint`."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    version = document.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointMismatch(
            f"checkpoint {path} has version {version!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    return StreamCheckpoint(
        config=document["config"],
        events_processed=int(document["events_processed"]),
        max_tick=(
            None if document["max_tick"] is None else int(document["max_tick"])
        ),
        events_seen=int(document["events_seen"]),
        next_window=int(document["next_window"]),
        late_dropped=int(document["late_dropped"]),
        scenarios_emitted=int(document["scenarios_emitted"]),
        open_windows={
            int(window): _window_from_json(state)
            for window, state in document["open_windows"].items()
        },
    )


def restore_into(
    assembler: WindowAssembler,
    checkpoint: StreamCheckpoint,
    config: Dict[str, Any],
) -> None:
    """Reinstate a snapshot into a fresh assembler, verifying that the
    pipeline semantics match the ones the snapshot was taken under."""
    if checkpoint.config != config:
        changed = sorted(
            key
            for key in set(checkpoint.config) | set(config)
            if checkpoint.config.get(key) != config.get(key)
        )
        raise CheckpointMismatch(
            "checkpoint was taken under a different stream configuration "
            f"(differing keys: {', '.join(changed)})"
        )
    assembler.import_state(
        checkpoint.open_windows,
        next_window=checkpoint.next_window,
        max_tick=checkpoint.max_tick,
        events_seen=checkpoint.events_seen,
        late_dropped=checkpoint.late_dropped,
    )
