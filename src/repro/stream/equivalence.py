"""Batch/stream equivalence checks.

The streaming guarantee is *scenario-for-scenario* equality: an
in-order replay of a trace through the streaming pipeline leaves the
sink's :class:`~repro.sensing.scenarios.ScenarioStore` identical to
the one the batch :class:`~repro.sensing.builder.ScenarioBuilder`
produces — same keys, same inclusive/vague EID sets, same detections
with bit-identical feature vectors.  The helpers here make that
statement checkable (and its failures debuggable): a canonical
per-scenario digest, a whole-store digest, and a structured diff.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

from repro.sensing.scenarios import EVScenario, ScenarioStore


def scenario_digest(scenario: EVScenario) -> str:
    """A canonical content hash of one scenario (key, attribution
    sets, detection ids/VIDs and exact feature bytes)."""
    hasher = hashlib.sha256()
    key = scenario.key
    hasher.update(f"{key.cell_id}:{key.tick}|".encode())
    inclusive = sorted(e.index for e in scenario.e.inclusive)
    vague = sorted(e.index for e in scenario.e.vague)
    hasher.update(f"i{inclusive}|v{vague}|".encode())
    v = scenario.v
    if len(v):
        # Each detection's record is its id and VID, then its feature
        # row's bytes: slices of the block's one C-order byte string.
        raw = v.features.tobytes()
        width = len(raw) // len(v)
        hasher.update(
            b"".join(
                f"d{detection_id}:{vid}|".encode() + raw[k * width : (k + 1) * width]
                for k, (detection_id, vid) in enumerate(
                    zip(v.detection_ids.tolist(), v.vids.tolist())
                )
            )
        )
    return hasher.hexdigest()


def store_digest(store: ScenarioStore) -> str:
    """A canonical content hash of a whole store (key-ordered)."""
    hasher = hashlib.sha256()
    for key in sorted(store.keys, key=lambda k: (k.tick, k.cell_id)):
        hasher.update(scenario_digest(store.get(key)).encode())
    return hasher.hexdigest()


def diff_stores(
    batch: ScenarioStore, stream: ScenarioStore
) -> List[Tuple[str, str]]:
    """Human-readable differences, empty iff the stores are equivalent.

    Each entry is ``(scenario key, what differs)``.
    """
    problems: List[Tuple[str, str]] = []
    batch_keys = set(batch.keys)
    stream_keys = set(stream.keys)
    for key in sorted(batch_keys - stream_keys, key=lambda k: (k.tick, k.cell_id)):
        problems.append((str(key), "missing from stream store"))
    for key in sorted(stream_keys - batch_keys, key=lambda k: (k.tick, k.cell_id)):
        problems.append((str(key), "extra in stream store"))
    for key in sorted(batch_keys & stream_keys, key=lambda k: (k.tick, k.cell_id)):
        a, b = batch.get(key), stream.get(key)
        if a.e.inclusive != b.e.inclusive:
            problems.append((str(key), "inclusive EID sets differ"))
        if a.e.vague != b.e.vague:
            problems.append((str(key), "vague EID sets differ"))
        if scenario_digest(a) != scenario_digest(b):
            if a.e.inclusive == b.e.inclusive and a.e.vague == b.e.vague:
                problems.append((str(key), "detections differ"))
    return problems


def stores_equivalent(batch: ScenarioStore, stream: ScenarioStore) -> bool:
    """True iff the two stores hold identical scenarios."""
    return store_digest(batch) == store_digest(stream)
