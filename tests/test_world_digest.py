"""Golden digests of the benchmark worlds' integer structure.

The digests were computed with the per-object world builder that the
columnar one replaced, so they pin that the rewrite builds the same
worlds: scenario keys, inclusive/vague EID sets, detection ids with
their true VIDs, and the camera graph's edges with their traversal
counts.  Feature bytes are deliberately left out: they go through BLAS
dot products whose last bits depend on the kernel and the CPU.  The
in-process oracle suite (``tests/test_world_equivalence.py``) compares
them against the object path on the same machine instead.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench.datasets import default_config
from repro.datagen.dataset import build_dataset

GOLDEN = {
    "paper": "0746720ed5556090f25d114c5787bdd5bd3cd493277abf94bc2a6d7bd0e60d09",
    "smoke": "e44b9d024a747c87ce047491d46ccd75d791623d5f9855df867fa85f56eddfa2",
}


def world_digest(dataset) -> str:
    """SHA-256 over the world's integer structure, in key order."""
    digest = hashlib.sha256()

    def put(values) -> None:
        array = np.asarray(values, dtype=np.int64)
        digest.update(np.int64(array.size).tobytes())
        digest.update(array.tobytes())

    store = dataset.store
    for key in store.keys:
        scenario = store.get(key)
        put([key.cell_id, key.tick])
        put(sorted(e.index for e in scenario.e.inclusive))
        put(sorted(e.index for e in scenario.e.vague))
        put([(d.detection_id, d.true_vid.index) for d in scenario.v.detections])
    arrays = dataset.topology.to_arrays()
    put(arrays["topo_edges"])
    put(arrays["topo_stats"][:, 0])
    return digest.hexdigest()


@pytest.mark.parametrize("scale", sorted(GOLDEN))
def test_default_world_matches_golden_digest(scale, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", scale)
    dataset = build_dataset(default_config())
    assert world_digest(dataset) == GOLDEN[scale]
