"""Dataset persistence: save a built world, reload it instantly.

Generating the paper-shape synthetic world (traces + sensing + feature
noise) takes seconds; matching experiments often sweep many parameter
settings over the *same* world, and cluster workers load theirs from
disk.  :func:`save_dataset` writes the
scenario store and configuration into a single compressed ``.npz``
file; :func:`load_dataset` restores a ready-to-match
:class:`~repro.datagen.dataset.EVDataset` in milliseconds.

Ragged structures (per-scenario EID sets and detections) are flattened
with offset arrays — the standard columnar trick — so everything round-
trips through numpy without pickling arbitrary objects.

The ground-truth trajectories are *not* stored: they are a pure
function of the configuration, and a loaded dataset carries
``traces=None``.  Matching, scoring and fusion need only the store and
the population (rebuilt deterministically from the stored config); code
that inspects raw trajectories should rebuild with
:func:`~repro.datagen.dataset.build_dataset`.

The fitted camera graph (``EVDataset.topology``) *is* stored — as
optional ``topo_*`` arrays, so pre-topology files load unchanged with
``topology=None`` — because cluster workers load worlds from disk and
need the graph without the traces it was fitted from.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import EVDataset
from repro.mobility.random_waypoint import RandomWaypointConfig
from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.cells import CellGrid, HexCellGrid
from repro.world.entities import EID, VID
from repro.world.geometry import BoundingBox
from repro.world.population import Population

FORMAT_VERSION = 1


def save_dataset(dataset: EVDataset, path: Union[str, Path]) -> Path:
    """Write ``dataset`` to ``path`` (a ``.npz`` file; suffix enforced).

    Returns the path actually written.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")

    store = dataset.store
    keys = np.array([(k.cell_id, k.tick) for k in store.keys], dtype=np.int64)

    incl_flat: List[int] = []
    incl_offsets = [0]
    vague_flat: List[int] = []
    vague_offsets = [0]
    det_offsets = [0]
    det_ids: List[int] = []
    det_vids: List[int] = []
    det_features: List[np.ndarray] = []
    for key in store.keys:
        scenario = store.get(key)
        incl_flat.extend(sorted(e.index for e in scenario.e.inclusive))
        incl_offsets.append(len(incl_flat))
        vague_flat.extend(sorted(e.index for e in scenario.e.vague))
        vague_offsets.append(len(vague_flat))
        for detection in scenario.v.detections:
            det_ids.append(detection.detection_id)
            det_vids.append(detection.true_vid.index)
            det_features.append(detection.feature)
        det_offsets.append(len(det_ids))

    features = (
        np.stack(det_features)
        if det_features
        else np.empty((0, dataset.config.feature_dimension))
    )
    config_json = json.dumps(dataclasses.asdict(dataset.config))
    # The fitted camera graph rides along as extra (optional) arrays:
    # old files simply lack the topo_* keys and load with
    # ``topology=None``, old readers ignore unknown npz members, so the
    # format version stays put.
    topo_arrays = (
        dataset.topology.to_arrays() if dataset.topology is not None else {}
    )
    np.savez_compressed(
        path,
        version=np.int64(FORMAT_VERSION),
        config=np.array(config_json),
        keys=keys,
        incl_flat=np.array(incl_flat, dtype=np.int64),
        incl_offsets=np.array(incl_offsets, dtype=np.int64),
        vague_flat=np.array(vague_flat, dtype=np.int64),
        vague_offsets=np.array(vague_offsets, dtype=np.int64),
        det_offsets=np.array(det_offsets, dtype=np.int64),
        det_ids=np.array(det_ids, dtype=np.int64),
        det_vids=np.array(det_vids, dtype=np.int64),
        det_features=features,
        **topo_arrays,
    )
    return path


def load_dataset(path: Union[str, Path]) -> EVDataset:
    """Restore a dataset written by :func:`save_dataset`.

    Raises:
        ValueError: on an unknown format version.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["version"])
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported dataset format version {version} "
                f"(this build reads {FORMAT_VERSION})"
            )
        config = _config_from_json(str(archive["config"]))
        scenarios = _read_scenarios(archive)
        topology = None
        if "topo_edges" in archive.files:
            from repro.topology.transit import TransitModel

            topology = TransitModel.from_arrays(
                archive["topo_edges"],
                archive["topo_stats"],
                archive["topo_meta"],
            )

    population = Population(config.population_config())
    region = BoundingBox.square(config.region_side)
    if config.cell_shape == "hex":
        grid: Union[CellGrid, HexCellGrid] = HexCellGrid(
            region, hex_radius=config.hex_radius, vague_width=config.vague_width
        )
    else:
        grid = CellGrid(
            region,
            cells_per_side=config.cells_per_side,
            vague_width=config.vague_width,
        )
    return EVDataset(
        config=config,
        population=population,
        grid=grid,
        traces=None,
        store=ScenarioStore(scenarios),
        topology=topology,
    )


def _config_from_json(text: str) -> ExperimentConfig:
    raw = json.loads(text)
    mobility = RandomWaypointConfig(**raw.pop("mobility"))
    return ExperimentConfig(mobility=mobility, **raw)


def _read_scenarios(archive) -> List[EVScenario]:
    keys = archive["keys"]
    incl_flat = archive["incl_flat"]
    incl_offsets = archive["incl_offsets"]
    vague_flat = archive["vague_flat"]
    vague_offsets = archive["vague_offsets"]
    det_offsets = archive["det_offsets"]
    det_ids = archive["det_ids"]
    det_vids = archive["det_vids"]
    det_features = archive["det_features"]

    scenarios: List[EVScenario] = []
    for i in range(keys.shape[0]):
        key = ScenarioKey(cell_id=int(keys[i, 0]), tick=int(keys[i, 1]))
        inclusive = frozenset(
            EID(int(e)) for e in incl_flat[incl_offsets[i] : incl_offsets[i + 1]]
        )
        vague = frozenset(
            EID(int(e)) for e in vague_flat[vague_offsets[i] : vague_offsets[i + 1]]
        )
        detections = tuple(
            Detection(
                detection_id=int(det_ids[j]),
                feature=det_features[j],
                true_vid=VID(int(det_vids[j])),
            )
            for j in range(det_offsets[i], det_offsets[i + 1])
        )
        scenarios.append(
            EVScenario(
                e=EScenario(key=key, inclusive=inclusive, vague=vague),
                v=VScenario(key=key, detections=detections),
            )
        )
    return scenarios
