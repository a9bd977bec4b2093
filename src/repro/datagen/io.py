"""Dataset persistence: save a built world once, reload it without re-simulating.

Generating the paper-shape synthetic world (traces + sensing + feature
noise) takes seconds; matching experiments often sweep many parameter
settings over the *same* world, and cluster workers load theirs from
disk.  :func:`save_dataset` writes the scenario store and configuration
into a single uncompressed ``.npz`` file; :func:`load_dataset` restores
a ready-to-match :class:`~repro.datagen.dataset.EVDataset`.

The archive is not compressed because its bulk, the detection feature
matrix, is noise-perturbed floats that zlib barely shrinks (81 MB raw
against 74 MB compressed for the paper-shape world) at the price of
about 4 s of compression per save and 0.5 s of decompression per load.
Archives written compressed by older builds still load: ``np.load``
reads both kinds of member.

Ragged structures (per-scenario EID sets and detections) are flattened
with offset arrays — the standard columnar trick — so everything round-
trips through numpy without pickling arbitrary objects.  The reader
checks those offsets before it slices with them, so a truncated or
corrupt archive fails with a ``ValueError`` naming the bad member
rather than loading a silently wrong store.

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
import os
import uuid
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import EVDataset
from repro.mobility.random_waypoint import RandomWaypointConfig
from repro.sensing.scenarios import (
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.cells import CellGrid, HexCellGrid
from repro.world.entities import EID
from repro.world.geometry import BoundingBox
from repro.world.population import Population

FORMAT_VERSION = 1


def save_dataset(dataset: EVDataset, path: Union[str, Path]) -> Path:
    """Write ``dataset`` to ``path`` (an uncompressed ``.npz`` file;
    suffix enforced), replacing any file there only once the write has
    completed.

    Returns the path actually written.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")

    store = dataset.store
    keys = np.array(
        [(k.cell_id, k.tick) for k in store.keys], dtype=np.int64
    ).reshape(-1, 2)

    incl_flat: List[int] = []
    incl_offsets = [0]
    vague_flat: List[int] = []
    vague_offsets = [0]
    v_scenarios = []
    for key in store.keys:
        scenario = store.get(key)
        incl_flat.extend(sorted(e.index for e in scenario.e.inclusive))
        incl_offsets.append(len(incl_flat))
        vague_flat.extend(sorted(e.index for e in scenario.e.vague))
        vague_offsets.append(len(vague_flat))
        v_scenarios.append(scenario.v)

    det_offsets = np.cumsum([0] + [len(v) for v in v_scenarios], dtype=np.int64)
    filled = [v for v in v_scenarios if len(v)]
    if filled:
        det_ids = np.concatenate([v.detection_ids for v in filled])
        det_vids = np.concatenate([v.vids for v in filled])
        features = np.concatenate([v.features for v in filled])
    else:
        det_ids = det_vids = np.empty(0, dtype=np.int64)
        features = np.empty((0, dataset.config.feature_dimension))
    config_json = json.dumps(dataclasses.asdict(dataset.config))
    # The fitted camera graph rides along as extra (optional) arrays:
    # old files simply lack the topo_* keys and load with
    # ``topology=None``, old readers ignore unknown npz members, so the
    # format version stays put.
    topo_arrays = (
        dataset.topology.to_arrays() if dataset.topology is not None else {}
    )
    # Write a sibling temporary file and rename it over ``path``, so an
    # interrupted save leaves any world already at ``path`` intact.  The
    # handle (not a name) keeps ``np.savez`` from appending ``.npz``.
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez(
                fh,
                version=np.int64(FORMAT_VERSION),
                config=np.array(config_json),
                keys=keys,
                incl_flat=np.array(incl_flat, dtype=np.int64),
                incl_offsets=np.array(incl_offsets, dtype=np.int64),
                vague_flat=np.array(vague_flat, dtype=np.int64),
                vague_offsets=np.array(vague_offsets, dtype=np.int64),
                det_offsets=det_offsets,
                det_ids=det_ids,
                det_vids=det_vids,
                det_features=features,
                **topo_arrays,
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
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


def _check_offsets(
    name: str, offsets: np.ndarray, scenarios: int, flat: int
) -> None:
    """Raise unless ``offsets`` slices a ``flat``-long column into
    ``scenarios`` consecutive, non-overlapping runs."""
    if offsets.shape != (scenarios + 1,):
        raise ValueError(
            f"corrupt dataset: {name} has shape {offsets.shape}, "
            f"expected ({scenarios + 1},)"
        )
    if offsets[0] != 0:
        raise ValueError(f"corrupt dataset: {name} starts at {offsets[0]}, not 0")
    if np.any(np.diff(offsets) < 0):
        raise ValueError(f"corrupt dataset: {name} decreases")
    if offsets[-1] != flat:
        raise ValueError(
            f"corrupt dataset: {name} ends at {offsets[-1]}, "
            f"but its column holds {flat} values"
        )


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

    if keys.ndim != 2 or keys.shape[1] != 2:
        raise ValueError(
            f"corrupt dataset: keys has shape {keys.shape}, expected (n, 2)"
        )
    n = keys.shape[0]
    _check_offsets("incl_offsets", incl_offsets, n, len(incl_flat))
    _check_offsets("vague_offsets", vague_offsets, n, len(vague_flat))
    _check_offsets("det_offsets", det_offsets, n, len(det_ids))
    for name, column in (("det_vids", det_vids), ("det_features", det_features)):
        if len(column) != len(det_ids):
            raise ValueError(
                f"corrupt dataset: {name} has {len(column)} rows "
                f"for {len(det_ids)} det_ids"
            )

    # Convert each E column to Python ints once, and build one EID per
    # distinct index, shared by every scenario that holds it (EIDs hash
    # and compare by index).  The V columns stay columns: each
    # scenario holds views of the loaded arrays.
    eid_of = {i: EID(i) for i in np.union1d(incl_flat, vague_flat).tolist()}
    inclusive = [eid_of[i] for i in incl_flat.tolist()]
    vague = [eid_of[i] for i in vague_flat.tolist()]

    incl_bounds = incl_offsets.tolist()
    vague_bounds = vague_offsets.tolist()
    det_bounds = det_offsets.tolist()
    scenarios: List[EVScenario] = []
    for i, (cell_id, tick) in enumerate(keys.tolist()):
        key = ScenarioKey(cell_id=cell_id, tick=tick)
        rows = slice(det_bounds[i], det_bounds[i + 1])
        scenarios.append(
            EVScenario(
                e=EScenario(
                    key=key,
                    inclusive=frozenset(
                        inclusive[incl_bounds[i] : incl_bounds[i + 1]]
                    ),
                    vague=frozenset(vague[vague_bounds[i] : vague_bounds[i + 1]]),
                ),
                v=VScenario(key, det_ids[rows], det_vids[rows], det_features[rows]),
            )
        )
    return scenarios
