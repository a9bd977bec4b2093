"""Sensing layer: from ground-truth trajectories to EV-Scenarios.

This package turns the ground-truth world (population + traces) into
the two observation streams the paper's algorithms consume:

* the **E side** — base stations capturing EIDs per cell, with the
  practical setting's drift noise and missing-EID effects
  (:mod:`repro.sensing.e_sensing`);
* the **V side** — cameras capturing per-cell person detections with
  appearance features and missed detections, held as id, VID and
  feature columns (:mod:`repro.sensing.v_sensing`);

and assembles them into :class:`~repro.sensing.scenarios.EVScenario`
snapshots (Definition 1 in the paper) via
:class:`~repro.sensing.builder.ScenarioBuilder`.
"""

from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.sensing.e_sensing import ESensingConfig, ESensingModel
from repro.sensing.v_sensing import VSensingConfig, VSensingModel
from repro.sensing.builder import (
    ScenarioBuilder,
    ScenarioBuilderConfig,
    SightingBatch,
    VFrame,
    WindowSensing,
    attribute_columns,
    window_scenarios,
)
from repro.sensing.index import ScenarioIndex
from repro.sensing.stats import StoreStats, store_stats

__all__ = [
    "Detection",
    "EScenario",
    "ESensingConfig",
    "ESensingModel",
    "EVScenario",
    "ScenarioBuilder",
    "ScenarioBuilderConfig",
    "SightingBatch",
    "VFrame",
    "WindowSensing",
    "attribute_columns",
    "window_scenarios",
    "ScenarioIndex",
    "StoreStats",
    "store_stats",
    "ScenarioKey",
    "ScenarioStore",
    "VScenario",
    "VSensingConfig",
    "VSensingModel",
]
