"""repro — reproduction of *EV-Matching: Bridging Large Visual Data and
Electronic Data for Efficient Surveillance* (ICDCS 2017).

Quick start::

    from repro import ExperimentConfig, build_dataset, EVMatcher

    dataset = build_dataset(ExperimentConfig(num_people=200, cells_per_side=4))
    matcher = EVMatcher(dataset.store)
    report = matcher.match(dataset.sample_targets(50))
    print(report.score(dataset.truth))

Packages:

* :mod:`repro.core` — the EV-Matching algorithms (set splitting, VID
  filtering, refining, the EDP baseline).
* :mod:`repro.world`, :mod:`repro.mobility`, :mod:`repro.sensing` —
  the synthetic surveillance world.
* :mod:`repro.mapreduce` — the MapReduce execution substrate.
* :mod:`repro.parallel` — the parallelized pipeline (paper Sec. V).
* :mod:`repro.datagen`, :mod:`repro.metrics`, :mod:`repro.bench` —
  dataset generation, metrics, and the figure/table harness.
* :mod:`repro.service` — the serving layer: a cached, batched query
  service over a standing dataset.
"""

from repro.core.matcher import EVMatcher, MatcherConfig, MatchReport
from repro.core.set_splitting import SelectionStrategy, SplitConfig
from repro.core.vid_filtering import FilterConfig, MatchResult
from repro.core.refining import RefiningConfig
from repro.core.edp import EDPConfig
from repro.core.incremental import IncrementalMatcher
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import EVDataset, build_dataset
from repro.datagen.io import load_dataset, save_dataset
from repro.metrics.accuracy import AccuracyReport, accuracy_of
from repro.metrics.timing import CostModel, SimulatedClock, StageTimes
from repro.world.entities import EID, Person, VID

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "CostModel",
    "EDPConfig",
    "EID",
    "EVDataset",
    "EVMatcher",
    "ExperimentConfig",
    "FilterConfig",
    "IncrementalMatcher",
    "MatchReport",
    "MatchResult",
    "MatcherConfig",
    "Person",
    "RefiningConfig",
    "SelectionStrategy",
    "SimulatedClock",
    "SplitConfig",
    "StageTimes",
    "VID",
    "accuracy_of",
    "build_dataset",
    "load_dataset",
    "save_dataset",
    "__version__",
]
