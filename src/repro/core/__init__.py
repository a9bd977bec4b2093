"""The paper's primary contribution: the EV-Matching algorithms.

Layout:

* :mod:`repro.core.partition` — the undistinguishable-EID-set partition
  (Sec. IV-B.1) and the pairwise separation tracker used by the
  practical, vague-aware variant.
* :mod:`repro.core.set_splitting` — Algorithm 1 (ideal) and the
  vague-zone variant (Sec. IV-C.2), with pluggable scenario-selection
  strategies.
* :mod:`repro.core.vid_filtering` — the V stage (Sec. IV-B.2, Eq. 1):
  probability-product scoring and per-scenario VID choice.
* :mod:`repro.core.refining` — Algorithm 2, the matching-refining loop
  for the practical setting (Sec. IV-C.4).
* :mod:`repro.core.edp` — the EDP baseline (Teng et al. [24]) the
  evaluation compares against.
* :mod:`repro.core.matcher` — the high-level API supporting single,
  multiple and universal matching sizes.
* :mod:`repro.core.analysis` — Theorems 4.2 / 4.4 as checkable bounds.
* :mod:`repro.core.accel` — the E-stage backend name run labels carry.
* :mod:`repro.core.blas` — the one-thread OpenBLAS bound the V
  stage's pair fill runs under.
"""

from repro.core.partition import EIDPartition, SeparationTracker
from repro.core.set_splitting import (
    SelectionStrategy,
    SetSplitter,
    SplitConfig,
    SplitResult,
)
from repro.core.vid_filtering import (
    FilterConfig,
    MatchResult,
    VIDFilter,
)
from repro.core.incremental import Emission, IncrementalMatcher
from repro.core.refining import RefiningConfig, RefiningMatcher
from repro.core.edp import EDPConfig, EDPMatcher, EDPResult
from repro.core.matcher import EVMatcher, MatcherConfig, MatchReport
from repro.core.analysis import (
    expected_evidence_per_eid,
    expected_selected_scenarios,
    ideal_lower_bound,
    ideal_upper_bound,
    practical_upper_bound,
)

__all__ = [
    "EDPConfig",
    "EDPMatcher",
    "EDPResult",
    "EIDPartition",
    "EVMatcher",
    "Emission",
    "IncrementalMatcher",
    "FilterConfig",
    "MatchReport",
    "MatchResult",
    "MatcherConfig",
    "RefiningConfig",
    "RefiningMatcher",
    "SelectionStrategy",
    "SeparationTracker",
    "SetSplitter",
    "SplitConfig",
    "SplitResult",
    "VIDFilter",
    "expected_evidence_per_eid",
    "expected_selected_scenarios",
    "ideal_lower_bound",
    "ideal_upper_bound",
    "practical_upper_bound",
]
