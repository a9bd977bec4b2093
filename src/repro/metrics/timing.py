"""Simulated processing-time accounting for the E and V stages.

The paper's Fig. 8/9 split total processing time into an E stage
(negligible) and a V stage that dominates "because feature extraction
and comparison is more computation intensive".  Absolute seconds on the
authors' 14-node cluster are not reproducible; the *structure* of the
cost is:

    E time  =  (#E-Scenarios examined) * per-scenario E cost
    V time  =  (#detections extracted in distinct selected V-Scenarios)
                  * per-detection extraction cost
             + (#feature comparisons) * per-comparison cost

all divided by the effective parallelism of the cluster.  The
:class:`CostModel` defaults are calibrated so that, like the paper, the
V stage dominates by 2-3 orders of magnitude and extraction outweighs
comparison; the benchmark shapes are insensitive to the exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add
from typing import Dict


@dataclass(frozen=True)
class CostModel:
    """Per-operation simulated costs, in seconds of one worker core.

    Attributes:
        e_scenario_cost: examining one E-Scenario during set splitting
            (a set intersection over light electronic records).
        v_extraction_cost: detecting + feature-extracting one human
            figure in one V-Scenario's video (the expensive CV step;
            order of a second per figure on 2017-era hardware).
        v_comparison_cost: one feature-vector comparison (a distance
            between two descriptors — tens of microseconds, 4-5 orders
            below extraction, which is why the paper's V time tracks
            the number of selected scenarios).
    """

    e_scenario_cost: float = 0.005
    v_extraction_cost: float = 1.0
    v_comparison_cost: float = 0.00005

    def __post_init__(self) -> None:
        for name in ("e_scenario_cost", "v_extraction_cost", "v_comparison_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class StageTimes:
    """E-stage and V-stage simulated times for one matching run."""

    e_time: float = 0.0
    v_time: float = 0.0

    @property
    def total(self) -> float:
        return self.e_time + self.v_time

    def scaled(self, factor: float) -> "StageTimes":
        """Times multiplied by ``factor`` (e.g. 1/parallelism)."""
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return StageTimes(e_time=self.e_time * factor, v_time=self.v_time * factor)

    def as_dict(self) -> Dict[str, float]:
        """Stage-keyed seconds, the shape the metrics registry and JSON
        reports consume (``{"e": ..., "v": ..., "total": ...}``)."""
        return {"e": self.e_time, "v": self.v_time, "total": self.total}


class SimulatedClock:
    """Accumulates simulated serial work, split by stage.

    The matcher charges serial work here; dividing by the cluster's
    worker count (or by the MapReduce engine's computed makespan) turns
    it into the parallel times the figures report.
    """

    def __init__(self, cost_model: CostModel = CostModel()) -> None:
        self.cost_model = cost_model
        self._e_time = 0.0
        self._v_time = 0.0
        self._e_scenarios_examined = 0
        self._detections_extracted = 0
        self._comparisons = 0

    # E stage -----------------------------------------------------------
    def charge_e_scenarios(self, count: int) -> None:
        """Charge the examination of ``count`` E-Scenarios.

        The cost is added once per scenario, at C speed, so a bulk
        charge sums to the same bits as ``count`` single charges: a
        stage may charge a whole pass at once and keep its E time.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._e_scenarios_examined += count
        self._e_time = reduce(
            add, repeat(self.cost_model.e_scenario_cost, count), self._e_time
        )

    # V stage -----------------------------------------------------------
    def charge_extraction(self, num_detections: int) -> None:
        """Charge feature extraction of ``num_detections`` figures."""
        if num_detections < 0:
            raise ValueError(f"num_detections must be non-negative, got {num_detections}")
        self._detections_extracted += num_detections
        self._v_time += num_detections * self.cost_model.v_extraction_cost

    def charge_comparisons(self, num_pairs: int) -> None:
        """Charge ``num_pairs`` feature-vector comparisons."""
        if num_pairs < 0:
            raise ValueError(f"num_pairs must be non-negative, got {num_pairs}")
        self._comparisons += num_pairs
        self._v_time += num_pairs * self.cost_model.v_comparison_cost

    # Reporting ----------------------------------------------------------
    @property
    def e_scenarios_examined(self) -> int:
        return self._e_scenarios_examined

    @property
    def detections_extracted(self) -> int:
        return self._detections_extracted

    @property
    def comparisons(self) -> int:
        return self._comparisons

    def times(self, parallelism: int = 1) -> StageTimes:
        """Stage times assuming perfect speedup over ``parallelism`` cores.

        The MapReduce benchmarks replace this idealization with the
        engine's actual simulated makespan; the serial figures use
        ``parallelism=1``.
        """
        if parallelism <= 0:
            raise ValueError(f"parallelism must be positive, got {parallelism}")
        return StageTimes(
            e_time=self._e_time / parallelism,
            v_time=self._v_time / parallelism,
        )

    def reset(self) -> None:
        """Zero all counters (a fresh matching run)."""
        self._e_time = 0.0
        self._v_time = 0.0
        self._e_scenarios_examined = 0
        self._detections_extracted = 0
        self._comparisons = 0
