"""Shared fixtures: small, session-cached synthetic worlds.

The worlds are deliberately tiny (fast) but non-degenerate: enough
people, cells and ticks that set splitting, VID filtering and the
practical-setting machinery all exercise their real code paths.
"""

from __future__ import annotations

import pytest

from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import EVDataset, build_dataset
from repro.obs.tracing import Tracer, set_tracer


@pytest.fixture(scope="session")
def ideal_dataset() -> EVDataset:
    """A small ideal-setting world (no noise, no misses)."""
    return build_dataset(
        ExperimentConfig(
            num_people=120,
            cells_per_side=3,
            duration=600.0,
            sample_dt=10.0,
            warmup=100.0,
            seed=42,
        )
    )


@pytest.fixture(scope="session")
def practical_dataset() -> EVDataset:
    """A small practical-setting world: drift, vague zones, misses."""
    return build_dataset(
        ExperimentConfig(
            num_people=120,
            cells_per_side=3,
            duration=600.0,
            sample_dt=10.0,
            warmup=100.0,
            vague_width=25.0,
            e_drift_sigma=12.0,
            e_miss_rate=0.05,
            v_miss_rate=0.05,
            window_ticks=2,
            seed=43,
        )
    )


class CountingTracer(Tracer):
    """A recording tracer that also lists every span it opens."""

    def __init__(self) -> None:
        super().__init__()
        self.opened = []

    def span(self, name, parent=None, **args):
        self.opened.append(name)
        return super().span(name, parent, **args)


@pytest.fixture()
def counting_tracer():
    """A :class:`CountingTracer` as the process tracer, restored after
    the test."""
    tracer = CountingTracer()
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)
