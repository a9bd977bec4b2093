"""Columnar V sensing equals the per-detection object form.

:meth:`~repro.sensing.v_sensing.VSensingModel.sense` returns each
frame's detections as id, VID and feature columns and draws the outlier
flag inline.  ``tests/oracles/vsensing.py`` keeps the form that built
one :class:`~repro.sensing.scenarios.Detection` per detection through
:meth:`~repro.world.features.AppearanceModel.noise_sigma`.  Over random
frames, miss rates and outlier rates, both give the same ids, VID
indices and feature bytes, and leave the generator in the same state.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sensing.v_sensing import VSensingConfig, VSensingModel
from repro.world.features import AppearanceModel, FeatureSpace
from tests.oracles.vsensing import ObjectVSensing

NUM_VIDS = 12


def _rates():
    """0, or a rate strictly inside (0, 1)."""
    return st.one_of(
        st.just(0.0), st.floats(min_value=0.01, max_value=0.99)
    )


# Per call, per frame: the VID indices present, ascending (may be empty).
_frames = st.lists(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=NUM_VIDS - 1), max_size=6).map(
            sorted
        ),
        max_size=5,
    ),
    min_size=1,
    max_size=3,
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    calls=_frames,
    miss_rate=_rates(),
    outlier_rate=_rates(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(calls=[[[], []], [[]]], miss_rate=0.0, outlier_rate=0.3, seed=1)
@example(calls=[[[0, 3, 5], [], [1, 2]]], miss_rate=1.0, outlier_rate=0.5, seed=2)
@example(calls=[[[0, 1, 2, 3]], [[4], [5, 6]]], miss_rate=0.0, outlier_rate=0.0, seed=3)
@example(calls=[[[0, 1, 2, 3, 4, 5]]], miss_rate=0.5, outlier_rate=0.0, seed=4)
def test_columns_equal_object_detections(calls, miss_rate, outlier_rate, seed):
    appearance = AppearanceModel(
        NUM_VIDS, FeatureSpace(dimension=8, outlier_rate=outlier_rate), seed=5
    )
    model = VSensingModel(appearance, VSensingConfig(miss_rate=miss_rate))
    oracle = ObjectVSensing(appearance, miss_rate=miss_rate)
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    for frames in calls:
        got = model.sense(frames, rng)
        want = oracle.sense(frames, oracle_rng)
        assert len(got) == len(want) == len(frames)
        for (ids, vids, features), (detections, block), present in zip(
            got, want, frames
        ):
            assert ids.dtype == vids.dtype == np.int64
            assert ids.tolist() == [d.detection_id for d in detections]
            assert vids.tolist() == [d.true_vid.index for d in detections]
            assert set(vids.tolist()) <= set(present)
            assert features.shape == block.shape
            assert features.tobytes() == block.tobytes()
            for row, detection in zip(features, detections):
                assert row.tobytes() == detection.feature.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert model.detections_issued == oracle.next_id
