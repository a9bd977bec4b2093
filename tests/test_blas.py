"""Tests for the one-BLAS-thread bound the V stage's pair fill runs in."""

import sys
import threading

import pytest

from repro.core import blas
from repro.core.blas import OneBLASThread, find_openblas
from repro.core.vid_filtering import VIDFilter
from repro.world.entities import EID
from tests.test_vid_filtering import make_store_with_detections

FUNCTIONS = find_openblas()

needs_openblas = pytest.mark.skipif(
    FUNCTIONS is None, reason="no OpenBLAS is mapped into this process"
)


def _threads() -> int:
    return FUNCTIONS[1]()


@pytest.fixture
def two_threads():
    """Run at two BLAS threads, so a bound to one is visible; restore
    the process's own count afterwards."""
    setter, getter = FUNCTIONS
    saved = getter()
    setter(2)
    yield
    setter(saved)


@needs_openblas
@pytest.mark.usefixtures("two_threads")
class TestOneBLASThread:
    def test_fill_sees_one_thread_and_count_is_restored(self, monkeypatch):
        seen = []
        features_of = VIDFilter._features_of

        def spy(self, scenario_id):
            seen.append(_threads())
            return features_of(self, scenario_id)

        monkeypatch.setattr(VIDFilter, "_features_of", spy)
        store = make_store_with_detections([[0, 1, 2], [0, 3], [0, 1, 4]])
        keys = list(store.keys)
        VIDFilter(store).match({EID(0): keys, EID(1): keys[1:]})
        assert seen and set(seen) == {1}
        assert _threads() == 2

    def test_nested_bounds_restore_once(self):
        bound = OneBLASThread()
        with bound:
            with bound:
                assert _threads() == 1
            assert _threads() == 1
        assert _threads() == 2

    def test_concurrent_fills_leave_count_restored(self):
        bound = OneBLASThread()
        both_inside = threading.Barrier(2)
        seen = []

        def fill():
            with bound:
                both_inside.wait(timeout=10)
                seen.append(_threads())
                both_inside.wait(timeout=10)

        workers = [threading.Thread(target=fill) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)
        assert seen == [1, 1]
        assert _threads() == 2

    def test_many_threads_entering_and_leaving(self):
        """More threads than cores, switching as often as the
        interpreter allows: a lost depth update would restore the count
        while another thread is inside, or never restore it."""
        bound = OneBLASThread()
        outside_one = []

        def churn():
            for _ in range(200):
                with bound:
                    if _threads() != 1:
                        outside_one.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert outside_one == []
        assert _threads() == 2


def test_bound_without_openblas_is_a_silent_noop(monkeypatch):
    monkeypatch.setattr(blas, "find_openblas", lambda: None)
    bound = OneBLASThread()
    before = None if FUNCTIONS is None else _threads()
    with bound:
        assert (None if FUNCTIONS is None else _threads()) == before
    assert (None if FUNCTIONS is None else _threads()) == before
