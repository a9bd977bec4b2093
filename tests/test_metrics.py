"""Tests for the accuracy metric, cost model / clock, and bounds."""

import numpy as np
import pytest

from repro.core.analysis import (
    ideal_lower_bound,
    ideal_upper_bound,
    practical_upper_bound,
)
from repro.metrics.accuracy import AccuracyReport, accuracy_of, is_correct_match
from repro.metrics.timing import CostModel, SimulatedClock, StageTimes
from repro.sensing.scenarios import Detection
from repro.world.entities import EID, VID


def det(vid_index: int, det_id: int = 0) -> Detection:
    return Detection(
        detection_id=det_id, feature=np.zeros(2), true_vid=VID(vid_index)
    )


class TestIsCorrectMatch:
    def test_strict_majority_required(self):
        true = VID(0)
        # 2 of 3 -> correct.
        assert is_correct_match([det(0, 1), det(0, 2), det(9, 3)], true)
        # 2 of 4 -> tie, not a strict majority -> incorrect (paper rule).
        assert not is_correct_match(
            [det(0, 1), det(0, 2), det(9, 3), det(9, 4)], true
        )

    def test_empty_choices_incorrect(self):
        assert not is_correct_match([], VID(0))

    def test_single_choice(self):
        assert is_correct_match([det(0, 1)], VID(0))
        assert not is_correct_match([det(1, 1)], VID(0))

    def test_majority_of_wrong_vid(self):
        assert not is_correct_match([det(5, 1), det(5, 2), det(0, 3)], VID(0))


class TestAccuracyOf:
    def test_counts_and_percentage(self):
        truth = {EID(0): VID(0), EID(1): VID(1)}
        chosen = {
            EID(0): [det(0, 1), det(0, 2)],
            EID(1): [det(9, 3)],
        }
        report = accuracy_of(chosen, truth)
        assert report.total == 2
        assert report.correct == 1
        assert report.accuracy == pytest.approx(0.5)
        assert report.percentage == pytest.approx(50.0)

    def test_targets_penalize_missing_entries(self):
        truth = {EID(0): VID(0), EID(1): VID(1)}
        chosen = {EID(0): [det(0, 1)]}
        report = accuracy_of(chosen, truth, targets=[EID(0), EID(1)])
        assert report.total == 2
        assert report.unmatched == 1
        assert report.correct == 1

    def test_unknown_target_raises(self):
        with pytest.raises(KeyError):
            accuracy_of({}, {}, targets=[EID(5)])

    def test_empty_run(self):
        report = accuracy_of({}, {})
        assert report.total == 0
        assert report.accuracy == 0.0

    def test_str_mentions_counts(self):
        report = AccuracyReport(total=4, correct=3, unmatched=1)
        text = str(report)
        assert "3/4" in text and "75.00%" in text


class TestCostModel:
    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(e_scenario_cost=-1.0)
        with pytest.raises(ValueError):
            CostModel(v_extraction_cost=-1.0)

    def test_extraction_dominates_comparison(self):
        model = CostModel()
        assert model.v_extraction_cost > 1000 * model.v_comparison_cost


class TestSimulatedClock:
    def test_charging_accumulates(self):
        clock = SimulatedClock(CostModel(1.0, 2.0, 0.5))
        clock.charge_e_scenarios(3)
        clock.charge_extraction(4)
        clock.charge_comparisons(10)
        times = clock.times()
        assert times.e_time == pytest.approx(3.0)
        assert times.v_time == pytest.approx(8.0 + 5.0)
        assert clock.e_scenarios_examined == 3
        assert clock.detections_extracted == 4
        assert clock.comparisons == 10

    def test_bulk_e_charge_adds_like_single_charges(self):
        """A stage may charge a whole pass at once: the E time must be
        the same bits as one charge per scenario."""
        bulk, single = SimulatedClock(), SimulatedClock()
        for count in (1, 7, 0, 513, 2):
            bulk.charge_e_scenarios(count)
            for _ in range(count):
                single.charge_e_scenarios(1)
        assert repr(bulk.times().e_time) == repr(single.times().e_time)
        assert bulk.e_scenarios_examined == single.e_scenarios_examined == 523
        assert bulk.times().e_time != 523 * CostModel().e_scenario_cost

    def test_parallelism_division(self):
        clock = SimulatedClock(CostModel(1.0, 1.0, 0.0))
        clock.charge_e_scenarios(10)
        clock.charge_extraction(20)
        times = clock.times(parallelism=10)
        assert times.e_time == pytest.approx(1.0)
        assert times.v_time == pytest.approx(2.0)

    def test_invalid_arguments(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.charge_e_scenarios(-1)
        with pytest.raises(ValueError):
            clock.charge_extraction(-1)
        with pytest.raises(ValueError):
            clock.charge_comparisons(-1)
        with pytest.raises(ValueError):
            clock.times(parallelism=0)

    def test_reset(self):
        clock = SimulatedClock()
        clock.charge_extraction(5)
        clock.reset()
        assert clock.times().total == 0.0
        assert clock.detections_extracted == 0


class TestStageTimes:
    def test_total(self):
        assert StageTimes(e_time=1.0, v_time=2.0).total == pytest.approx(3.0)

    def test_scaled(self):
        scaled = StageTimes(e_time=2.0, v_time=4.0).scaled(0.5)
        assert scaled.e_time == pytest.approx(1.0)
        assert scaled.v_time == pytest.approx(2.0)
        with pytest.raises(ValueError):
            StageTimes().scaled(-1.0)


class TestBounds:
    def test_ideal_lower_bound(self):
        assert ideal_lower_bound(1) == 0
        assert ideal_lower_bound(2) == 1
        assert ideal_lower_bound(8) == 3
        assert ideal_lower_bound(9) == 4

    def test_ideal_upper_bound(self):
        assert ideal_upper_bound(1) == 0
        assert ideal_upper_bound(10) == 9

    def test_practical_upper_bound(self):
        assert practical_upper_bound(4) == 16

    def test_bounds_ordered(self):
        for n in (2, 5, 17, 100):
            assert (
                ideal_lower_bound(n)
                <= ideal_upper_bound(n)
                <= practical_upper_bound(n)
            )

    @pytest.mark.parametrize("fn", [ideal_lower_bound, ideal_upper_bound, practical_upper_bound])
    def test_nonpositive_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(0)


class TestEvidenceEstimates:
    def test_validation(self):
        from repro.core.analysis import (
            expected_evidence_per_eid,
            expected_selected_scenarios,
        )

        with pytest.raises(ValueError):
            expected_evidence_per_eid(1, 1.0)
        with pytest.raises(ValueError):
            expected_evidence_per_eid(10, 0.5)
        with pytest.raises(ValueError):
            expected_evidence_per_eid(10, 20.0)
        with pytest.raises(ValueError):
            expected_selected_scenarios(0, 10, 2.0)

    def test_degenerate_cases(self):
        from repro.core.analysis import expected_evidence_per_eid

        # density 1: one scenario isolates the target.
        assert expected_evidence_per_eid(100, 1.0) == 1.0
        # everyone always together: no scenario can ever separate.
        assert expected_evidence_per_eid(100, 100.0) == 100.0

    def test_evidence_grows_with_density(self):
        from repro.core.analysis import expected_evidence_per_eid

        estimates = [
            expected_evidence_per_eid(1000, d) for d in (10, 40, 111, 250)
        ]
        assert estimates == sorted(estimates)

    def test_selected_falls_with_density(self):
        from repro.core.analysis import expected_selected_scenarios

        estimates = [
            expected_selected_scenarios(600, 1000, d) for d in (10, 40, 111)
        ]
        assert estimates == sorted(estimates, reverse=True)

    def test_estimate_is_lower_side_of_simulation(self, ideal_dataset):
        """Measured evidence lists exceed the independence estimate by
        at most ~2 scenarios (mobility correlation)."""
        from repro.core.analysis import expected_evidence_per_eid
        from repro.core.set_splitting import SetSplitter, SplitConfig

        universe = len(ideal_dataset.eids)
        density = universe / ideal_dataset.grid.num_cells
        estimate = expected_evidence_per_eid(universe, density)
        targets = list(ideal_dataset.sample_targets(40, seed=1))
        split = SetSplitter(ideal_dataset.store, SplitConfig(seed=7)).run(targets)
        measured = split.avg_scenarios_per_eid
        assert measured >= estimate - 0.5
        assert measured <= estimate + 2.5
