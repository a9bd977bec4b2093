"""The V stage's Eq. 1 scoring, pair by pair, as the paper states it.

For every scenario ``a`` of a target's evidence and every other
scenario ``b``, one feature-similarity matrix and its row maxima give
``P(d in S_b)`` for each detection ``d`` of ``a``; a detection's score
is the running product of those memberships in evidence order, and
every ordered pair is charged ``|a| * |b|`` comparisons.  Production
(:class:`~repro.core.vid_filtering.VIDFilter`) computes each scenario
pair once per batch in a shared table and converts only maxima to
similarities; this oracle shares nothing and converts every cell, so
the equivalence suite checks the table, its reuse across targets and
the max-before-similarity order against the definition.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.vid_filtering import VIDFilter


def eq1_membership(features_a: np.ndarray, features_b: np.ndarray) -> np.ndarray:
    """``P(d in S_b)`` for every detection ``d`` of ``a`` (Eq. 1):
    ``sim = 1 - |f - f'| / 2`` on unit-norm features, best over ``b``."""
    dots = features_a @ features_b.T
    dist = np.sqrt(np.clip(2.0 - 2.0 * dots, 0.0, None)) / 2.0
    sims = 1.0 - dist
    return sims.max(axis=1)


class PairwiseVIDFilter(VIDFilter):
    """:class:`VIDFilter` with the pairwise Eq. 1 loop in place of the
    shared pair table.  Evidence hygiene, topology pruning and prior,
    exclusion and agreement are the production code's."""

    def _fill(self, id_lists):
        # No batch-wide table to fill: every pair is computed where a
        # target uses it.
        pass

    def _score_vectors(self, ids, sizes) -> List[np.ndarray]:
        scenarios = [self._scenarios[i] for i in ids]
        vectors = []
        for scenario_a in scenarios:
            features_a = scenario_a.features
            score_vec = np.ones(features_a.shape[0])
            for scenario_b in scenarios:
                if scenario_b is scenario_a:
                    continue
                features_b = scenario_b.features
                score_vec = score_vec * eq1_membership(features_a, features_b)
                self.clock.charge_comparisons(
                    features_a.shape[0] * features_b.shape[0]
                )
            vectors.append(score_vec)
        return vectors
