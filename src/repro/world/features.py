"""Appearance feature model — the stand-in for CUHK02 person images.

The paper extracts appearance (or gait) feature vectors per VID from
video frames and defines similarity as

    sim(VID1, VID2) = 1 - dist(f_VID1, f_VID2)          (Eq. 1)

where ``dist`` is a normalized vector distance.  The matching algorithms
consume nothing but this similarity, so the reproduction replaces the
image pipeline with a latent-vector model:

* each person owns one unit-norm *latent* appearance vector;
* every camera observation of that person returns the latent vector
  perturbed by Gaussian noise and renormalized (different view angles,
  lighting, partial occlusion);
* ``dist`` is half the Euclidean distance between unit vectors, which
  is exactly ``sqrt((1 - cos)/2)`` rescaled into ``[0, 1]``.

With this model same-person observations have high mutual similarity
while different people's similarities concentrate lower with overlap in
the tails — the regime in which the paper's probability-product VID
filtering both works and occasionally errs, matching the ~85-92%
accuracies in Tables I/II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.world.entities import VID


@dataclass(frozen=True)
class FeatureSpace:
    """Geometry of the appearance feature space.

    Attributes:
        dimension: length of feature vectors.  The paper's descriptors
            are high-dimensional; 64 reproduces the same separation
            behaviour at a fraction of the cost.
        observation_noise: total noise-to-signal ratio of one camera
            observation: the expected *norm* of the Gaussian
            perturbation added to the unit-norm latent vector before
            renormalization (the per-dimension standard deviation is
            ``observation_noise / sqrt(dimension)``).  This is the
            main knob controlling how hard re-identification is.
        outlier_rate: probability that an observation is *corrupted* —
            a heavily occluded or mis-cropped figure whose feature
            carries little identity signal.  Real re-identification
            errors are dominated by such bad crops rather than by
            marginal Gaussian overlap, and modelling them keeps the
            accuracy-vs-density curve as flat as the paper's Table II.
        outlier_noise: noise-to-signal ratio of a corrupted
            observation (large: the feature is mostly random).

        The defaults are calibrated so the matcher lands in the paper's
        ~85-92% accuracy band under the benchmark settings.
    """

    dimension: int = 64
    observation_noise: float = 0.45
    outlier_rate: float = 0.10
    outlier_noise: float = 1.3

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        if self.observation_noise < 0:
            raise ValueError(
                f"observation_noise must be non-negative, got {self.observation_noise}"
            )
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ValueError(
                f"outlier_rate must be in [0, 1], got {self.outlier_rate}"
            )
        if self.outlier_noise < 0:
            raise ValueError(
                f"outlier_noise must be non-negative, got {self.outlier_noise}"
            )


def normalized_distance(f1: np.ndarray, f2: np.ndarray) -> float:
    """Normalized vector distance between two unit-norm features.

    Returns a value in ``[0, 1]``: 0 for identical vectors, 1 for
    antipodal ones.  For unit vectors ``|f1 - f2| in [0, 2]`` so halving
    the Euclidean distance gives the normalization Eq. 1 requires.
    """
    return float(np.linalg.norm(f1 - f2)) / 2.0


def similarity(f1: np.ndarray, f2: np.ndarray) -> float:
    """Eq. 1: ``sim = 1 - dist`` with the normalized distance above."""
    return 1.0 - normalized_distance(f1, f2)


class AppearanceModel:
    """Latent appearance vectors for a population of VIDs.

    Args:
        num_vids: how many distinct visual identities to create.
        space: feature-space geometry; defaults preserved across the
            whole benchmark suite for comparability.
        seed: seed for the latent vectors.  Observation noise uses
            caller-provided generators so traces stay reproducible
            independently of how many observations each test makes.
    """

    def __init__(
        self,
        num_vids: int,
        space: Optional[FeatureSpace] = None,
        seed: int = 0,
    ) -> None:
        if num_vids <= 0:
            raise ValueError(f"num_vids must be positive, got {num_vids}")
        self.space = space if space is not None else FeatureSpace()
        rng = np.random.default_rng(seed)
        latents = rng.standard_normal((num_vids, self.space.dimension))
        latents /= np.linalg.norm(latents, axis=1, keepdims=True)
        self._latents = latents
        self.num_vids = num_vids
        #: Per-dimension noise sigma of a clean and of a corrupted
        #: (outlier) observation.
        self.sigma = self.space.observation_noise / self.space.dimension**0.5
        self.outlier_sigma = self.space.outlier_noise / self.space.dimension**0.5

    def latent(self, vid: VID) -> np.ndarray:
        """The true (noise-free) appearance vector of ``vid``."""
        if not 0 <= vid.index < self.num_vids:
            raise KeyError(f"unknown {vid}")
        return self._latents[vid.index]

    def observe(self, vid: VID, rng: np.random.Generator) -> np.ndarray:
        """One camera observation of ``vid``: noisy, renormalized feature.

        Models what the paper's human-detection + feature-extraction
        stage produces for one person in one V-Scenario.
        """
        sigma = self.noise_sigma(rng)
        noise = rng.standard_normal((1, self.space.dimension))
        return self.observe_rows(
            noise, np.array([sigma]), np.array([vid.index])
        )[0]

    def noise_sigma(self, rng: np.random.Generator) -> float:
        """Per-dimension noise sigma of one observation: draws whether
        the observation is a corrupted outlier (when ``outlier_rate >
        0``)."""
        if self.space.outlier_rate > 0.0 and rng.random() < self.space.outlier_rate:
            return self.outlier_sigma
        return self.sigma

    def observe_rows(
        self, noise: np.ndarray, sigmas: np.ndarray, vid_indices: np.ndarray
    ) -> np.ndarray:
        """Turn standard-normal draws into observations, in place.

        Row ``k`` of ``noise`` becomes the renormalized latent vector of
        VID ``vid_indices[k]`` perturbed by ``noise[k] * sigmas[k]``.
        Each row's norm is ``sqrt`` of the row's BLAS dot product with
        itself, the same arithmetic ``np.linalg.norm`` does for one
        vector, so a row equals the one-at-a-time observation bit for
        bit.
        """
        noise *= sigmas[:, None]
        noise += self._latents[vid_indices]
        norms = np.sqrt(np.vecdot(noise, noise))
        degenerate = norms == 0.0
        if degenerate.any():  # astronomically unlikely; keep the API total
            noise[degenerate] = self._latents[vid_indices[degenerate]]
            norms[degenerate] = 1.0
        noise /= norms[:, None]
        return noise

    def observe_many(
        self, vids: Iterable[VID], rng: np.random.Generator
    ) -> Dict[VID, np.ndarray]:
        """Observe a batch of VIDs (one V-Scenario's worth of figures)."""
        return {vid: self.observe(vid, rng) for vid in vids}

    def expected_same_person_similarity(self, samples: int = 256, seed: int = 1) -> float:
        """Monte-Carlo estimate of E[sim] between two observations of one VID.

        Exposed for calibration tests: the gap between this and
        :meth:`expected_cross_person_similarity` determines matching
        accuracy, mirroring how re-identification quality drove the
        paper's accuracy tables.
        """
        rng = np.random.default_rng(seed)
        vid = VID(0)
        sims = [
            similarity(self.observe(vid, rng), self.observe(vid, rng))
            for _ in range(samples)
        ]
        return float(np.mean(sims))

    def expected_cross_person_similarity(self, samples: int = 256, seed: int = 2) -> float:
        """Monte-Carlo estimate of E[sim] between observations of two VIDs."""
        if self.num_vids < 2:
            raise ValueError("need at least two VIDs for a cross-person estimate")
        rng = np.random.default_rng(seed)
        sims = []
        for _ in range(samples):
            a = int(rng.integers(self.num_vids))
            b = int(rng.integers(self.num_vids))
            while b == a:
                b = int(rng.integers(self.num_vids))
            sims.append(similarity(self.observe(VID(a), rng), self.observe(VID(b), rng)))
        return float(np.mean(sims))
