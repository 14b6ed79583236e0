"""Linear dimensionality reduction of unrolled pose vectors.

A pose (or derivative frame) is unrolled to a 26-vector by concatenating the
x, y coordinates of every landmark except the root, which is identically the
origin after centering and would contribute nothing. Principal components
are the leading eigenvectors of the sample covariance of those vectors.

Two independent models are fitted from training data: one on pose vectors
and one on derivative vectors. Both are fitted globally, across all actions
and viewpoints, so that every downstream projection lives in one shared
reduced space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData
from .pose import N_LANDMARKS, ROOT

# Landmark rows that survive unrolling, in index order: 1, 3, 4, ..., 14.
UNROLLED_LANDMARKS = tuple(j for j in range(1, N_LANDMARKS + 1) if j != ROOT)
_UNROLLED_ROWS = np.array([j - 1 for j in UNROLLED_LANDMARKS])
FEATURE_DIM = 2 * len(UNROLLED_LANDMARKS)  # 26


def unroll(frames: np.ndarray) -> np.ndarray:
    """Unroll (..., 14, 2) coordinate arrays to (..., 26) feature vectors.

    The coordinate order is x1, y1, x3, y3, ..., x14, y14. Persistently
    missing landmarks are expected to already hold zeros.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[-2:] != (N_LANDMARKS, 2):
        raise ValueError(f"expected trailing (14, 2) axes, got {frames.shape}")
    picked = frames[..., _UNROLLED_ROWS, :]
    return picked.reshape(*frames.shape[:-2], FEATURE_DIM)


def reroll(vectors: np.ndarray) -> np.ndarray:
    """Inverse of :func:`unroll`: (..., 26) back to (..., 14, 2) with the
    root row restored as the origin."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[-1] != FEATURE_DIM:
        raise ValueError(f"expected trailing axis {FEATURE_DIM}, got {vectors.shape}")
    out = np.zeros(vectors.shape[:-1] + (N_LANDMARKS, 2))
    out[..., _UNROLLED_ROWS, :] = vectors.reshape(*vectors.shape[:-1], len(UNROLLED_LANDMARKS), 2)
    return out


@dataclass(frozen=True)
class PcaModel:
    """Mean vector plus the leading principal axes of the training data.

    components rows are orthonormal and ordered by decreasing eigenvalue;
    each row's largest-magnitude entry is positive, which pins the
    otherwise arbitrary sign.
    """

    mean: np.ndarray          # (26,)
    components: np.ndarray    # (m, 26)
    eigenvalues: np.ndarray   # (m,) descending
    total_variance: float     # sum of all 26 eigenvalues

    @property
    def captured_variance(self) -> float:
        """Fraction of total variance along the kept axes."""
        if self.total_variance <= 0.0:
            return 1.0
        return float(self.eigenvalues.sum() / self.total_variance)


def principal_axes(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The mean of (N >= 2, d) data, the eigenvalues and eigenvectors of its
    sample covariance (ddof 1) in ``np.linalg.eigh``'s ascending order, and
    the indices that order them by decreasing eigenvalue."""
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (data.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    return mean, eigenvalues, eigenvectors, np.argsort(eigenvalues)[::-1]


def fit_pca(data: np.ndarray, n_components: int = 3) -> PcaModel:
    """Fit a reduction model on (N, 26) training vectors.

    Uses the symmetric eigendecomposition of the sample covariance (ddof 1).
    Raises InsufficientData when fewer than n_components + 1 vectors are
    given.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != FEATURE_DIM:
        raise ValueError(f"expected (N, {FEATURE_DIM}) data, got {data.shape}")
    if not 1 <= n_components <= FEATURE_DIM:
        raise ValueError(f"n_components must be in 1..{FEATURE_DIM}")
    if data.shape[0] < n_components + 1:
        raise InsufficientData(
            f"need at least {n_components + 1} vectors to keep {n_components} components, "
            f"got {data.shape[0]}")
    mean, eigenvalues, eigenvectors, order = principal_axes(data)
    kept = order[:n_components]
    components = eigenvectors[:, kept].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=components,
        eigenvalues=eigenvalues[kept].copy(),
        total_variance=float(eigenvalues.sum()),
    )


def project(model: PcaModel, vectors: np.ndarray) -> np.ndarray:
    """Project (..., 26) vectors onto the model's axes, giving (..., m)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[-1] != FEATURE_DIM:
        raise ValueError(f"expected trailing axis {FEATURE_DIM}, got {vectors.shape}")
    return (vectors - model.mean) @ model.components.T
