"""Ranking metrics and convergence bookkeeping."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, MetricError


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative (ties 0.5).

    Computed by the rank-sum method with midranks, kept in integer
    arithmetic (doubled ranks) so the result is bitwise equal to brute-force
    pair counting.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise DimensionError(f"{scores.size} scores vs {labels.size} labels")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(scores.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC undefined: need at least one positive and one negative")
    # doubled midranks: twice the average 1-based rank of each tie group,
    # first + last = (last - count + 1) + last
    _, group, count = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(count)
    doubled = (2 * last - count + 1)[group]
    doubled_pos = int(doubled[pos].sum())
    numerator = doubled_pos - n_pos * (n_pos + 1)  # 2 * (rank sum - n_pos(n_pos+1)/2)
    return numerator / (2 * n_pos * n_neg)


def epochs_to_threshold(history, threshold: float):
    """First 1-based epoch whose loss is <= threshold, or None."""
    for i, loss in enumerate(history, start=1):
        if loss <= threshold:
            return i
    return None
