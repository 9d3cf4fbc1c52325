"""Threshold-independent and fixed-threshold detection metrics.

Polarity is fixed system-wide: lower score means more anomalous, and a
document is flagged abnormal when its score is <= the threshold.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LabelledScores:
    """Per-document scores paired with ground-truth abnormality labels."""

    scores: np.ndarray
    labels: np.ndarray  # boolean, True = abnormal

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.labels = np.asarray(self.labels, dtype=bool)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise ValueError("scores and labels must be 1-d and the same length")


def pr_curve(data: LabelledScores) -> np.ndarray:
    """(recall, precision) points, one per distinct score threshold.

    Flagging rule: score <= threshold is abnormal.  Ties are grouped, so the
    curve is invariant under strictly increasing score transforms.
    """
    pos = int(data.labels.sum())
    neg = len(data.labels) - pos
    if pos == 0 or neg == 0:
        raise ValueError("curve needs at least one positive and one negative label")
    order = np.argsort(data.scores, kind="stable")
    sorted_scores = data.scores[order]
    sorted_labels = data.labels[order]
    tp_cum = np.cumsum(sorted_labels)
    # Last index of each distinct score value = counts with threshold at it.
    is_last = np.concatenate([sorted_scores[1:] != sorted_scores[:-1], [True]])
    distinct = np.nonzero(is_last)[0]
    tp = tp_cum[distinct]
    return np.column_stack([tp / pos, tp / (distinct + 1)])


def auc_pr(curve: np.ndarray) -> float:
    """Trapezoidal area under the recall-sorted curve, anchored at zero
    recall with the precision of the smallest-recall point."""
    curve = np.asarray(curve, dtype=float)
    if curve.size == 0:
        raise ValueError("empty curve")
    order = np.argsort(curve[:, 0], kind="stable")
    recall = curve[order, 0]
    precision = curve[order, 1]
    recall = np.concatenate([[0.0], recall])
    precision = np.concatenate([[precision[0]], precision])
    return float(np.trapezoid(precision, recall))


def accuracy(data: LabelledScores, threshold: float) -> float:
    """Fraction of documents classified correctly at the given threshold."""
    predicted = data.scores <= threshold
    return float(np.mean(predicted == data.labels))


def localisation_recall(detected_words, truth_words, top_n: int) -> float:
    """Recall of the localisation shortlist against ground-truth tokens.

    The denominator is capped: with fewer retrievable slots than abnormal
    tokens only ``top_n`` detections are possible.
    """
    if top_n <= 0:
        raise ValueError("top_n must be positive")
    truth = set(truth_words)
    if not truth:
        raise ValueError("truth_words must be non-empty")
    n_an = min(top_n, len(truth))
    hits = len(set(detected_words) & truth)
    return hits / n_an
