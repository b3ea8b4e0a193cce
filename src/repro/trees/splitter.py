"""Exact best-split search for CART nodes.

For every feature the candidate thresholds are the midpoints between
consecutive distinct sorted values; split quality is evaluated for all
candidates of one feature in a single vectorised pass over cumulative class
counts.  This keeps tree construction fast enough for the study's
calibration sets (tens of thousands of rows) without any compiled code.

Sorting dominates the search, so a tree sorts each feature once at the root
and hands every node its samples already in per-feature order
(``sorted_idx``); the split then partitions those lists instead of sorting
again.  Without ``sorted_idx`` the node sorts its own samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SplitCandidate", "find_best_split"]


@dataclass(frozen=True)
class SplitCandidate:
    """The best split found for one node.

    Attributes
    ----------
    feature:
        Column index of the splitting feature.
    threshold:
        Split threshold; samples with ``value <= threshold`` go left.
    improvement:
        Weighted impurity decrease achieved by the split (parent impurity
        minus the child-weighted impurity), in units of the criterion.
    n_left / n_right:
        Sample counts of the resulting children.
    """

    feature: int
    threshold: float
    improvement: float
    n_left: int
    n_right: int


def find_best_split(
    X: np.ndarray,
    y_codes: np.ndarray,
    sample_idx: np.ndarray,
    n_classes: int,
    criterion,
    min_samples_leaf: int,
    sorted_idx: np.ndarray | None = None,
) -> SplitCandidate | None:
    """Search all features for the impurity-minimising binary split.

    Parameters
    ----------
    X:
        Full feature matrix of shape ``(n_samples, n_features)``.
    y_codes:
        Integer class codes aligned with ``X``.
    sample_idx:
        Indices of the samples reaching the node under consideration.
    n_classes:
        Total number of classes (fixes the width of count arrays).
    criterion:
        Impurity function over trailing class-count axes
        (see :mod:`repro.trees.criteria`).
    min_samples_leaf:
        Minimum samples each child must retain; splits violating this are
        discarded.
    sorted_idx:
        Optional ``(n_features, n)`` array whose row ``f`` lists the node's
        samples in stable ascending order of feature ``f``.  For an
        ascending ``sample_idx`` that is exactly the order a stable sort of
        ``X[sample_idx, f]`` gives, so the split found is the same.

    Returns
    -------
    SplitCandidate or None
        ``None`` when no admissible split improves on the parent impurity
        (including the cases "node is pure" and "all feature values tied").
    """
    n = sample_idx.size
    if n < 2 * min_samples_leaf:
        return None

    y_node = y_codes[sample_idx]
    parent_counts = np.bincount(y_node, minlength=n_classes).astype(float)
    parent_impurity = float(criterion(parent_counts))
    if parent_impurity <= 0.0:
        return None

    best: SplitCandidate | None = None
    best_improvement = 1e-12  # require strictly positive improvement
    n_features = X.shape[1]
    eye = np.eye(n_classes)

    for feature in range(n_features):
        if sorted_idx is None:
            rows = sample_idx[np.argsort(X[sample_idx, feature], kind="stable")]
        else:
            rows = sorted_idx[feature]
        v_sorted = X[rows, feature]
        if v_sorted[0] == v_sorted[-1]:
            continue  # constant feature at this node

        counts_left = np.cumsum(eye[y_codes[rows]], axis=0)  # counts for prefix of size i+1
        # Candidate split after position i (0-based): left has i+1 samples.
        sizes_left = np.arange(1, n, dtype=float)
        valid = v_sorted[:-1] < v_sorted[1:]
        valid &= sizes_left >= min_samples_leaf
        valid &= (n - sizes_left) >= min_samples_leaf
        if not np.any(valid):
            continue

        left_counts = counts_left[:-1][valid]
        right_counts = parent_counts[None, :] - left_counts
        nl = sizes_left[valid]
        nr = n - nl
        weighted = (nl * criterion(left_counts) + nr * criterion(right_counts)) / n
        improvements = parent_impurity - weighted
        pos = int(np.argmax(improvements))
        if improvements[pos] > best_improvement:
            best_improvement = float(improvements[pos])
            split_positions = np.nonzero(valid)[0]
            i = split_positions[pos]
            threshold = 0.5 * (v_sorted[i] + v_sorted[i + 1])
            # Guard against degenerate midpoints caused by float rounding.
            if not (v_sorted[i] < threshold <= v_sorted[i + 1]):
                threshold = v_sorted[i]
            best = SplitCandidate(
                feature=feature,
                threshold=float(threshold),
                improvement=best_improvement,
                n_left=int(i + 1),
                n_right=int(n - i - 1),
            )
    return best
