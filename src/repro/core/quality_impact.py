"""Quality impact model: decision tree + calibration + statistical guarantees.

The quality impact model (QIM) decomposes the target application scope into
regions of similar uncertainty using a CART decision tree over the quality
factors (trained on "is the DDM outcome wrong?" labels), then *calibrates*
the tree on held-out data:

1. leaves are pruned so that every leaf retains at least
   ``min_calibration_samples`` calibration cases (paper: 200);
2. each leaf gets a one-sided Clopper-Pearson upper bound on its true error
   probability at level ``confidence`` (paper: 0.999).

At runtime a case descends to its leaf and receives that leaf's bound as its
dependable uncertainty estimate.  The tree structure stays transparent and
reviewable via :meth:`QualityImpactModel.export_text`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotCalibratedError, NotFittedError, ValidationError
from repro.stats import binomial as _binomial
from repro.trees.cart import DecisionTreeClassifier
from repro.trees.export import export_text as _export_text
from repro.trees.pruning import prune_to_min_samples

__all__ = ["QualityImpactModel", "BOUND_FUNCTIONS"]

BOUND_FUNCTIONS = {
    "clopper_pearson": _binomial.clopper_pearson_upper,
    "wilson": _binomial.wilson_upper,
    "jeffreys": _binomial.jeffreys_upper,
    "hoeffding": _binomial.hoeffding_upper,
}
"""Selectable upper-bound constructions for the per-leaf guarantees."""

_TREES = ("tree", "calibrated_tree")
_LEAF_ARRAYS = ("leaf_upper", "leaf_point", "leaf_counts", "leaf_failures")
"""State carried by :meth:`QualityImpactModel.state_dict` (stored on the
model with a leading underscore)."""


class QualityImpactModel:
    """Tree-based, calibrated estimator of input-quality-related uncertainty.

    Parameters
    ----------
    max_depth:
        Depth limit of the CART tree (paper: 8).
    criterion:
        Split criterion, ``"gini"`` (paper) or ``"entropy"``.
    min_calibration_samples:
        Minimum calibration cases per leaf after pruning (paper: 200).
    confidence:
        One-sided confidence level of the per-leaf bounds (paper: 0.999).
    bound:
        Which bound construction to use (see :data:`BOUND_FUNCTIONS`).
    min_samples_leaf:
        Training-time minimum samples per leaf (growth constraint).
    """

    def __init__(
        self,
        max_depth: int = 8,
        criterion: str = "gini",
        min_calibration_samples: int = 200,
        confidence: float = 0.999,
        bound: str = "clopper_pearson",
        min_samples_leaf: int = 1,
    ) -> None:
        if min_calibration_samples < 1:
            raise ValidationError(
                f"min_calibration_samples must be >= 1, got {min_calibration_samples}"
            )
        if not 0.0 < confidence < 1.0:
            raise ValidationError(
                f"confidence must lie strictly between 0 and 1, got {confidence}"
            )
        if bound not in BOUND_FUNCTIONS:
            raise ValidationError(
                f"unknown bound {bound!r}; expected one of {sorted(BOUND_FUNCTIONS)}"
            )
        self.max_depth = max_depth
        self.criterion = criterion
        self.min_calibration_samples = min_calibration_samples
        self.confidence = confidence
        self.bound = bound
        self.min_samples_leaf = min_samples_leaf
        self._tree: DecisionTreeClassifier | None = None
        self._calibrated_tree: DecisionTreeClassifier | None = None
        self._leaf_upper: np.ndarray | None = None
        self._leaf_point: np.ndarray | None = None
        self._leaf_counts: np.ndarray | None = None
        self._leaf_failures: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Training and calibration
    # ------------------------------------------------------------------
    def fit(self, quality_features, wrong) -> "QualityImpactModel":
        """Grow the decision tree on training-time failure labels.

        Parameters
        ----------
        quality_features:
            Feature matrix over the quality factors, shape ``(n, d)``.
        wrong:
            Binary indicators: 1 where the wrapped model's outcome was
            wrong on the corresponding training case.
        """
        wrong = self._check_binary(wrong)
        tree = DecisionTreeClassifier(
            max_depth=self.max_depth,
            criterion=self.criterion,
            min_samples_leaf=self.min_samples_leaf,
        )
        tree.fit(np.asarray(quality_features, dtype=float), wrong)
        self._tree = tree
        self._calibrated_tree = None
        self._leaf_upper = None
        return self

    def calibrate(self, quality_features, wrong) -> "QualityImpactModel":
        """Prune on calibration data and compute per-leaf guarantees.

        Parameters
        ----------
        quality_features:
            Calibration feature matrix (held out from training).
        wrong:
            Binary failure indicators on the calibration cases.
        """
        if self._tree is None:
            raise NotFittedError("fit() must run before calibrate()")
        X = np.asarray(quality_features, dtype=float)
        wrong = self._check_binary(wrong)
        if X.shape[0] != wrong.size:
            raise ValidationError("quality_features and wrong must align")

        pruned = prune_to_min_samples(self._tree, X, self.min_calibration_samples)
        leaves = pruned.apply(X)
        n_nodes = pruned.node_count_
        counts = np.bincount(leaves, minlength=n_nodes).astype(float)
        failures = np.bincount(leaves, weights=wrong, minlength=n_nodes)

        upper = np.ones(n_nodes, dtype=float)
        point = np.ones(n_nodes, dtype=float)
        bound_fn = BOUND_FUNCTIONS[self.bound]
        supported = counts > 0
        upper[supported] = bound_fn(
            failures[supported], counts[supported], self.confidence
        )
        point[supported] = failures[supported] / counts[supported]

        self._calibrated_tree = pruned
        self._leaf_upper = upper
        self._leaf_point = point
        self._leaf_counts = counts.astype(np.int64)
        self._leaf_failures = failures.astype(np.int64)
        return self

    @staticmethod
    def _check_binary(wrong) -> np.ndarray:
        arr = np.asarray(wrong, dtype=float).ravel()
        if arr.size == 0:
            raise ValidationError("need at least one case")
        if not np.all(np.isin(arr, (0.0, 1.0))):
            raise ValidationError("wrong must be binary indicators (0 or 1)")
        return arr.astype(np.int64)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _require_calibrated(self) -> DecisionTreeClassifier:
        if self._calibrated_tree is None or self._leaf_upper is None:
            raise NotCalibratedError(
                "the quality impact model provides dependable estimates only "
                "after calibrate(); call it with held-out data first"
            )
        return self._calibrated_tree

    def estimate_uncertainty(self, quality_features) -> np.ndarray:
        """Dependable (upper-bounded) uncertainty per case."""
        tree = self._require_calibrated()
        leaves = tree.apply(np.asarray(quality_features, dtype=float))
        return self._leaf_upper[leaves]

    def point_uncertainty(self, quality_features) -> np.ndarray:
        """Empirical (non-guaranteed) calibration error rate per case."""
        tree = self._require_calibrated()
        leaves = tree.apply(np.asarray(quality_features, dtype=float))
        return self._leaf_point[leaves]

    def leaf_assignments(self, quality_features) -> np.ndarray:
        """Leaf index per case (for transparency/debugging)."""
        tree = self._require_calibrated()
        return tree.apply(np.asarray(quality_features, dtype=float))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_calibrated(self) -> bool:
        """Whether dependable estimates are available."""
        return self._calibrated_tree is not None

    @property
    def n_leaves(self) -> int:
        """Number of leaves of the calibrated tree."""
        return int(self._require_calibrated().get_n_leaves())

    @property
    def min_guaranteed_uncertainty(self) -> float:
        """Smallest uncertainty any leaf can certify (paper Fig. 5's 0.0072)."""
        self._require_calibrated()
        leaf_ids = self._calibrated_tree.leaf_ids()
        return float(np.min(self._leaf_upper[leaf_ids]))

    def leaf_table(self) -> list[dict]:
        """Per-leaf summary: id, calibration count, failures, bound."""
        tree = self._require_calibrated()
        rows = []
        for leaf in tree.leaf_ids():
            rows.append(
                {
                    "leaf": int(leaf),
                    "calibration_samples": int(self._leaf_counts[leaf]),
                    "calibration_failures": int(self._leaf_failures[leaf]),
                    "point_uncertainty": float(self._leaf_point[leaf]),
                    "guaranteed_uncertainty": float(self._leaf_upper[leaf]),
                }
            )
        rows.sort(key=lambda r: r["guaranteed_uncertainty"])
        return rows

    def export_text(self, feature_names=None, max_depth: int | None = None) -> str:
        """Human-readable tree with per-leaf guarantees (expert review)."""
        tree = self._require_calibrated()
        annotations = {
            int(leaf): f"u <= {self._leaf_upper[leaf]:.4f} "
            f"(n={int(self._leaf_counts[leaf])})"
            for leaf in tree.leaf_ids()
        }
        return _export_text(
            tree,
            feature_names=feature_names,
            leaf_annotations=annotations,
            max_depth=max_depth,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Portable model: configuration, both trees and the leaf arrays.

        ``tree`` is the grown tree and ``calibrated_tree`` its pruned copy
        (each a :meth:`DecisionTreeClassifier.state_dict`); the ``leaf_*``
        arrays hold the per-node calibration bounds and counts.  Entries
        are ``None`` before :meth:`fit` / :meth:`calibrate`.
        :meth:`from_state_dict` rebuilds a model with identical estimates.
        """
        state = {
            "max_depth": self.max_depth,
            "criterion": self.criterion,
            "min_calibration_samples": self.min_calibration_samples,
            "confidence": self.confidence,
            "bound": self.bound,
            "min_samples_leaf": self.min_samples_leaf,
        }
        for name in _TREES:
            tree = getattr(self, f"_{name}")
            state[name] = None if tree is None else tree.state_dict()
        for name in _LEAF_ARRAYS:
            state[name] = getattr(self, f"_{name}")
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "QualityImpactModel":
        """Rebuild a model from :meth:`state_dict` output."""
        try:
            model = cls(
                max_depth=state["max_depth"],
                criterion=state["criterion"],
                min_calibration_samples=state["min_calibration_samples"],
                confidence=state["confidence"],
                bound=state["bound"],
                min_samples_leaf=state["min_samples_leaf"],
            )
            for name in _TREES:
                tree = state[name]
                if tree is not None:
                    tree = DecisionTreeClassifier.from_state_dict(tree)
                setattr(model, f"_{name}", tree)
            for name in _LEAF_ARRAYS:
                value = state[name]
                setattr(model, f"_{name}", None if value is None else np.asarray(value))
        except KeyError as missing:
            raise ValidationError(
                f"quality impact model state is missing key {missing.args[0]!r}"
            ) from None
        return model
