"""CART decision-tree classifier built on numpy.

This is the tree behind the uncertainty wrapper's quality impact model.  It
follows the sklearn conventions that matter for this project -- array-based
node storage with ``children_left_ == -1`` marking leaves, ``apply`` for leaf
lookup, ``predict_proba`` from per-leaf class counts -- while staying small
enough to audit, which is the transparency property the paper leans on.

The tree is grown depth-first with an explicit stack (no recursion limits),
using exact best-split search (:mod:`repro.trees.splitter`) and either gini
or entropy impurity (:mod:`repro.trees.criteria`).  Each feature is sorted
once at the root; every split partitions the per-feature sorted index lists
between its children, so no node sorts again.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.trees.criteria import get_criterion
from repro.trees.splitter import find_best_split

__all__ = ["DecisionTreeClassifier", "LEAF"]

LEAF = -1
"""Sentinel used in the children arrays to mark a leaf node."""

_NODE_ARRAYS = (
    "classes",
    "children_left",
    "children_right",
    "feature",
    "threshold",
    "value",
    "impurity",
    "n_node_samples",
    "depth",
)
"""Fitted arrays carried by :meth:`DecisionTreeClassifier.state_dict`
(stored on the tree with a trailing underscore)."""


class DecisionTreeClassifier:
    """A CART classification tree.

    Parameters
    ----------
    max_depth:
        Maximum depth of the tree (the paper uses 8 for the quality impact
        model).  ``None`` grows until other constraints stop the split.
    min_samples_split:
        Minimum number of samples a node must hold to be considered for
        splitting.
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    min_impurity_decrease:
        Minimum weighted impurity improvement required to accept a split.
    criterion:
        ``"gini"`` (paper default) or ``"entropy"``.

    Attributes (after :meth:`fit`)
    ------------------------------
    classes_:
        Sorted array of distinct class labels.
    node_count_:
        Number of nodes in the tree.
    children_left_ / children_right_:
        Child indices per node (:data:`LEAF` for leaves).
    feature_ / threshold_:
        Split definition per internal node (``-2`` / ``nan`` for leaves).
    value_:
        Per-node class-count matrix of shape ``(node_count_, n_classes)``.
    impurity_:
        Per-node training impurity.
    n_node_samples_:
        Per-node training sample count.
    depth_:
        Per-node depth (root is 0).
    """

    def __init__(
        self,
        max_depth: int | None = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        criterion: str = "gini",
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1 or None, got {max_depth}")
        if min_samples_split < 2:
            raise ValidationError(
                f"min_samples_split must be >= 2, got {min_samples_split}"
            )
        if min_samples_leaf < 1:
            raise ValidationError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        if min_impurity_decrease < 0:
            raise ValidationError(
                f"min_impurity_decrease must be >= 0, got {min_impurity_decrease}"
            )
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.criterion = criterion
        self._fitted = False

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X, y) -> "DecisionTreeClassifier":
        """Grow the tree on feature matrix ``X`` and labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-dimensional, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValidationError(
                f"y must be 1-dimensional with len(X) entries, got shape {y.shape}"
            )
        if X.shape[0] == 0:
            raise ValidationError("cannot fit a tree on an empty dataset")
        if not np.all(np.isfinite(X)):
            raise ValidationError("X contains non-finite values")

        criterion_fn = get_criterion(self.criterion)
        self.classes_, y_codes = np.unique(y, return_inverse=True)
        n_classes = self.classes_.size
        self.n_features_in_ = X.shape[1]

        children_left: list[int] = []
        children_right: list[int] = []
        feature: list[int] = []
        threshold: list[float] = []
        value: list[np.ndarray] = []
        impurity: list[float] = []
        n_node_samples: list[int] = []
        depth: list[int] = []

        def new_node(sample_idx: np.ndarray, node_depth: int) -> int:
            node_id = len(children_left)
            counts = np.bincount(y_codes[sample_idx], minlength=n_classes).astype(float)
            children_left.append(LEAF)
            children_right.append(LEAF)
            feature.append(-2)
            threshold.append(np.nan)
            value.append(counts)
            impurity.append(float(criterion_fn(counts)))
            n_node_samples.append(int(sample_idx.size))
            depth.append(node_depth)
            return node_id

        n_total = X.shape[0]
        root_idx = np.arange(n_total)
        root = new_node(root_idx, 0)
        # Row f: the node's samples in stable ascending order of feature f.
        # sample_idx stays ascending (children take masked subsets), so a
        # masked subset of these rows is the child's stable sort order.
        root_sorted = np.argsort(X, axis=0, kind="stable").T
        stack: list[tuple[int, np.ndarray, np.ndarray]] = [
            (root, root_idx, root_sorted)
        ]
        in_left = np.zeros(n_total, dtype=bool)

        while stack:
            node_id, sample_idx, sorted_idx = stack.pop()
            node_depth = depth[node_id]
            if self.max_depth is not None and node_depth >= self.max_depth:
                continue
            if sample_idx.size < self.min_samples_split:
                continue
            if impurity[node_id] <= 0.0:
                continue
            split = find_best_split(
                X,
                y_codes,
                sample_idx,
                n_classes,
                criterion_fn,
                self.min_samples_leaf,
                sorted_idx=sorted_idx,
            )
            if split is None:
                continue
            weighted_improvement = split.improvement * sample_idx.size / n_total
            if weighted_improvement < self.min_impurity_decrease:
                continue
            go_left = X[sample_idx, split.feature] <= split.threshold
            left_idx = sample_idx[go_left]
            right_idx = sample_idx[~go_left]
            if left_idx.size == 0 or right_idx.size == 0:
                continue  # numerically degenerate threshold; refuse the split
            in_left[left_idx] = True
            sorted_left = in_left[sorted_idx]
            in_left[left_idx] = False
            n_features = sorted_idx.shape[0]
            left_sorted = sorted_idx[sorted_left].reshape(n_features, -1)
            right_sorted = sorted_idx[~sorted_left].reshape(n_features, -1)
            left_id = new_node(left_idx, node_depth + 1)
            right_id = new_node(right_idx, node_depth + 1)
            children_left[node_id] = left_id
            children_right[node_id] = right_id
            feature[node_id] = split.feature
            threshold[node_id] = split.threshold
            stack.append((left_id, left_idx, left_sorted))
            stack.append((right_id, right_idx, right_sorted))

        self.children_left_ = np.asarray(children_left, dtype=np.int64)
        self.children_right_ = np.asarray(children_right, dtype=np.int64)
        self.feature_ = np.asarray(feature, dtype=np.int64)
        self.threshold_ = np.asarray(threshold, dtype=float)
        self.value_ = np.vstack(value)
        self.impurity_ = np.asarray(impurity, dtype=float)
        self.n_node_samples_ = np.asarray(n_node_samples, dtype=np.int64)
        self.depth_ = np.asarray(depth, dtype=np.int64)
        self.node_count_ = len(children_left)
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(
                "this DecisionTreeClassifier has not been fitted yet; call fit() first"
            )

    def _check_X(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-dimensional, got shape {X.shape}")
        if X.shape[1] != self.n_features_in_:
            raise ValidationError(
                f"X has {X.shape[1]} features but the tree was fitted with "
                f"{self.n_features_in_}"
            )
        return X

    def apply(self, X) -> np.ndarray:
        """Return the leaf index each row of ``X`` falls into.

        Descends all rows in lock-step: at each iteration every still-
        internal row moves one level down, so the loop runs at most
        ``max_depth`` times regardless of sample count.
        """
        self._check_fitted()
        X = self._check_X(X)
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = self.children_left_[nodes] != LEAF
        while np.any(active):
            current = nodes[active]
            feat = self.feature_[current]
            thresh = self.threshold_[current]
            rows = np.nonzero(active)[0]
            go_left = X[rows, feat] <= thresh
            nodes[rows] = np.where(
                go_left, self.children_left_[current], self.children_right_[current]
            )
            active = self.children_left_[nodes] != LEAF
        return nodes

    def predict_proba(self, X) -> np.ndarray:
        """Class-frequency probabilities of the training samples per leaf."""
        leaves = self.apply(X)
        counts = self.value_[leaves]
        totals = counts.sum(axis=1, keepdims=True)
        return counts / totals

    def predict(self, X) -> np.ndarray:
        """Majority-class prediction per row."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_leaf(self, node_id: int) -> bool:
        """Return True when ``node_id`` is a leaf."""
        self._check_fitted()
        return self.children_left_[node_id] == LEAF

    def reachable_nodes(self) -> np.ndarray:
        """Return ids of nodes reachable from the root.

        After pruning (see :mod:`repro.trees.pruning`) collapsed subtrees
        stay in the node arrays but are disconnected; all introspection
        helpers only consider reachable nodes.
        """
        self._check_fitted()
        reachable = np.zeros(self.node_count_, dtype=bool)
        stack = [0]
        while stack:
            node = stack.pop()
            reachable[node] = True
            left = self.children_left_[node]
            if left != LEAF:
                stack.append(int(left))
                stack.append(int(self.children_right_[node]))
        return np.nonzero(reachable)[0]

    def leaf_ids(self) -> np.ndarray:
        """Return the indices of all reachable leaves."""
        nodes = self.reachable_nodes()
        return nodes[self.children_left_[nodes] == LEAF]

    def get_depth(self) -> int:
        """Return the depth of the deepest reachable node."""
        return int(self.depth_[self.reachable_nodes()].max())

    def get_n_leaves(self) -> int:
        """Return the number of leaves."""
        return int(self.leaf_ids().size)

    def feature_importances(self) -> np.ndarray:
        """Impurity-based feature importances (normalised to sum to 1).

        Each internal node contributes its weighted impurity decrease to
        the importance of its splitting feature, mirroring sklearn's
        definition.
        """
        self._check_fitted()
        importances = np.zeros(self.n_features_in_, dtype=float)
        n_total = float(self.n_node_samples_[0])
        for node in self.reachable_nodes():
            left = self.children_left_[node]
            if left == LEAF:
                continue
            right = self.children_right_[node]
            n = self.n_node_samples_[node]
            n_l = self.n_node_samples_[left]
            n_r = self.n_node_samples_[right]
            decrease = (
                n * self.impurity_[node]
                - n_l * self.impurity_[left]
                - n_r * self.impurity_[right]
            ) / n_total
            importances[self.feature_[node]] += decrease
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances

    def copy(self) -> "DecisionTreeClassifier":
        """Return a deep copy of the fitted tree (for in-place pruning)."""
        state = {
            key: value.copy() if isinstance(value, np.ndarray) else value
            for key, value in self.state_dict().items()
        }
        return type(self).from_state_dict(state)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Portable fitted tree: hyperparameters and node arrays.

        Scalars are JSON types and the node arrays stay numpy arrays;
        :meth:`from_state_dict` rebuilds an identical tree.
        """
        self._check_fitted()
        state = {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "min_impurity_decrease": self.min_impurity_decrease,
            "criterion": self.criterion,
            "n_features_in": int(self.n_features_in_),
        }
        for name in _NODE_ARRAYS:
            state[name] = getattr(self, f"{name}_")
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "DecisionTreeClassifier":
        """Rebuild a fitted tree from :meth:`state_dict` output."""
        try:
            tree = cls(
                max_depth=state["max_depth"],
                min_samples_split=state["min_samples_split"],
                min_samples_leaf=state["min_samples_leaf"],
                min_impurity_decrease=state["min_impurity_decrease"],
                criterion=state["criterion"],
            )
            tree.n_features_in_ = int(state["n_features_in"])
            for name in _NODE_ARRAYS:
                setattr(tree, f"{name}_", np.asarray(state[name]))
        except KeyError as missing:
            raise ValidationError(
                f"tree state is missing key {missing.args[0]!r}"
            ) from None
        tree.node_count_ = int(tree.children_left_.size)
        tree._fitted = True
        return tree
