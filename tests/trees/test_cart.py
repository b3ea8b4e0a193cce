"""Tests for the CART decision-tree classifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NotFittedError, ValidationError
from repro.trees.cart import LEAF, DecisionTreeClassifier


@pytest.fixture
def separable(rng):
    X = rng.normal(size=(400, 4))
    y = ((X[:, 0] > 0) & (X[:, 1] > -0.5)).astype(int)
    return X, y


class TestFit:
    def test_learns_separable_data(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.98

    def test_max_depth_respected(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.get_depth() <= 3

    def test_depth_one_is_a_stump(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert tree.get_n_leaves() == 2

    def test_min_samples_leaf_respected(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=None, min_samples_leaf=25).fit(X, y)
        leaf_sizes = tree.n_node_samples_[tree.leaf_ids()]
        assert leaf_sizes.min() >= 25

    def test_min_samples_split_respected(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=None, min_samples_split=100).fit(X, y)
        for node in range(tree.node_count_):
            if tree.children_left_[node] != LEAF:
                assert tree.n_node_samples_[node] >= 100

    def test_pure_labels_yield_single_leaf(self, rng):
        X = rng.normal(size=(50, 3))
        tree = DecisionTreeClassifier().fit(X, np.ones(50, dtype=int))
        assert tree.get_n_leaves() == 1
        assert tree.node_count_ == 1

    def test_multiclass(self, rng):
        X = rng.normal(size=(600, 2))
        y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.95
        assert set(tree.classes_) == {0, 1, 2, 3}

    def test_string_labels(self, rng):
        X = rng.normal(size=(100, 2))
        y = np.where(X[:, 0] > 0, "pos", "neg")
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert set(tree.predict(X)) <= {"pos", "neg"}

    def test_deterministic(self, separable):
        X, y = separable
        t1 = DecisionTreeClassifier(max_depth=5).fit(X, y)
        t2 = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert np.array_equal(t1.threshold_, t2.threshold_, equal_nan=True)
        assert np.array_equal(t1.feature_, t2.feature_)

    def test_entropy_criterion(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=6, criterion="entropy").fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.98

    def test_min_impurity_decrease_prunes_weak_splits(self, rng):
        X = rng.normal(size=(500, 3))
        y = rng.integers(0, 2, size=500)  # pure noise
        strict = DecisionTreeClassifier(max_depth=8, min_impurity_decrease=0.01).fit(X, y)
        loose = DecisionTreeClassifier(max_depth=8).fit(X, y)
        assert strict.get_n_leaves() < loose.get_n_leaves()


class TestValidation:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(min_samples_leaf=0)
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(min_impurity_decrease=-1.0)
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(criterion="bogus").fit([[1.0]], [0])

    def test_bad_shapes_rejected(self, rng):
        with pytest.raises(ValidationError):
            DecisionTreeClassifier().fit(rng.normal(size=10), np.zeros(10))
        with pytest.raises(ValidationError):
            DecisionTreeClassifier().fit(rng.normal(size=(10, 2)), np.zeros(5))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            DecisionTreeClassifier().fit(np.empty((0, 2)), np.empty(0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            DecisionTreeClassifier().fit([[np.nan]], [0])

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_wrong_feature_count_rejected(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        with pytest.raises(ValidationError):
            tree.predict(X[:, :2])


class TestInference:
    def test_apply_returns_leaves(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        leaves = tree.apply(X)
        assert set(leaves) <= set(tree.leaf_ids())

    def test_proba_rows_sum_to_one(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predict_matches_argmax_proba(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X)
        assert np.array_equal(tree.predict(X), tree.classes_[proba.argmax(axis=1)])

    def test_single_leaf_tree_predicts_majority(self, rng):
        X = rng.normal(size=(30, 2))
        y = np.array([0] * 20 + [1] * 10)
        tree = DecisionTreeClassifier(max_depth=1, min_samples_split=1000).fit(X, y)
        assert np.all(tree.predict(X) == 0)


class TestIntrospection:
    def test_feature_importances_sum_to_one(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        importances = tree.feature_importances()
        assert importances.shape == (4,)
        assert importances.sum() == pytest.approx(1.0)

    def test_informative_features_dominate(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        importances = tree.feature_importances()
        assert importances[0] + importances[1] > 0.9

    def test_copy_is_independent(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        clone = tree.copy()
        clone.children_left_[0] = LEAF
        assert tree.children_left_[0] != LEAF

    def test_node_counts_consistent(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        for node in range(tree.node_count_):
            left = tree.children_left_[node]
            if left == LEAF:
                continue
            right = tree.children_right_[node]
            assert (
                tree.n_node_samples_[node]
                == tree.n_node_samples_[left] + tree.n_node_samples_[right]
            )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_unbounded_tree_memorises_unique_rows(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 3, size=60)
        tree = DecisionTreeClassifier(max_depth=None).fit(X, y)
        # Distinct rows with distinct labels are perfectly separable.
        assert (tree.predict(X) == y).all()


TREE_ARRAYS = (
    "classes_",
    "children_left_",
    "children_right_",
    "feature_",
    "threshold_",
    "value_",
    "impurity_",
    "n_node_samples_",
    "depth_",
)


def assert_trees_identical(a, b):
    assert a.node_count_ == b.node_count_
    assert a.n_features_in_ == b.n_features_in_
    for name in TREE_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


class TestPresortedSplitSearch:
    """fit() sorts each feature once and partitions the sorted lists; the
    trees must equal those of the per-node sort."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_levels=st.integers(min_value=1, max_value=6),
        n_classes=st.integers(min_value=2, max_value=4),
        criterion=st.sampled_from(["gini", "entropy"]),
        min_samples_leaf=st.integers(min_value=1, max_value=5),
        max_depth=st.sampled_from([None, 2, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_tree_as_per_node_sort(
        self, seed, n_levels, n_classes, criterion, min_samples_leaf, max_depth
    ):
        import repro.trees.cart as cart

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        # Few distinct values per column: heavy ties, incl. -0.0 vs 0.0.
        levels = np.array([-1.5, -0.0, 0.0, 0.25, 2.0, 7.0])[:n_levels]
        X = rng.choice(levels, size=(n, int(rng.integers(1, 5))))
        y = rng.integers(0, n_classes, size=n)
        params = dict(
            max_depth=max_depth, criterion=criterion,
            min_samples_leaf=min_samples_leaf,
        )
        presorted = DecisionTreeClassifier(**params).fit(X, y)

        real_split = cart.find_best_split

        def per_node_sort(*args, sorted_idx=None):
            return real_split(*args)

        cart.find_best_split = per_node_sort
        try:
            reference = DecisionTreeClassifier(**params).fit(X, y)
        finally:
            cart.find_best_split = real_split
        assert_trees_identical(presorted, reference)


class TestStateDict:
    def test_round_trip_is_identical(self, separable):
        X, y = separable
        tree = DecisionTreeClassifier(max_depth=5, criterion="entropy").fit(X, y)
        clone = DecisionTreeClassifier.from_state_dict(tree.state_dict())
        assert_trees_identical(tree, clone)
        assert clone.max_depth == 5 and clone.criterion == "entropy"
        np.testing.assert_array_equal(clone.apply(X), tree.apply(X))

    def test_state_scalars_are_plain_python(self, separable):
        X, y = separable
        state = DecisionTreeClassifier().fit(X, y).state_dict()
        for key, value in state.items():
            assert isinstance(value, (np.ndarray, int, float, str, type(None))), key

    def test_unfitted_state_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().state_dict()

    def test_missing_key_rejected(self, separable):
        X, y = separable
        state = DecisionTreeClassifier().fit(X, y).state_dict()
        del state["threshold"]
        with pytest.raises(ValidationError, match="threshold"):
            DecisionTreeClassifier.from_state_dict(state)
