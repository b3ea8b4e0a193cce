"""Tests for the numpy classifiers (softmax regression and MLP)."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.models.linear import SoftmaxRegression, one_hot, softmax
from repro.models.mlp import MLPClassifier


@pytest.fixture
def blobs(rng):
    """Three well-separated Gaussian blobs."""
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    X = np.vstack([rng.normal(c, 0.5, size=(80, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 80)
    return X, y


class TestSoftmaxHelpers:
    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(rng.normal(size=(10, 5)))
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_softmax_stable_for_large_logits(self):
        p = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)

    def test_one_hot(self):
        oh = one_hot(np.array([0, 2, 1]), 3)
        assert np.array_equal(oh, np.eye(3)[[0, 2, 1]])

    def test_one_hot_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            one_hot(np.array([3]), 3)

    def test_one_hot_2d_rejected(self):
        with pytest.raises(ValidationError):
            one_hot(np.zeros((2, 2), dtype=int), 3)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: SoftmaxRegression(epochs=20, seed=0),
        lambda: MLPClassifier(
            hidden_sizes=(16,), epochs=40, batch_size=32, learning_rate=5e-3, seed=0
        ),
    ],
    ids=["softmax", "mlp"],
)
class TestClassifiers:
    def test_learns_blobs(self, factory, blobs):
        X, y = blobs
        clf = factory().fit(X, y)
        assert clf.score(X, y) > 0.97

    def test_proba_shape_and_sum(self, factory, blobs):
        X, y = blobs
        clf = factory().fit(X, y)
        proba = clf.predict_proba(X)
        assert proba.shape == (len(X), 3)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predict_matches_argmax(self, factory, blobs):
        X, y = blobs
        clf = factory().fit(X, y)
        proba = clf.predict_proba(X)
        assert np.array_equal(clf.predict(X), clf.classes_[proba.argmax(axis=1)])

    def test_deterministic_given_seed(self, factory, blobs):
        X, y = blobs
        p1 = factory().fit(X, y).predict_proba(X[:5])
        p2 = factory().fit(X, y).predict_proba(X[:5])
        assert np.allclose(p1, p2)

    def test_non_contiguous_labels(self, factory, blobs):
        X, y = blobs
        clf = factory().fit(X, y * 10 + 5)
        assert set(clf.predict(X)) <= {5, 15, 25}

    def test_state_dict_round_trip_is_bitwise(self, factory, blobs, rng):
        X, y = blobs
        clf = factory().fit(X, y)
        clone = type(clf).from_state_dict(clf.state_dict())
        probe = rng.normal(0.0, 4.0, size=(50, 2))
        np.testing.assert_array_equal(clone.predict_proba(probe), clf.predict_proba(probe))
        np.testing.assert_array_equal(clone.predict(probe), clf.predict(probe))
        assert clone.epochs == clf.epochs and clone.seed == clf.seed

    def test_state_dict_unfitted_or_incomplete_rejected(self, factory, blobs):
        with pytest.raises(NotFittedError):
            factory().state_dict()
        X, y = blobs
        state = factory().fit(X, y).state_dict()
        del state["classes"]
        with pytest.raises(ValidationError, match="classes"):
            type(factory()).from_state_dict(state)

    def test_unfitted_raises(self, factory):
        with pytest.raises(NotFittedError):
            factory().predict([[0.0, 0.0]])

    def test_wrong_width_rejected(self, factory, blobs):
        X, y = blobs
        clf = factory().fit(X, y)
        with pytest.raises(ValidationError):
            clf.predict(X[:, :1])

    def test_bad_shapes_rejected(self, factory):
        with pytest.raises(ValidationError):
            factory().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ValidationError):
            factory().fit(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ValidationError):
            factory().fit(np.empty((0, 2)), np.empty(0))


class TestParamValidation:
    def test_softmax_params(self):
        with pytest.raises(ValidationError):
            SoftmaxRegression(learning_rate=0.0)
        with pytest.raises(ValidationError):
            SoftmaxRegression(epochs=0)
        with pytest.raises(ValidationError):
            SoftmaxRegression(batch_size=0)
        with pytest.raises(ValidationError):
            SoftmaxRegression(l2=-1.0)

    def test_mlp_params(self):
        with pytest.raises(ValidationError):
            MLPClassifier(hidden_sizes=())
        with pytest.raises(ValidationError):
            MLPClassifier(hidden_sizes=(0,))
        with pytest.raises(ValidationError):
            MLPClassifier(learning_rate=-1.0)
        with pytest.raises(ValidationError):
            MLPClassifier(epochs=0)

    def test_mlp_two_hidden_layers(self, rng):
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(int)
        clf = MLPClassifier(
            hidden_sizes=(16, 8), epochs=80, batch_size=32, learning_rate=5e-3, seed=0
        ).fit(X, y)
        assert clf.score(X, y) > 0.9
