"""Multinomial logistic regression (softmax classifier) on numpy.

A light-weight alternative head for the DDM substrate; also used in tests
where training an MLP would be wasteful.  Optimised with mini-batch Adam on
the cross-entropy loss with optional L2 regularisation.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, ValidationError

__all__ = ["SoftmaxRegression", "softmax", "one_hot"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically stable softmax."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(y_codes: np.ndarray, n_classes: int) -> np.ndarray:
    """Return one-hot encoding of integer codes, shape ``(n, n_classes)``."""
    y_codes = np.asarray(y_codes)
    if y_codes.ndim != 1:
        raise ValidationError(f"y_codes must be 1-dimensional, got {y_codes.shape}")
    if y_codes.size and (y_codes.min() < 0 or y_codes.max() >= n_classes):
        raise ValidationError("y_codes out of range for n_classes")
    out = np.zeros((y_codes.size, n_classes), dtype=float)
    out[np.arange(y_codes.size), y_codes] = 1.0
    return out


class SoftmaxRegression:
    """Multinomial logistic regression trained with mini-batch Adam.

    Parameters
    ----------
    learning_rate:
        Adam step size.
    epochs:
        Number of passes over the training data.
    batch_size:
        Mini-batch size.
    l2:
        L2 penalty on the weight matrix (not the bias).
    seed:
        Seed for shuffling and initialisation.
    """

    def __init__(
        self,
        learning_rate: float = 0.05,
        epochs: int = 30,
        batch_size: int = 256,
        l2: float = 1e-4,
        seed: int = 0,
    ) -> None:
        if learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {learning_rate}")
        if epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        if l2 < 0:
            raise ValidationError(f"l2 must be >= 0, got {l2}")
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed
        self._fitted = False

    def fit(self, X, y) -> "SoftmaxRegression":
        """Train on features ``X`` and integer labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-dimensional, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValidationError("y must be 1-dimensional and aligned with X")
        if X.shape[0] == 0:
            raise ValidationError("cannot fit on an empty dataset")

        self.classes_, codes = np.unique(y, return_inverse=True)
        n, d = X.shape
        k = self.classes_.size
        rng = np.random.default_rng(self.seed)
        W = rng.normal(0.0, 0.01, size=(d, k))
        b = np.zeros(k)

        m_w = np.zeros_like(W)
        v_w = np.zeros_like(W)
        m_b = np.zeros_like(b)
        v_b = np.zeros_like(b)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        targets = one_hot(codes, k)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                xb, tb = X[idx], targets[idx]
                probs = softmax(xb @ W + b)
                grad_logits = (probs - tb) / idx.size
                g_w = xb.T @ grad_logits + self.l2 * W
                g_b = grad_logits.sum(axis=0)
                step += 1
                m_w = beta1 * m_w + (1 - beta1) * g_w
                v_w = beta2 * v_w + (1 - beta2) * g_w**2
                m_b = beta1 * m_b + (1 - beta1) * g_b
                v_b = beta2 * v_b + (1 - beta2) * g_b**2
                lr_t = self.learning_rate * np.sqrt(1 - beta2**step) / (1 - beta1**step)
                W -= lr_t * m_w / (np.sqrt(v_w) + eps)
                b -= lr_t * m_b / (np.sqrt(v_b) + eps)

        self.weights_ = W
        self.bias_ = b
        self._fitted = True
        return self

    def _check(self, X) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("SoftmaxRegression is not fitted; call fit() first")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.weights_.shape[0]:
            raise ValidationError(
                f"X must have shape (n, {self.weights_.shape[0]}), got {X.shape}"
            )
        return X

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities per row."""
        X = self._check(X)
        return softmax(X @ self.weights_ + self.bias_)

    def predict(self, X) -> np.ndarray:
        """Most probable class label per row."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def score(self, X, y) -> float:
        """Mean accuracy on the given data."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    def state_dict(self) -> dict:
        """Portable fitted model: hyperparameters, classes and parameters.

        Scalars are JSON types and the parameters stay numpy arrays;
        :meth:`from_state_dict` rebuilds a model with identical outputs.
        """
        if not self._fitted:
            raise NotFittedError("SoftmaxRegression is not fitted; call fit() first")
        return {
            "learning_rate": float(self.learning_rate),
            "epochs": int(self.epochs),
            "batch_size": int(self.batch_size),
            "l2": float(self.l2),
            "seed": int(self.seed),
            "classes": self.classes_,
            "weights": self.weights_,
            "bias": self.bias_,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "SoftmaxRegression":
        """Rebuild a fitted model from :meth:`state_dict` output."""
        try:
            model = cls(
                learning_rate=state["learning_rate"],
                epochs=state["epochs"],
                batch_size=state["batch_size"],
                l2=state["l2"],
                seed=state["seed"],
            )
            model.classes_ = np.asarray(state["classes"])
            model.weights_ = np.asarray(state["weights"], dtype=float)
            model.bias_ = np.asarray(state["bias"], dtype=float)
        except KeyError as missing:
            raise ValidationError(
                f"softmax state is missing key {missing.args[0]!r}"
            ) from None
        model._fitted = True
        return model
