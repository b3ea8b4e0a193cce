"""Multi-layer perceptron classifier on numpy.

This is the study's stand-in for the paper's CNN: a small fully-connected
network with ReLU activations and a softmax head, trained with mini-batch
Adam on cross-entropy.  The uncertainty wrapper treats it as a black box
(only ``predict`` is consumed), matching the paper's outside-model stance.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.models.linear import one_hot, softmax

__all__ = ["MLPClassifier"]


class MLPClassifier:
    """Fully-connected classifier with ReLU hidden layers.

    Parameters
    ----------
    hidden_sizes:
        Widths of the hidden layers, e.g. ``(64, 32)``.
    learning_rate:
        Adam step size.
    epochs:
        Passes over the training data.
    batch_size:
        Mini-batch size.
    l2:
        L2 penalty on all weight matrices.
    seed:
        Seed for initialisation and shuffling.
    """

    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (64, 32),
        learning_rate: float = 1e-3,
        epochs: int = 25,
        batch_size: int = 256,
        l2: float = 1e-5,
        seed: int = 0,
    ) -> None:
        if not hidden_sizes or any(h < 1 for h in hidden_sizes):
            raise ValidationError(
                f"hidden_sizes must be a non-empty tuple of positive ints, got {hidden_sizes}"
            )
        if learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {learning_rate}")
        if epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        if l2 < 0:
            raise ValidationError(f"l2 must be >= 0, got {l2}")
        self.hidden_sizes = tuple(hidden_sizes)
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed
        self._fitted = False

    # ------------------------------------------------------------------
    def _init_params(self, d_in: int, d_out: int, rng: np.random.Generator):
        sizes = (d_in, *self.hidden_sizes, d_out)
        weights = []
        biases = []
        last = len(sizes) - 2
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            if i == last:
                # Near-zero output layer: initial logits stay small, so the
                # initial loss is ~log(k) regardless of input scale.
                scale = 0.01
            else:
                scale = np.sqrt(2.0 / fan_in)  # He initialisation for ReLU
            weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return weights, biases

    def fit(self, X, y) -> "MLPClassifier":
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
        self.weights_, self.biases_ = self._init_params(d, k, rng)

        m_w = [np.zeros_like(w) for w in self.weights_]
        v_w = [np.zeros_like(w) for w in self.weights_]
        m_b = [np.zeros_like(b) for b in self.biases_]
        v_b = [np.zeros_like(b) for b in self.biases_]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        targets = one_hot(codes, k)

        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                xb, tb = X[idx], targets[idx]
                activations, logits = self._forward_partial(xb)
                probs = softmax(logits)
                delta = (probs - tb) / idx.size

                grads_w = []
                grads_b = []
                for layer in range(len(self.weights_) - 1, -1, -1):
                    a_prev = activations[layer]
                    grads_w.append(a_prev.T @ delta + self.l2 * self.weights_[layer])
                    grads_b.append(delta.sum(axis=0))
                    if layer > 0:
                        delta = (delta @ self.weights_[layer].T) * (
                            activations[layer] > 0.0
                        )
                grads_w.reverse()
                grads_b.reverse()

                step += 1
                lr_t = self.learning_rate * np.sqrt(1 - beta2**step) / (1 - beta1**step)
                for i in range(len(self.weights_)):
                    m_w[i] = beta1 * m_w[i] + (1 - beta1) * grads_w[i]
                    v_w[i] = beta2 * v_w[i] + (1 - beta2) * grads_w[i] ** 2
                    m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
                    v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
                    self.weights_[i] -= lr_t * m_w[i] / (np.sqrt(v_w[i]) + eps)
                    self.biases_[i] -= lr_t * m_b[i] / (np.sqrt(v_b[i]) + eps)

        self._fitted = True
        return self

    def _forward_partial(self, X: np.ndarray):
        """Forward pass returning (activations per layer, logits).

        Usable during fit (weights exist but ``_fitted`` is still unset).
        """
        activations = [X]
        h = X
        for W, b in zip(self.weights_[:-1], self.biases_[:-1]):
            h = np.maximum(h @ W + b, 0.0)
            activations.append(h)
        logits = h @ self.weights_[-1] + self.biases_[-1]
        return activations, logits

    # ------------------------------------------------------------------
    def _check(self, X) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("MLPClassifier is not fitted; call fit() first")
        X = np.asarray(X, dtype=float)
        d = self.weights_[0].shape[0]
        if X.ndim != 2 or X.shape[1] != d:
            raise ValidationError(f"X must have shape (n, {d}), got {X.shape}")
        return X

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities per row."""
        X = self._check(X)
        _, logits = self._forward_partial(X)
        return softmax(logits)

    def predict(self, X) -> np.ndarray:
        """Most probable class label per row."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def score(self, X, y) -> float:
        """Mean accuracy on the given data."""
        return float(np.mean(self.predict(X) == np.asarray(y)))

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Portable fitted network: hyperparameters, classes and parameters.

        Scalars are JSON types and the parameters stay numpy arrays;
        :meth:`from_state_dict` rebuilds a network with identical outputs.
        """
        if not self._fitted:
            raise NotFittedError("MLPClassifier is not fitted; call fit() first")
        return {
            "hidden_sizes": [int(h) for h in self.hidden_sizes],
            "learning_rate": float(self.learning_rate),
            "epochs": int(self.epochs),
            "batch_size": int(self.batch_size),
            "l2": float(self.l2),
            "seed": int(self.seed),
            "classes": self.classes_,
            "weights": list(self.weights_),
            "biases": list(self.biases_),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "MLPClassifier":
        """Rebuild a fitted network from :meth:`state_dict` output."""
        try:
            model = cls(
                hidden_sizes=tuple(state["hidden_sizes"]),
                learning_rate=state["learning_rate"],
                epochs=state["epochs"],
                batch_size=state["batch_size"],
                l2=state["l2"],
                seed=state["seed"],
            )
            model.classes_ = np.asarray(state["classes"])
            model.weights_ = [np.asarray(w, dtype=float) for w in state["weights"]]
            model.biases_ = [np.asarray(b, dtype=float) for b in state["biases"]]
        except KeyError as missing:
            raise ValidationError(
                f"MLP state is missing key {missing.args[0]!r}"
            ) from None
        model._fitted = True
        return model
