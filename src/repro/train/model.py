"""Multinomial softmax regression with exact gradients (numpy).

The training substrate: the paper's experiments need gradients (for the
§4.3 cosine-similarity autotuner), accuracy-vs-epoch curves per scan
group, and deterministic behaviour for tests. A linear model gives all
three exactly and cheaply; the DESIGN.md table explains why this
substitution preserves the evaluated behaviour.
"""
from dataclasses import dataclass, field

import numpy as np

BATCH_SIZE = 64  # minibatch size of every SGD run


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class SoftmaxModel:
    n_features: int
    n_classes: int
    l2: float = 1e-4
    seed: int = 0
    W: np.ndarray = field(default=None)
    b: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.W is None:
            rng = np.random.default_rng(self.seed)
            self.W = rng.standard_normal((self.n_features, self.n_classes)) * 0.01
            self.b = np.zeros(self.n_classes)

    def logits(self, X: np.ndarray) -> np.ndarray:
        return X @ self.W + self.b

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        p = softmax(self.logits(X))
        nll = -np.log(np.clip(p[np.arange(len(y)), y], 1e-12, None)).mean()
        return float(nll + 0.5 * self.l2 * (self.W**2).sum())

    def gradient(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dW, db) of mean cross-entropy + L2 over the batch."""
        p = softmax(self.logits(X))
        p[np.arange(len(y)), y] -= 1.0
        p /= len(y)
        return X.T @ p + self.l2 * self.W, p.sum(axis=0)

    def gradient_vector(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        dW, db = self.gradient(X, y)
        return np.concatenate([dW.reshape(-1), db])

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        return float((self.logits(X).argmax(axis=1) == y).mean())

    def step(self, dW: np.ndarray, db: np.ndarray, lr: float) -> None:
        self.W -= lr * dW
        self.b -= lr * db


def standardize(X: np.ndarray, mean=None, std=None, min_std: float = 1e-8):
    """Feature standardization; returns (Xs, mean, std) for reuse on test.

    ``min_std`` floors the scale: when one transform is shared across
    fidelities (gradient-comparison paths), near-constant high-band
    features at full fidelity would otherwise blow up the low-fidelity
    variants (tiny sigma dividing a large mean shift) and destabilize SGD.
    """
    if mean is None:
        mean = X.mean(axis=0)
        std = np.maximum(X.std(axis=0), min_std)
    return (X - mean) / std, mean, std


def train_sgd(model: SoftmaxModel, X: np.ndarray, y: np.ndarray,
              epochs: int, lr: float = 0.5, lr_drops: tuple[int, ...] = (),
              seed: int | np.random.Generator = 0,
              eval_fn=None) -> list:
    """Minibatch SGD with step-decay (paper drops lr 10x at fixed epochs).

    ``eval_fn(model, epoch)`` is called after every epoch; its results
    are returned as a list (e.g. test accuracy per epoch).
    """
    rng = np.random.default_rng(seed)
    out = []
    cur_lr = lr
    for epoch in range(epochs):
        if epoch in lr_drops:
            cur_lr *= 0.1
        idx = rng.permutation(len(y))
        for s in range(0, len(y), BATCH_SIZE):
            b = idx[s : s + BATCH_SIZE]
            dW, db = model.gradient(X[b], y[b])
            model.step(dW, db, cur_lr)
        if eval_fn is not None:
            out.append(eval_fn(model, epoch))
    return out
