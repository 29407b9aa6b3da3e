"""Multinomial softmax regression with exact gradients (numpy).

The training substrate: the paper's experiments need gradients (for the
§4.3 cosine-similarity autotuner), accuracy-vs-epoch curves per scan
group, and deterministic behaviour for tests. A linear model gives all
three exactly and cheaply; the DESIGN.md table explains why this
substitution preserves the evaluated behaviour.
"""
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

# The one training schedule every run uses (paper §6.1, scaled to 40
# epochs): SGD at LR, dropped 10x at each epoch in LR_DROPS.
EPOCHS = 40
LR = 0.3
LR_DROPS = (25, 35)  # paper drops at 30/60 of 90; scaled to 40 epochs
BATCH_SIZE = 64  # minibatch size of every SGD run
SEED = 0  # initial weights, epoch permutations and similarity probes
L2 = 1e-4  # weight decay
MIN_STD = 0.05  # standardize's floor on a feature's scale


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class SoftmaxModel:
    n_features: int
    n_classes: int
    W: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)

    def __post_init__(self):
        rng = np.random.default_rng(SEED)
        self.W = rng.standard_normal((self.n_features, self.n_classes)) * 0.01
        self.b = np.zeros(self.n_classes)

    def logits(self, X: np.ndarray) -> np.ndarray:
        return X @ self.W + self.b

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        p = softmax(self.logits(X))
        nll = -np.log(np.clip(p[np.arange(len(y)), y], 1e-12, None)).mean()
        return float(nll + 0.5 * L2 * (self.W**2).sum())

    def gradient(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dW, db) of mean cross-entropy + L2 over the batch."""
        p = softmax(self.logits(X))
        p[np.arange(len(y)), y] -= 1.0
        p /= len(y)
        return X.T @ p + L2 * self.W, p.sum(axis=0)

    def gradient_vector(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        dW, db = self.gradient(X, y)
        return np.concatenate([dW.reshape(-1), db])

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        return float((self.logits(X).argmax(axis=1) == y).mean())

    def step(self, dW: np.ndarray, db: np.ndarray, lr: float) -> None:
        self.W -= lr * dW
        self.b -= lr * db


def standardize(X: np.ndarray, mean=None, std=None):
    """Feature standardization; returns (Xs, mean, std) for reuse on test.

    ``MIN_STD`` floors the scale, so bands that truncation zeroes (nearly
    constant features) don't become amplified noise that destabilizes SGD.
    """
    if mean is None:
        mean = X.mean(axis=0)
        std = np.maximum(X.std(axis=0), MIN_STD)
    return (X - mean) / std, mean, std


def step_decay(lr: float, epochs: int) -> Iterator[float]:
    """The rate of each of ``epochs`` epochs: ``lr``, dropped 10x at each
    epoch in ``LR_DROPS`` (the paper's step decay)."""
    for epoch in range(epochs):
        if epoch in LR_DROPS:
            lr *= 0.1
        yield lr


def train_sgd(model: SoftmaxModel, X: np.ndarray, y: np.ndarray,
              epochs: int, lr: float,
              seed: int | np.random.Generator = SEED,
              eval_fn=None) -> list:
    """Minibatch SGD at the ``step_decay`` rates from ``lr``.

    ``eval_fn(model, epoch)`` is called after every epoch; its results
    are returned as a list (e.g. test accuracy per epoch).
    """
    rng = np.random.default_rng(seed)
    out = []
    for epoch, cur_lr in enumerate(step_decay(lr, epochs)):
        idx = rng.permutation(len(y))
        for s in range(0, len(y), BATCH_SIZE):
            b = idx[s : s + BATCH_SIZE]
            dW, db = model.gradient(X[b], y[b])
            model.step(dW, db, cur_lr)
        if eval_fn is not None:
            out.append(eval_fn(model, epoch))
    return out
