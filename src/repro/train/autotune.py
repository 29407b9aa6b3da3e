"""Scan-group autotuner (paper §4.3/§6.5, Figures 14/26).

Training starts at scan 10 (warmup, paper: first 5 epochs), then every
``tune_every`` epochs the tuner freezes the model, scores each candidate
scan group by gradient cosine similarity against the full-fidelity
data, and switches to the *lowest* (cheapest) scan whose similarity is
at or above the threshold (default 0.8). One hyperparameter, no
validation data — as in the paper.
"""
from dataclasses import dataclass, field

import numpy as np

from repro.train.gradsim import DEFAULT_THRESHOLD, similarity_by_scan
from repro.train.model import SoftmaxModel, train_sgd

PROBE_SIZE = 2560  # training samples each similarity probe scores


@dataclass
class AutotuneResult:
    scan_per_epoch: list[int]
    acc_per_epoch: list[float]
    similarity_log: list[dict] = field(default_factory=list)


def autotune_train(X_by_scan: dict[int, np.ndarray], y: np.ndarray,
                   X_test: np.ndarray, y_test: np.ndarray,
                   n_classes: int, epochs: int,
                   threshold: float = DEFAULT_THRESHOLD,
                   warmup_epochs: int = 5, tune_every: int = 20, lr: float = 0.5,
                   lr_drops: tuple[int, ...] = (), seed: int = 0) -> AutotuneResult:
    """Train with dynamic scan selection; returns per-epoch scan + accuracy."""
    full_scan = max(X_by_scan)
    n_features = X_by_scan[full_scan].shape[1]
    model = SoftmaxModel(n_features, n_classes, seed=seed)
    rng = np.random.default_rng(seed)
    scan = full_scan
    scans, accs, sims = [], [], []
    cur_lr = lr
    for epoch in range(epochs):
        if epoch in lr_drops:
            cur_lr *= 0.1
        if epoch >= warmup_epochs and (epoch - warmup_epochs) % tune_every == 0:
            probe = rng.choice(len(y), size=min(PROBE_SIZE, len(y)), replace=False)
            score = similarity_by_scan(
                model, {g: X[probe] for g, X in X_by_scan.items()}, y[probe]
            )
            ok = [g for g, s in score.items() if s >= threshold]
            scan = min(ok) if ok else full_scan
            sims.append({"epoch": epoch, "chosen": scan, **{f"scan_{g}": s for g, s in score.items()}})
        # default_rng(rng) is rng: the epoch's permutation comes from the
        # same stream as the probes.
        train_sgd(model, X_by_scan[scan], y, epochs=1, lr=cur_lr, seed=rng)
        scans.append(scan)
        accs.append(model.accuracy(X_test, y_test))
    return AutotuneResult(scans, accs, sims)


def static_train(X: np.ndarray, y: np.ndarray, X_test: np.ndarray,
                 y_test: np.ndarray, n_classes: int, epochs: int,
                 lr: float = 0.5, lr_drops: tuple[int, ...] = (),
                 seed: int = 0) -> list[float]:
    """Fixed-fidelity training; returns test accuracy per epoch."""
    model = SoftmaxModel(X.shape[1], n_classes, seed=seed)
    return train_sgd(
        model, X, y, epochs=epochs, lr=lr, lr_drops=lr_drops, seed=seed,
        eval_fn=lambda m, e: m.accuracy(X_test, y_test),
    )
