"""Gradient similarity between fidelities and the scan-group autotuner
(paper §4.3/§6.5, Figures 6, 14 and 26).

A similarity probe freezes the model, measures the loss gradient on the
full-fidelity data and on each lower-fidelity variant of the *same*
samples, and scores each scan group by the cosine similarity of the two
gradient vectors.

Training starts at scan 10 (the first ``WARMUP_EPOCHS``, as in the
paper), then every ``TUNE_EVERY`` epochs the tuner probes and switches
to the *lowest* (cheapest) scan whose similarity is at or above the
threshold (default 0.8, the paper's). One hyperparameter, no validation
data — as in the paper.
"""
from dataclasses import dataclass

import numpy as np

from repro.train.model import EPOCHS, LR, SEED, SoftmaxModel, step_decay, train_sgd

DEFAULT_THRESHOLD = 0.8
PROBE_SIZE = 2560  # training samples each similarity probe scores
WARMUP_EPOCHS = 5  # epochs at full fidelity before the first probe
TUNE_EVERY = 10  # epochs between similarity probes


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))


def similarity_by_scan(model: SoftmaxModel, X_by_scan: dict[int, np.ndarray],
                       y: np.ndarray) -> dict[int, float]:
    """score(D, D') = sim(grad L(X, y), grad L(X', y)) at frozen params, for
    every scan group's X' against the highest (full) group's X."""
    g_full = model.gradient_vector(X_by_scan[max(X_by_scan)], y)
    return {
        g: cosine_similarity(g_full, model.gradient_vector(X_by_scan[g], y))
        for g in sorted(X_by_scan)
    }


def similarity_probe(model: SoftmaxModel, X_by_scan: dict[int, np.ndarray],
                     y: np.ndarray, rng: np.random.Generator) -> dict[int, float]:
    """``similarity_by_scan`` on ``min(PROBE_SIZE, len(y))`` training
    samples drawn from ``rng`` without replacement."""
    idx = rng.choice(len(y), size=min(PROBE_SIZE, len(y)), replace=False)
    return similarity_by_scan(model, {g: X[idx] for g, X in X_by_scan.items()}, y[idx])


@dataclass
class AutotuneResult:
    scan_per_epoch: list[int]
    acc_per_epoch: list[float]
    similarity_log: list[dict]


def autotune_train(X_by_scan: dict[int, np.ndarray], y: np.ndarray,
                   X_test: np.ndarray, y_test: np.ndarray,
                   n_classes: int,
                   threshold: float = DEFAULT_THRESHOLD) -> AutotuneResult:
    """Train with dynamic scan selection; returns per-epoch scan + accuracy."""
    full_scan = max(X_by_scan)
    n_features = X_by_scan[full_scan].shape[1]
    model = SoftmaxModel(n_features, n_classes)
    rng = np.random.default_rng(SEED)
    scan = full_scan
    scans, accs, sims = [], [], []
    for epoch, cur_lr in enumerate(step_decay(LR, EPOCHS)):
        if epoch >= WARMUP_EPOCHS and (epoch - WARMUP_EPOCHS) % TUNE_EVERY == 0:
            score = similarity_probe(model, X_by_scan, y, rng)
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
                 y_test: np.ndarray, n_classes: int) -> list[float]:
    """Fixed-fidelity training; returns test accuracy per epoch."""
    model = SoftmaxModel(X.shape[1], n_classes)
    return train_sgd(
        model, X, y, epochs=EPOCHS, lr=LR,
        eval_fn=lambda m, e: m.accuracy(X_test, y_test),
    )
