"""Gradient cosine similarity between fidelities (paper §4.3, Fig 6).

Freeze the model, measure the loss gradient on the full-fidelity data
and on each lower-fidelity variant of the *same* samples, and score
each scan group by the cosine similarity of the two gradient vectors.
The paper uses a 0.8 threshold as the default accept criterion.
"""
import numpy as np

from repro.train.model import SoftmaxModel

DEFAULT_THRESHOLD = 0.8


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))


def gradient_similarity(model: SoftmaxModel, X_full: np.ndarray,
                        X_scan: np.ndarray, y: np.ndarray) -> float:
    """score(D, D') = sim(grad L(X, y), grad L(X', y)) at frozen params."""
    g_full = model.gradient_vector(X_full, y)
    g_scan = model.gradient_vector(X_scan, y)
    return cosine_similarity(g_full, g_scan)


def similarity_by_scan(model: SoftmaxModel, X_by_scan: dict[int, np.ndarray],
                       y: np.ndarray) -> dict[int, float]:
    """Similarity score of every scan group vs the highest (full) one."""
    X_full = X_by_scan[max(X_by_scan)]
    return {
        g: gradient_similarity(model, X_full, X_by_scan[g], y)
        for g in sorted(X_by_scan)
    }
