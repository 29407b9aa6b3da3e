"""Unit tests for features, the softmax model, gradient similarity, and the autotuner,
plus end-to-end training on features the Spark PCR loader extracts."""
import numpy as np
import pytest

from repro.core.dataset import collect_features, features_to_arrays
from repro.jpeg.codec import to_gray
from repro.synth_images import SPECS, generate_image
from repro.train.autotune import (
    WARMUP_EPOCHS,
    autotune_train,
    cosine_similarity,
    similarity_by_scan,
    static_train,
)
from repro.train.features import (
    BAND_EDGES,
    GRID,
    N_BAND_FEATURES,
    N_FEATURES,
    N_PIXEL_FEATURES,
    _grid_means,
    extract_features,
    feature_mask,
)
from repro.train.model import (
    BATCH_SIZE,
    EPOCHS,
    LR,
    LR_DROPS,
    SoftmaxModel,
    softmax,
    standardize,
    train_sgd,
)


def _img(seed=0):
    """A 64x64x3 RGB image whose channels are affine maps of one textured plane."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:64, 0:64]
    g = 128 + 40 * np.sin(xx / 7) + 10 * rng.standard_normal((64, 64))
    rgb = np.stack([g, 0.9 * g + 10, 0.8 * g + 25], axis=-1)
    return np.clip(rgb, 0, 255).astype(np.uint8)


# ---------- features ----------

def test_feature_dimensions():
    f = extract_features(_img())
    assert f.shape == (N_FEATURES,)
    assert N_FEATURES == N_PIXEL_FEATURES + N_BAND_FEATURES
    # Band 0 (DC) gives one feature, every AC band a (horizontal,
    # vertical) pair.
    assert N_BAND_FEATURES == 1 + 2 * (len(BAND_EDGES) - 2)


def test_features_deterministic():
    assert np.array_equal(extract_features(_img()), extract_features(_img()))


def test_feature_masks():
    r = feature_mask("resnet_lite")
    s = feature_mask("shufflenet_lite")
    assert r.all()
    assert s.sum() < r.sum()
    assert s[N_PIXEL_FEATURES:].all()  # band features always visible
    assert s[:N_PIXEL_FEATURES].sum() == 16  # coarse 4x4 pixel grid
    with pytest.raises(ValueError):
        feature_mask("alexnet")


def test_band_features_respond_to_truncation():
    # Dropping high scans must zero the high-band features (up to quant).
    from repro.jpeg import decode, truncate_to_scans
    from repro.jpeg.codec import forward
    from repro.jpeg.encoder import encode_progressive_from_coeffs

    img = _img(3)
    p = encode_progressive_from_coeffs(forward(img, 95))
    f_full = extract_features(decode(p))
    f_s1 = extract_features(decode(truncate_to_scans(p, 1)))
    hi = slice(N_PIXEL_FEATURES + 1 + 2 * (4 - 1), N_FEATURES)  # bands 4 and up
    assert f_s1[hi].sum() < 0.25 * f_full[hi].sum()
    # Low-frequency pixel features survive.
    lo = slice(0, N_PIXEL_FEATURES)
    assert np.abs(f_s1[lo] - f_full[lo]).mean() < 0.05


def _grid_means_by_slice(gray):
    """The per-cell loop ``_grid_means`` replaced: each cell slice's own
    ``mean()``, cell edges from ``linspace``."""
    h, w = gray.shape
    ys = np.linspace(0, h, GRID + 1).astype(int)
    xs = np.linspace(0, w, GRID + 1).astype(int)
    out = np.empty((GRID, GRID))
    for i in range(GRID):
        for j in range(GRID):
            out[i, j] = gray[ys[i] : ys[i + 1], xs[j] : xs[j + 1]].mean()
    return out.reshape(-1)


@pytest.mark.parametrize("spec", ["imagenet_lite", "celeba_lite", "ham_lite", "cars_lite"])
def test_grid_means_bit_equal_to_per_cell_means(spec):
    from repro.jpeg import baseline_to_progressive, decode, encode_baseline, truncate_to_scans

    s = SPECS[spec]
    for i in range(4):
        p = baseline_to_progressive(encode_baseline(generate_image(s, i)[0], s.quality))
        for g in (1, 5, 10):
            gray = to_gray(decode(truncate_to_scans(p, g)))
            assert _grid_means(gray).tobytes() == _grid_means_by_slice(gray).tobytes()


def test_grid_means_reject_a_side_grid_does_not_divide():
    with pytest.raises(ValueError):
        _grid_means(np.zeros((8 * GRID + 4, 8 * GRID)))


# ---------- model ----------

def test_softmax_rows_sum_to_one():
    z = np.random.default_rng(0).standard_normal((5, 4))
    p = softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert (p > 0).all()


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 6))
    y = rng.integers(0, 3, 20)
    m = SoftmaxModel(6, 3)
    dW, db = m.gradient(X, y)
    eps = 1e-6
    for idx in [(0, 0), (2, 1), (5, 2)]:
        m.W[idx] += eps
        up = m.loss(X, y)
        m.W[idx] -= 2 * eps
        dn = m.loss(X, y)
        m.W[idx] += eps
        assert dW[idx] == pytest.approx((up - dn) / (2 * eps), rel=1e-4, abs=1e-7)
    for j in range(3):
        m.b[j] += eps
        up = m.loss(X, y)
        m.b[j] -= 2 * eps
        dn = m.loss(X, y)
        m.b[j] += eps
        assert db[j] == pytest.approx((up - dn) / (2 * eps), rel=1e-4, abs=1e-7)


def test_training_learns_separable_data():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((300, 5))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    m = SoftmaxModel(5, 2)
    train_sgd(m, X, y, epochs=EPOCHS, lr=LR)
    assert m.accuracy(X, y) > 0.9


def test_lr_drops_applied():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    y = rng.integers(0, 2, 50)
    m = SoftmaxModel(3, 2)
    rates = []  # the rate of each epoch's last step
    real_step = m.step
    m.step = lambda dW, db, lr: (rates.append(lr), real_step(dW, db, lr))
    out = train_sgd(m, X, y, epochs=EPOCHS, lr=LR,
                    eval_fn=lambda mm, e: rates[-1])
    expected = [LR * 0.1 ** sum(e >= d for d in LR_DROPS) for e in range(EPOCHS)]
    assert out == pytest.approx(expected)


def test_standardize_roundtrip():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 4)) * 5 + 3
    Xs, mu, sd = standardize(X)
    assert np.allclose(Xs.mean(axis=0), 0, atol=1e-9)
    assert np.allclose(Xs.std(axis=0), 1, atol=1e-6)
    X2, _, _ = standardize(X, mu, sd)
    assert np.allclose(Xs, X2)


# ---------- gradient similarity ----------

def test_cosine_similarity_basics():
    a = np.array([1.0, 0.0])
    assert cosine_similarity(a, a) == pytest.approx(1.0)
    assert cosine_similarity(a, -a) == pytest.approx(-1.0)
    assert cosine_similarity(a, np.array([0.0, 1.0])) == pytest.approx(0.0)
    assert cosine_similarity(a, np.zeros(2)) == 0.0


def test_gradient_similarity_identical_data_is_one():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((64, 8))
    y = rng.integers(0, 3, 64)
    m = SoftmaxModel(8, 3)
    assert similarity_by_scan(m, {1: X.copy(), 10: X}, y)[1] == pytest.approx(1.0)


def test_gradient_similarity_decreases_with_corruption():
    # Scan groups 3, 2 and 1 hold the full data X plus noise of sigma 0,
    # 0.5 and 3.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((128, 8))
    y = (X[:, 0] > 0).astype(int)
    m = SoftmaxModel(8, 2)
    train_sgd(m, X, y, epochs=5, lr=LR)
    by_scan = {10: X}
    for g, sigma in [(3, 0.0), (2, 0.5), (1, 3.0)]:
        by_scan[g] = X + rng.standard_normal(X.shape) * sigma
    sims = similarity_by_scan(m, by_scan, y)
    assert sims[3] == pytest.approx(1.0)
    assert sims[3] > sims[2] > sims[1]


def test_similarity_by_scan_keys():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((32, 4))
    y = rng.integers(0, 2, 32)
    m = SoftmaxModel(4, 2)
    out = similarity_by_scan(m, {1: X * 0.2, 5: X + 0.1, 10: X}, y)
    assert set(out) == {1, 5, 10}
    assert out[10] == pytest.approx(1.0)


# ---------- autotuner ----------

def _scan_family(seed=0, n=400, d=12):
    """Synthetic multi-fidelity data: lower scans lose feature detail."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = (X[:, :4].sum(axis=1) > 0).astype(int)
    by_scan = {}
    for g, keep in [(1, 2), (2, 4), (5, 8), (10, d)]:
        Xg = X.copy()
        Xg[:, keep:] = 0.0
        by_scan[g] = Xg
    return by_scan, y


def test_autotuner_starts_at_full_fidelity():
    by_scan, y = _scan_family()
    res = autotune_train(by_scan, y, by_scan[10][:50], y[:50], 2)
    assert len(res.scan_per_epoch) == EPOCHS
    assert res.scan_per_epoch[:WARMUP_EPOCHS] == [10] * WARMUP_EPOCHS


def test_autotuner_picks_cheapest_acceptable_scan():
    by_scan, y = _scan_family()
    res = autotune_train(by_scan, y, by_scan[10][:50], y[:50], 2, threshold=0.8)
    chosen = res.scan_per_epoch[-1]
    assert chosen < 10  # something cheaper than full fidelity is fine
    assert res.similarity_log, "tuner must have probed"
    probe = res.similarity_log[-1]  # the probe that chose the last scan
    assert probe["chosen"] == chosen
    assert probe[f"scan_{chosen}"] >= 0.8


def test_autotuner_threshold_one_keeps_full_fidelity():
    by_scan, y = _scan_family()
    res = autotune_train(by_scan, y, by_scan[10][:50], y[:50], 2, threshold=1.01)
    assert set(res.scan_per_epoch) == {10}


def test_static_train_returns_accuracy_curve():
    by_scan, y = _scan_family()
    accs = static_train(by_scan[10], y, by_scan[10][:50], y[:50], 2)
    assert len(accs) == EPOCHS
    assert accs[-1] > 0.8


def test_autotune_and_static_train_are_pinned(monkeypatch):
    """Per-epoch scans and test hits of ``autotune_train`` and
    ``static_train`` on a seeded synthetic set, pinned so the Fig 6/7/14/16
    accuracies cannot move unnoticed. Every epoch's rate is ``LR`` dropped
    by repeated ``*= 0.1``, bit for bit."""
    by_scan, y = _scan_family()
    test, yte = _scan_family(seed=1, n=200)
    rates = []
    real_step = SoftmaxModel.step
    monkeypatch.setattr(SoftmaxModel, "step", lambda m, dW, db, lr: (
        rates.append(lr), real_step(m, dW, db, lr)))
    res = autotune_train(by_scan, y, test[10], yte, 2)
    want_rates, lr = [], LR
    for epoch in range(EPOCHS):
        if epoch in LR_DROPS:
            lr *= 0.1
        want_rates += [lr] * -(-len(y) // BATCH_SIZE)  # one per minibatch
    assert rates == want_rates
    assert res.scan_per_epoch == [10] * 5 + [2] * 35
    assert [round(a * len(yte)) for a in res.acc_per_epoch] == (
        [189, 191, 192, 194] + [196] * 5 + [195, 196, 196, 197, 198, 197, 197,
                                            197, 196, 197, 197] + [198] * 20)
    hits = {g: [round(a * len(yte)) for a in static_train(
        by_scan[g], y, test[g], yte, 2)] for g in (1, 10)}
    assert hits[1] == [152, 154, 153, 152, 152, 152, 153, 152, 153, 149, 152,
                       151, 149, 152, 152, 150, 152, 153, 153, 154, 153] + [152] * 19
    assert hits[10] == [189, 191, 192, 194, 196, 198, 198, 200, 199, 197, 199,
                        195, 196, 198, 197, 198, 199, 199, 199, 199, 199, 199,
                        199] + [200] * 17


# ---------- end to end on the Spark loader ----------

def test_training_beats_chance_full_fidelity(spark, celeba_dir):
    pdf = collect_features(spark, celeba_dir, 10)
    Xtr, ytr, Xte, yte = features_to_arrays(pdf)
    Xtr, mu, sd = standardize(Xtr)
    Xte, _, _ = standardize(Xte, mu, sd)
    m = SoftmaxModel(Xtr.shape[1], 2)
    train_sgd(m, Xtr, ytr, epochs=EPOCHS, lr=LR)
    assert m.accuracy(Xte, yte) > 0.75


def test_fine_task_degrades_at_scan1_coarse_does_not(spark, cars_dir):
    """The paper's §6.3 mechanism on the cars dataset: label coarsening
    closes the accuracy gap between scan groups."""
    accs = {}
    for label_col in ["label", "make"]:
        for g in [1, 10]:
            pdf = collect_features(spark, cars_dir, g)
            Xtr, ytr, Xte, yte = features_to_arrays(pdf, label_col)
            nc = int(max(ytr.max(), yte.max()) + 1)
            Xtr, mu, sd = standardize(Xtr)
            Xte, _, _ = standardize(Xte, mu, sd)
            m = SoftmaxModel(Xtr.shape[1], nc)
            train_sgd(m, Xtr, ytr, epochs=EPOCHS, lr=LR)
            accs[(label_col, g)] = m.accuracy(Xte, yte)
    gap_fine = accs[("label", 10)] - accs[("label", 1)]
    gap_coarse = accs[("make", 10)] - accs[("make", 1)]
    assert gap_fine > 0.1, accs
    assert gap_coarse < gap_fine, accs
