"""Unit tests for the synthetic dataset generators."""
import numpy as np
import pytest

from repro.synth_images import SPECS, generate_image, is_test, n_images


@pytest.mark.parametrize("name", list(SPECS))
def test_deterministic(name):
    spec = SPECS[name]
    a, la = generate_image(spec, 3)
    b, lb = generate_image(spec, 3)
    assert np.array_equal(a, b)
    assert la == lb


@pytest.mark.parametrize("name", list(SPECS))
def test_shapes_and_dtype(name):
    spec = SPECS[name]
    img, lab = generate_image(spec, 0)
    assert img.shape == (spec.size, spec.size, 3)
    assert img.dtype == np.uint8
    assert 0 <= lab["label"] < spec.n_classes


@pytest.mark.parametrize("name", list(SPECS))
def test_labels_cover_classes(name):
    spec = SPECS[name]
    labels = {generate_image(spec, i)[1]["label"] for i in range(spec.n_images)}
    assert len(labels) == spec.n_classes


def test_hierarchical_labels_consistent():
    spec = SPECS["cars_lite"]
    for i in range(60):
        _, lab = generate_image(spec, i)
        assert lab["make"] == lab["label"] % spec.n_makes
        assert lab["is_zero"] == int(lab["make"] == 0)


def test_flat_datasets_make_equals_label():
    spec = SPECS["celeba_lite"]
    for i in range(20):
        _, lab = generate_image(spec, i)
        assert lab["make"] == lab["label"]


def test_images_differ_across_indices():
    spec = SPECS["imagenet_lite"]
    a, _ = generate_image(spec, 0)
    b, _ = generate_image(spec, 1)
    assert not np.array_equal(a, b)


def test_holdout_fraction():
    flags = [is_test(i) for i in range(1000)]
    assert sum(flags) == 200  # exactly 20%


def test_n_images_scales():
    spec = SPECS["imagenet_lite"]
    assert n_images(spec, 1.0) == spec.n_images
    assert n_images(spec, 0.5) == spec.n_images // 2
    # Never below one record's worth.
    assert n_images(spec, 0.001) == spec.images_per_record


def test_spec_proportions_mirror_paper():
    # HAM largest images & highest quality; CelebA lowest quality and
    # binary; Cars hierarchical; ImageNet most classes (Table 3 shape).
    s = SPECS
    assert s["ham_lite"].size == max(x.size for x in s.values())
    assert s["ham_lite"].quality == 100
    assert s["celeba_lite"].quality == min(x.quality for x in s.values())
    assert s["celeba_lite"].n_classes == 2
    assert s["cars_lite"].n_makes > 1
    assert s["imagenet_lite"].n_classes == max(x.n_classes for x in s.values())


def test_class_signal_exists_at_full_fidelity():
    # Nearest-centroid in pixel space should beat chance on a flat task,
    # i.e. the generators actually plant class signal.
    spec = SPECS["celeba_lite"]
    imgs, labels = zip(*(generate_image(spec, i) for i in range(80)))
    X = np.stack([im.mean(axis=-1).reshape(-1) for im in imgs])
    y = np.array([l["label"] for l in labels])
    cents = np.stack([X[y == c].mean(axis=0) for c in range(2)])
    pred = np.argmin(
        ((X[:, None, :] - cents[None]) ** 2).sum(axis=2), axis=1
    )
    assert (pred == y).mean() > 0.8
