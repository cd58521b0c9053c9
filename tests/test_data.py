"""Tests for dataset machinery and the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    Dataset,
    digit_strokes,
    render_digits,
    synth_cifar,
    synth_mnist,
    train_val_split,
)


class TestDataset:
    def _ds(self, n=10):
        return Dataset(np.zeros((n, 1, 4, 4)), np.arange(n) % 3)

    def test_len_and_shapes(self):
        ds = self._ds(10)
        assert len(ds) == 10
        assert ds.sample_shape == (1, 4, 4)
        assert ds.num_classes == 3

    def test_getitem_batch(self):
        ds = self._ds()
        x, y = ds[np.array([0, 2])]
        assert x.shape == (2, 1, 4, 4)
        assert y.shape == (2,)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_labels_must_be_1d(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros((3, 1), dtype=int))

    def test_subset(self):
        ds = self._ds(10)
        sub = ds.subset(np.array([1, 3, 5]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, [1, 0, 2])

    def test_dtype_coercion(self):
        ds = Dataset(np.zeros((2, 3), np.float64), np.array([0, 1], np.int32))
        assert ds.images.dtype == np.float32
        assert ds.labels.dtype == np.int64


class TestTrainValSplit:
    def test_sizes(self):
        ds = Dataset(np.zeros((100, 2)), np.zeros(100, dtype=int))
        tr, va = train_val_split(ds, 0.2, seed=1)
        assert len(tr) == 80 and len(va) == 20

    def test_disjoint_and_complete(self):
        ds = Dataset(np.arange(50).reshape(50, 1).astype(float), np.zeros(50, int))
        tr, va = train_val_split(ds, 0.3, seed=2)
        all_vals = np.concatenate([tr.images.ravel(), va.images.ravel()])
        assert sorted(all_vals.tolist()) == list(range(50))

    def test_deterministic(self):
        ds = Dataset(np.arange(20).reshape(20, 1).astype(float), np.zeros(20, int))
        a = train_val_split(ds, 0.25, seed=5)[0].images
        b = train_val_split(ds, 0.25, seed=5)[0].images
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
    def test_invalid_fraction(self, bad):
        ds = Dataset(np.zeros((10, 1)), np.zeros(10, int))
        with pytest.raises(ValueError):
            train_val_split(ds, bad)


class TestDataLoader:
    def _ds(self, n=25):
        return Dataset(np.arange(n).reshape(n, 1).astype(float), np.arange(n) % 2)

    def test_batch_count(self):
        assert len(DataLoader(self._ds(25), 10)) == 3
        assert len(DataLoader(self._ds(25), 10, drop_last=True)) == 2

    def test_covers_all_samples(self):
        dl = DataLoader(self._ds(25), 10, shuffle=True, seed=0)
        seen = np.concatenate([x.ravel() for x, _ in dl])
        assert sorted(seen.tolist()) == list(range(25))

    def test_drop_last(self):
        dl = DataLoader(self._ds(25), 10, shuffle=False, drop_last=True)
        batches = list(dl)
        assert len(batches) == 2
        assert all(len(y) == 10 for _, y in batches)

    def test_no_shuffle_is_sequential(self):
        dl = DataLoader(self._ds(6), 3, shuffle=False)
        x, _ = next(iter(dl))
        np.testing.assert_array_equal(x.ravel(), [0, 1, 2])

    def test_shuffle_changes_across_epochs_but_reproducible(self):
        dl1 = DataLoader(self._ds(20), 20, shuffle=True, seed=7)
        e1 = next(iter(dl1))[0].ravel().copy()
        e2 = next(iter(dl1))[0].ravel().copy()
        assert not np.array_equal(e1, e2)
        dl2 = DataLoader(self._ds(20), 20, shuffle=True, seed=7)
        np.testing.assert_array_equal(e1, next(iter(dl2))[0].ravel())

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._ds(), 0)

    def test_epoch_order_is_pure(self):
        # (seed, epoch) fully determines the permutation: calling in any
        # order, repeatedly, or from a fresh loader gives the same answer.
        # This is what lets parallel ranks derive the batch sequence
        # independently and prefetched iteration match synchronous.
        dl = DataLoader(self._ds(20), 4, shuffle=True, seed=7)
        o1 = dl.epoch_order(1)
        o0 = dl.epoch_order(0)
        np.testing.assert_array_equal(o1, dl.epoch_order(1))
        assert not np.array_equal(o0, o1)
        fresh = DataLoader(self._ds(20), 4, shuffle=True, seed=7)
        np.testing.assert_array_equal(o0, fresh.epoch_order(0))
        assert sorted(o0.tolist()) == list(range(20))

    def test_epoch_order_unshuffled_is_identity(self):
        dl = DataLoader(self._ds(6), 3, shuffle=False)
        np.testing.assert_array_equal(dl.epoch_order(3), np.arange(6))

    def test_iteration_consumes_epoch_order(self):
        # __iter__ must yield exactly epoch_order(k) on its k-th epoch.
        dl = DataLoader(self._ds(8), 8, shuffle=True, seed=11)
        for epoch in range(2):
            expect = dl.epoch_order(epoch)
            x, _ = next(iter(dl))
            np.testing.assert_array_equal(x.ravel(), expect)

    def test_set_epoch_rewinds(self):
        dl = DataLoader(self._ds(8), 8, shuffle=True, seed=11)
        first = next(iter(dl))[0].copy()
        next(iter(dl))  # epoch 1
        dl.set_epoch(0)
        np.testing.assert_array_equal(first, next(iter(dl))[0])


class TestSynthMnist:
    def test_shapes_and_ranges(self, tiny_mnist):
        train, test = tiny_mnist
        assert train.images.shape[1:] == (1, 28, 28)
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0
        assert set(np.unique(train.labels)) == set(range(10))

    def test_deterministic(self):
        a, _ = synth_mnist(n_train=50, n_test=10, seed=4)
        b, _ = synth_mnist(n_train=50, n_test=10, seed=4)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a, _ = synth_mnist(n_train=50, n_test=10, seed=4)
        b, _ = synth_mnist(n_train=50, n_test=10, seed=5)
        assert not np.array_equal(a.images, b.images)

    def test_class_balance(self):
        train, _ = synth_mnist(n_train=200, n_test=10, seed=0)
        counts = np.bincount(train.labels, minlength=10)
        assert np.all(counts == 20)

    def test_within_class_variation(self):
        rng = np.random.default_rng(0)
        imgs = render_digits(np.array([3, 3, 3]), rng)
        assert not np.array_equal(imgs[0], imgs[1])

    def test_strokes_cover_all_digits(self):
        assert set(digit_strokes().keys()) == set(range(10))

    def test_images_nontrivial(self, tiny_mnist):
        train, _ = tiny_mnist
        # Strokes should light up a reasonable fraction of pixels.
        ink = (train.images > 0.5).mean()
        assert 0.02 < ink < 0.5

    def test_classes_distinguishable_by_mean_image(self):
        train, _ = synth_mnist(n_train=500, n_test=10, seed=1)
        means = np.stack([train.images[train.labels == c].mean(axis=0) for c in range(10)])
        # No two class-mean images should be near-identical.
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.abs(means[i] - means[j]).mean() > 0.01

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            synth_mnist(n_train=0, n_test=5)

    def test_custom_size(self):
        train, _ = synth_mnist(n_train=20, n_test=10, seed=0, size=14)
        assert train.images.shape[1:] == (1, 14, 14)

    @pytest.mark.parametrize("labels", [[10], [3, -1], [0, 11, 2]])
    def test_rejects_out_of_range_labels(self, labels):
        with pytest.raises(ValueError, match="0-9"):
            render_digits(np.array(labels), np.random.default_rng(0))

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise"):
            render_digits(np.array([1, 2]), np.random.default_rng(0), noise=-0.5)
        with pytest.raises(ValueError, match="noise"):
            synth_mnist(n_train=10, n_test=10, seed=0, noise=-0.5)


class TestSynthCifar:
    def test_shapes_and_ranges(self, tiny_cifar):
        train, test = tiny_cifar
        assert train.images.shape[1:] == (3, 16, 16)
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_default_size_is_32(self):
        train, _ = synth_cifar(n_train=20, n_test=10, seed=0)
        assert train.images.shape[1:] == (3, 32, 32)

    def test_deterministic(self):
        a, _ = synth_cifar(n_train=30, n_test=10, seed=4, size=16)
        b, _ = synth_cifar(n_train=30, n_test=10, seed=4, size=16)
        np.testing.assert_array_equal(a.images, b.images)

    def test_class_balance(self):
        train, _ = synth_cifar(n_train=100, n_test=10, seed=0, size=16)
        counts = np.bincount(train.labels, minlength=10)
        assert np.all(counts == 10)

    def test_classes_have_color_structure(self):
        train, _ = synth_cifar(n_train=300, n_test=10, seed=1, size=16)
        # Mean channel intensity should differ across classes (colored motifs).
        means = np.stack(
            [train.images[train.labels == c].mean(axis=(0, 2, 3)) for c in range(10)]
        )
        spread = means.std(axis=0).sum()
        assert spread > 0.01

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            synth_cifar(n_train=10, n_test=0)
