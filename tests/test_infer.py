"""Tests for the regenerating inference engine."""

import numpy as np
import pytest

from repro.core import DropBack
from repro.data import DataLoader
from repro.energy import EnergyModel
from repro.infer import RegeneratingInferenceEngine
from repro.io import SparsePayload, apply_sparse_payload
from repro.models import mnist_100_100, wrn_10_1
from repro.optim import ConstantLR
from repro.tensor import Tensor, no_grad
from repro.train import Trainer


@pytest.fixture(scope="module")
def trained(tiny_mnist):
    train, test = tiny_mnist
    model = mnist_100_100().finalize(3)
    opt = DropBack(model, k=5_000, lr=0.4)
    Trainer(model, opt, schedule=ConstantLR(0.4)).fit(
        DataLoader(train, 64, seed=0), test, epochs=2
    )
    return model, opt, test


class TestConstruction:
    def test_requires_finalized(self):
        with pytest.raises(RuntimeError):
            RegeneratingInferenceEngine(mnist_100_100(), np.array([0]), np.array([1.0]))

    def test_shape_mismatch(self):
        m = mnist_100_100().finalize(1)
        with pytest.raises(ValueError):
            RegeneratingInferenceEngine(m, np.array([0, 1]), np.array([1.0]))

    def test_index_out_of_range(self):
        m = mnist_100_100().finalize(1)
        with pytest.raises(ValueError):
            RegeneratingInferenceEngine(m, np.array([10**9]), np.array([1.0], np.float32))

    def test_from_optimizer_requires_step(self):
        m = mnist_100_100().finalize(1)
        opt = DropBack(m, k=10, lr=0.4)
        with pytest.raises(RuntimeError):
            RegeneratingInferenceEngine.from_optimizer(m, opt)


class TestExactness:
    def test_outputs_bit_identical_to_dense_model(self, trained):
        model, opt, test = trained
        engine = RegeneratingInferenceEngine.from_optimizer(model, opt)
        x = test.images[:32]
        model.eval()
        with no_grad():
            dense_out = model(Tensor(x)).numpy().copy()
        model.train()
        engine_out = engine.forward(x)
        np.testing.assert_array_equal(engine_out, dense_out)

    def test_engine_on_fresh_architecture(self, trained):
        """The engine needs only the architecture + sparse data, not the
        trained weights: a freshly built model gives identical outputs."""
        model, opt, test = trained
        mask = opt.tracked_mask
        flat = np.concatenate([p.data.reshape(-1) for p in model.parameters()])
        idx = np.flatnonzero(mask)

        fresh = mnist_100_100().finalize(model.seed)
        engine = RegeneratingInferenceEngine(fresh, idx, flat[idx])
        out_fresh = engine.forward(test.images[:16])

        engine2 = RegeneratingInferenceEngine.from_optimizer(model, opt)
        out_trained = engine2.forward(test.images[:16])
        np.testing.assert_array_equal(out_fresh, out_trained)

    def test_predictions_match_evaluate(self, trained):
        model, opt, test = trained
        engine = RegeneratingInferenceEngine.from_optimizer(model, opt)
        preds = engine.predict(test.images)
        model.eval()
        with no_grad():
            dense_preds = model(Tensor(test.images)).numpy().argmax(axis=-1)
        np.testing.assert_array_equal(preds, dense_preds)


class TestTraffic:
    def test_traffic_recorded(self, trained):
        model, opt, test = trained
        engine = RegeneratingInferenceEngine.from_optimizer(model, opt)
        engine.forward(test.images[:8])
        t = engine.last_traffic
        assert t is not None
        assert t.tracked_fetches == 5_000
        assert t.regenerations == model.num_parameters() - 5_000

    def test_peak_resident_below_total_for_sequential(self, trained):
        model, opt, test = trained
        engine = RegeneratingInferenceEngine.from_optimizer(model, opt)
        engine.forward(test.images[:8])
        # Streaming layer-by-layer keeps peak below the full model size.
        assert engine.last_traffic.peak_resident_weights < model.num_parameters()

    def test_storage_is_tracked_only(self, trained):
        model, opt, _ = trained
        engine = RegeneratingInferenceEngine.from_optimizer(model, opt)
        assert engine.storage_floats() == 5_000

    def test_energy_model_integration(self, trained):
        model, opt, test = trained
        engine = RegeneratingInferenceEngine.from_optimizer(model, opt)
        engine.forward(test.images[:8])
        rep = EnergyModel().report(engine.last_traffic.as_counter())
        dense_pj = model.num_parameters() * 640.0
        assert rep.total_pj < dense_pj / 5  # big inference energy saving


class TestMaterializeResident:
    @pytest.mark.parametrize("zero_untracked", [False, True])
    def test_plane_bit_equal_to_apply_sparse_payload(self, zero_untracked):
        n = mnist_100_100().num_parameters()
        k = n // 5
        rng = np.random.default_rng(4)
        payload = SparsePayload(
            seed=6,
            indices=np.sort(rng.choice(n, size=k, replace=False)),
            values=rng.normal(size=k).astype(np.float32),
            zero_untracked=zero_untracked,
        )
        expected = apply_sparse_payload(mnist_100_100(), payload).weight_plane

        model = mnist_100_100().finalize(payload.seed)
        model.weight_plane[...] = 7.0  # any weight left unwritten shows up
        engine = RegeneratingInferenceEngine(model, payload.indices, payload.values)
        traffic = engine.materialize_resident(zero_untracked=zero_untracked)

        assert all(p.plane_backed for p in model.parameters())
        np.testing.assert_array_equal(
            model.weight_plane.view(np.uint32), expected.view(np.uint32)
        )
        assert engine.last_traffic is traffic
        assert traffic.tracked_fetches == k
        assert traffic.regenerations == (0 if zero_untracked else n - k)
        assert traffic.peak_resident_weights == n + k


class TestNonSequentialModels:
    def test_wrn_engine_matches_dense(self, tiny_cifar):
        train, test = tiny_cifar
        model = wrn_10_1().finalize(5)
        opt = DropBack(model, k=30_000, lr=0.1)
        Trainer(model, opt, schedule=ConstantLR(0.1)).fit(
            DataLoader(train, 32, seed=0), test, epochs=1
        )
        engine = RegeneratingInferenceEngine.from_optimizer(model, opt)
        x = test.images[:8]
        model.eval()
        with no_grad():
            dense_out = model(Tensor(x)).numpy().copy()
        model.train()
        np.testing.assert_array_equal(engine.forward(x), dense_out)
