"""Model-level no-grad inference fast path."""

from __future__ import annotations

import numpy as np

import repro
from repro.autograd.tensor import Tensor
from repro.serve import InferenceEngine


class TestPredictMethods:
    def test_predict_matches_classify(self, tiny_rita_config, tiny_har_bundle):
        repro.seed_all(7)
        model = repro.RitaModel(tiny_rita_config, rng=np.random.default_rng(1))
        model.eval()
        engine = InferenceEngine(model)
        x = tiny_har_bundle.train[0]["x"][None, ...]
        logits = engine.classify(x)
        assert isinstance(logits, np.ndarray)
        preds = engine.predict(x)
        assert preds.shape == (1,)
        assert preds[0] == logits.argmax(axis=-1)[0]

    def test_predict_builds_no_graph(self, tiny_rita_config, tiny_har_bundle):
        repro.seed_all(7)
        model = repro.RitaModel(tiny_rita_config, rng=np.random.default_rng(1))
        model.eval()
        x = tiny_har_bundle.train[0]["x"][None, ...]
        with repro.no_grad():
            out = model.classify(Tensor(x))
        assert out._backward is None
        assert out._parents == ()
        assert not out.requires_grad

    def test_reconstruct_shape(self, tiny_rita_config, tiny_har_bundle):
        repro.seed_all(7)
        model = repro.RitaModel(tiny_rita_config, rng=np.random.default_rng(1))
        model.eval()
        x = tiny_har_bundle.train[0]["x"][None, ...]
        recon = InferenceEngine(model).reconstruct(x)
        assert isinstance(recon, np.ndarray)
        assert recon.shape == x.shape

    def test_training_still_builds_graph(self, tiny_rita_config, tiny_har_bundle):
        repro.seed_all(7)
        model = repro.RitaModel(tiny_rita_config, rng=np.random.default_rng(1))
        x = tiny_har_bundle.train[0]["x"][None, ...]
        out = model.classify(Tensor(x))
        assert out.requires_grad
        out.sum().backward()
        assert model.classifier.weight.grad is not None
