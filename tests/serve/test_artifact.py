"""ModelArtifact: round trips, dtype pinning, and every load failure mode."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import ConfigError, IntegrityError
from repro.serialize import decode_json, encode_json
from repro.serve import ARTIFACT_FORMAT_VERSION, ModelArtifact
from repro.train import save_checkpoint

_HEADER = "__artifact__"
_VERSION = "__artifact_format__"


def make_model(attention="vanilla", **overrides):
    config = repro.RitaConfig(
        input_channels=2, max_len=24, dim=16, n_layers=2, n_heads=2,
        attention=attention, dropout=0.0, n_classes=3, **overrides,
    )
    return repro.RitaModel(config, rng=np.random.default_rng(5))


class TestRoundTrip:
    def test_save_load_build_keeps_metadata_and_eval_mode(self, tmp_path):
        # Served values after the round trip: tests/test_parity_matrix.py.
        path = tmp_path / "model.rita"
        ModelArtifact.from_model(make_model(), metadata={"run": "unit"}).save(path)
        artifact = ModelArtifact.load(path)
        assert artifact.metadata == {"run": "unit"}
        assert artifact.format_version == ARTIFACT_FORMAT_VERSION
        assert not artifact.build_model().training  # eval mode out of the box

    def test_dtype_pinned_independent_of_policy(self, tmp_path):
        # Conftest pins float64; an artifact exported as float32 must
        # still build a float32 model.
        model = make_model()
        path = tmp_path / "model.rita"
        ModelArtifact.from_model(model, dtype="float32").save(path)
        artifact = ModelArtifact.load(path)
        assert artifact.dtype == np.float32
        rebuilt = artifact.build_model()
        assert all(p.data.dtype == np.float32 for p in rebuilt.parameters())

    def test_config_round_trips_every_field(self, tmp_path):
        model = make_model(attention="group", n_groups=7, recluster_every=3)
        path = tmp_path / "model.rita"
        ModelArtifact.from_model(model).save(path)
        loaded = ModelArtifact.load(path)
        assert loaded.config == model.config

    def test_from_model_rejects_non_rita(self):
        with pytest.raises(ConfigError, match="RitaModel"):
            ModelArtifact.from_model(repro.TSTModel(repro.TSTConfig(input_channels=1, max_len=8)))


class TestLoadFailureModes:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.rita"
        ModelArtifact.from_model(make_model()).save(path)
        return path.with_suffix(".rita.npz")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ModelArtifact.load(tmp_path / "nope.rita")

    def test_save_returns_the_written_path(self, tmp_path):
        written = ModelArtifact.from_model(make_model()).save(tmp_path / "model.rita")
        assert written.name == "model.rita.npz" and written.exists()
        ModelArtifact.load(written)

    def test_truncated_zip_bytes(self, tmp_path):
        path = tmp_path / "broken.npz"
        path.write_bytes(b"PK\x03\x04garbage")
        with pytest.raises(IntegrityError, match="could not read"):
            ModelArtifact.load(path)

    def test_plain_npy_is_not_a_bundle(self, tmp_path):
        path = tmp_path / "array.npz"
        np.save(path.with_suffix(".npy"), np.zeros(3))
        path.with_suffix(".npy").rename(path)
        with pytest.raises(ConfigError, match="not an .npz bundle"):
            ModelArtifact.load(path)

    def test_checkpoint_is_not_an_artifact(self, tmp_path):
        path = tmp_path / "ckpt"
        save_checkpoint(make_model(), path)
        with pytest.raises(ConfigError, match="not a model artifact"):
            ModelArtifact.load(path)

    def test_format_version_bump(self, saved, tmp_path, npz_resave):
        out = npz_resave(
            saved, tmp_path / "future.npz",
            **{_VERSION: np.asarray(ARTIFACT_FORMAT_VERSION + 1, dtype=np.int64)},
        )
        with pytest.raises(ConfigError, match="format version"):
            ModelArtifact.load(out)

    def test_corrupt_header_json(self, saved, tmp_path, npz_resave):
        out = npz_resave(
            saved, tmp_path / "corrupt.npz",
            **{_HEADER: np.frombuffer(b"not json{", dtype=np.uint8)},
        )
        with pytest.raises(ConfigError, match="not valid JSON"):
            ModelArtifact.load(out)

    def _header(self, saved):
        with np.load(saved) as archive:
            return decode_json(archive[_HEADER])

    def test_unknown_config_key(self, saved, tmp_path, npz_resave):
        header = self._header(saved)
        header["config"]["flux_capacitor"] = 3
        out = npz_resave(saved, tmp_path / "unknown.npz", **{_HEADER: encode_json(header)})
        with pytest.raises(ConfigError, match="does not match RitaConfig"):
            ModelArtifact.load(out)

    def test_missing_config_key(self, saved, tmp_path, npz_resave):
        header = self._header(saved)
        del header["config"]["input_channels"]
        out = npz_resave(saved, tmp_path / "missing.npz", **{_HEADER: encode_json(header)})
        with pytest.raises(ConfigError, match="does not match RitaConfig"):
            ModelArtifact.load(out)

    def test_missing_header_config_field(self, saved, tmp_path, npz_resave):
        header = self._header(saved)
        del header["config"]
        out = npz_resave(saved, tmp_path / "nocfg.npz", **{_HEADER: encode_json(header)})
        with pytest.raises(ConfigError, match="missing 'config'"):
            ModelArtifact.load(out)

    def test_non_object_metadata(self, saved, tmp_path, npz_resave):
        header = self._header(saved)
        header["metadata"] = "not-a-dict"
        out = npz_resave(saved, tmp_path / "meta.npz", **{_HEADER: encode_json(header)})
        with pytest.raises(ConfigError, match="metadata"):
            ModelArtifact.load(out)

    def test_bad_dtype(self, saved, tmp_path, npz_resave):
        header = self._header(saved)
        header["dtype"] = "float12"
        out = npz_resave(saved, tmp_path / "dtype.npz", **{_HEADER: encode_json(header)})
        with pytest.raises(ConfigError, match="dtype"):
            ModelArtifact.load(out)

    def test_missing_weight_key(self, saved, tmp_path, npz_resave):
        out = npz_resave(saved, tmp_path / "noweight.npz", drop=("weights/cls_token",))
        with pytest.raises(ConfigError, match="missing"):
            ModelArtifact.load(out).build_model()

    def test_weight_shape_mismatch(self, saved, tmp_path, npz_resave):
        out = npz_resave(
            saved, tmp_path / "shape.npz",
            **{"weights/cls_token": np.zeros((1, 1, 99))},
        )
        with pytest.raises(ConfigError, match="shape"):
            ModelArtifact.load(out).build_model()
