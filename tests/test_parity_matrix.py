"""One parity matrix: every serving path against the direct model.

The same inputs (a dense batch and a ragged list, float32-exact) go
through every serving path, on both backends, in float32 and float64,
for ``classify``, ``embed`` (both poolings) and ``reconstruct``.
Attention is vanilla, or group attention with ``n_groups >= n``: every
key is its own group, exact attention by Lemma 3, and each model is
built fresh from one seed, so K-means draws cannot move a comparison.
Each path's row in ``tolerances.py`` names its baseline and its bar.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib

import numpy as np
import pytest

import repro
import repro.kernels as K
from repro.autograd.tensor import no_grad
from repro.data import pad_ragged, sliding_windows
from repro.serve import InferenceEngine, MicroBatcher, ModelArtifact, Router, StreamingSession
from repro.serve import WorkerPool
from tolerances import BITWISE, TOLERANCES, assert_parity

DTYPES = ["float64", "float32"]
#: endpoint id -> (engine method, keyword arguments)
ENDPOINTS = {"classify": ("classify", {}), "embed": ("embed", {}),
             "embed-mean": ("embed", {"pooling": "mean"}), "reconstruct": ("reconstruct", {})}


def make_artifact(attention: str, dtype: str) -> ModelArtifact:
    """The same float32-exact weights, stored in ``dtype``."""
    config = repro.RitaConfig(
        input_channels=2, max_len=28, dim=16, n_layers=2, n_heads=2,
        attention=attention, n_groups=64, dropout=0.0, n_classes=3,
    )
    model = repro.RitaModel(config, rng=np.random.default_rng(11))
    exact = ModelArtifact.from_model(model, dtype="float32")
    weights = {name: values.astype(dtype) for name, values in exact.weights.items()}
    return dataclasses.replace(exact, weights=weights, dtype=np.dtype(dtype))


def no_warm_start(model):
    """Carried centers would subsample the next forward's groups below n."""
    for layer in model.group_attention_layers():
        layer.warm_start = False
    return model


def build(artifact: ModelArtifact):
    """A model whose group layers draw the same K-means seeds on every build."""
    repro.seed_all(0)
    return no_warm_start(artifact.build_model())


def make_series(kind: str, dtype: str) -> list[np.ndarray]:
    rng = np.random.default_rng(3)
    lengths = [24] * 4 if kind == "dense" else [20, 14, 9]
    return [rng.standard_normal((n, 2)).astype(np.float32).astype(dtype) for n in lengths]


def rows(out, series) -> list[np.ndarray]:
    return [row[: len(s)] if row.ndim == 2 else row for row, s in zip(out, series)]


def direct(model, endpoint: str, series) -> list[np.ndarray]:
    """The model call behind ``endpoint``: dense, or padded with its mask."""
    if len({len(s) for s in series}) == 1:
        x, mask = np.stack(series), None
    else:
        x, mask = pad_ragged(series)
    with no_grad():
        if endpoint == "classify":
            out = model.classify(x, mask=mask)
        elif endpoint == "reconstruct":
            out = model.reconstruct(x, mask=mask)
        else:
            cls, windows = model.encode(x, mask=mask)
            wmask = None if mask is None else model.window_mask(mask)
            out = cls if endpoint == "embed" else model.pool_windows(windows, wmask)
    return rows(out.data, series)


def oracle(attention: str, endpoint: str, series) -> list[np.ndarray]:
    """The direct model on ``reference`` in float64; ragged series run alone."""
    model = build(make_artifact(attention, "float64"))
    series = [s.astype(np.float64) for s in series]
    with K.use_backend("reference"), K.dtype_scope(np.float64):
        if len({len(s) for s in series}) == 1:
            return direct(model, endpoint, series)
        return [direct(model, endpoint, [s])[0] for s in series]


# -- serving paths: (artifact, method, kwargs, series, tmp_path) -> (outputs, series served)
def run_engine(artifact, method, kwargs, series, tmp_path, **options):
    engine = InferenceEngine(build(artifact), **options)
    return rows(getattr(engine, method)(series, **kwargs), series), series


def run_batcher(artifact, method, kwargs, series, tmp_path):
    endpoint = functools.partial(getattr(InferenceEngine(build(artifact)), method), **kwargs)
    return MicroBatcher(endpoint, max_batch_size=8).map(series), series


def run_streaming(artifact, method, kwargs, series, tmp_path):
    stream = np.concatenate(series)
    engine = InferenceEngine(build(artifact))
    session = StreamingSession(engine, window=16, step=4, endpoint=method, **kwargs)
    for start in range(0, len(stream), 7):  # appends that end mid-window
        session.append(stream[start : start + 7])
    return list(session.outputs()), list(sliding_windows(stream, 16, 4))


def run_artifact(artifact, method, kwargs, series, tmp_path):
    with K.dtype_scope(np.float64):  # export, load and serve under the float64 policy
        saved = ModelArtifact.from_model(build(artifact), dtype=artifact.dtype)
        path = saved.save(tmp_path / f"{method}-{len(kwargs)}.rita")
        repro.seed_all(0)
        engine = InferenceEngine(ModelArtifact.load(path))
        no_warm_start(engine.model)
        return rows(getattr(engine, method)(series, **kwargs), series), series


PATHS = {
    "engine": run_engine,
    "engine max_batch_size=1": functools.partial(run_engine, max_batch_size=1),
    "batcher": run_batcher,
    "streaming": run_streaming,
    "artifact": run_artifact,
}
MATRIX = [
    pytest.param(path, kind, id=f"{path}-{kind}")
    for path in ["model", *PATHS]
    for kind in (["dense"] if path == "streaming" else ["dense", "ragged"])
]


@pytest.mark.parametrize("attention", ["vanilla", "group"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("backend", ["reference", "fused"])
@pytest.mark.parametrize("path, kind", MATRIX)
def test_path_matches_the_direct_model(path, kind, backend, dtype, attention, tmp_path):
    artifact = make_artifact(attention, dtype)
    series = make_series(kind, dtype)
    row = f"batcher {kind}" if path == "batcher" else path
    for endpoint, (method, kwargs) in ENDPOINTS.items():
        with K.use_backend(backend), K.dtype_scope(dtype):
            if path == "model":
                got = direct(build(artifact), endpoint, series)
            else:
                got, served = PATHS[path](artifact, method, kwargs, series, tmp_path)
                want = direct(build(artifact), endpoint, served)
        if path == "model":
            want = oracle(attention, endpoint, series)
        assert len(got) == len(want)
        for index, (g, w) in enumerate(zip(got, want)):
            assert_parity(g, w, row, dtype, f"{endpoint} row {index}")


@pytest.mark.slow  # spawns a worker process
@pytest.mark.parametrize("dtype", DTYPES)
def test_router_matches_the_serial_engine(dtype):
    """Vanilla only: a worker draws K-means seeds in its own process."""
    artifact = make_artifact("vanilla", dtype)
    serial = InferenceEngine(artifact)
    with WorkerPool(artifact, n_workers=1) as pool, Router(pool) as router:
        for kind in ("dense", "ragged"):
            series = make_series(kind, dtype)
            for method, kwargs in ENDPOINTS.values():
                got = router.map(method, series, deadline_s=60.0, **kwargs)
                for g, s in zip(got, series):
                    want = getattr(serial, method)(s, **kwargs)
                    assert_parity(g, want, "router", dtype, f"{kind} {method} {kwargs}")


def _args(kernel, rng, dtype):
    """Integer-valued float operands; ids leave segment 5 of 6 empty."""
    def ints(*shape):
        return rng.integers(-4, 5, size=shape).astype(dtype)

    def segments(shape, num_segments=6):
        return K.Segments.from_ids(rng.integers(0, 5, size=shape), num_segments)

    return {
        "segment_sum": lambda: (ints(2, 3, 9, 4), segments((2, 3, 9))),
        "segment_gather": lambda: (ints(2, 3, 5, 4), segments((2, 3, 9), 5)),
        "segment_count": lambda: (segments((2, 3, 9)),),
        "segment_max": lambda: (ints(2, 9), segments((2, 9)), -1.0),
        "segment_mean": lambda: (ints(2, 9, 4), segments((2, 9))),
        "kmeans_assign": lambda: (ints(3, 9, 4), ints(3, 5, 4)),
        "linear": lambda: (ints(2, 5, 6), ints(4, 6), ints(4)),
        "linear_backward": lambda: (ints(2, 5, 4), ints(2, 5, 6), ints(4, 6), True),
        "layer_norm": lambda: (ints(2, 5, 8), ints(8), ints(8), 1e-5),
        "group_softmax": lambda: (ints(2, 3, 7, 4), np.abs(ints(2, 3, 4)) + 1, None),
        "masked_softmax": lambda: (ints(2, 6, 6), rng.random((2, 6, 6)) < 0.6, -1),
    }[kernel]()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "kernel, row",
    [(name, "kernel, integer inputs") for name in (
        "segment_sum", "segment_gather", "segment_count", "segment_max", "segment_mean",
        "kmeans_assign", "linear", "linear_backward",
    )] + [("layer_norm", "kernel"), ("group_softmax", "kernel"),
          ("masked_softmax", "masked softmax")],
)
def test_fused_kernel_matches_reference(kernel, row, dtype, rng):
    args = _args(kernel, rng, dtype)
    want = getattr(K.get_backend("reference"), kernel)(*args)
    got = getattr(K.get_backend("fused"), kernel)(*args)
    want, got = (want, got) if isinstance(want, tuple) else ((want,), (got,))
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want)):
        assert_parity(g, w, row, dtype, f"{kernel} output {index}")


def test_readme_quotes_the_tolerance_table():
    def cell(row):
        if row is None or row.bar == BITWISE:
            return row.bar if row else "-"
        return "rtol {}, atol {}".format(
            *(np.format_float_scientific(x, trim="-", exp_digits=1) if x else "0" for x in row.bar)
        )

    lines = ["| path | float64 | float32 | reason |", "|---|---|---|---|"]
    for path in dict.fromkeys(path for path, _ in TOLERANCES):
        f64, f32 = (TOLERANCES.get((path, dtype)) for dtype in DTYPES)
        lines.append(f"| {path} | {cell(f64)} | {cell(f32)} | {(f64 or f32).reason} |")
    table = "\n".join(lines)
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    assert table in readme, f"README's parity table is out of date; it should read:\n{table}"
