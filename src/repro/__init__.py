"""RITA: Group Attention is All You Need for Timeseries Analytics.

A full reproduction of the SIGMOD 2024 paper on a from-scratch NumPy deep
learning engine.  Public API highlights:

* :class:`repro.RitaConfig` / :class:`repro.RitaModel` — the model;
* :mod:`repro.attention` — group attention and every baseline mechanism;
* :class:`repro.AdaptiveScheduler` / :class:`repro.BatchSizePredictor` —
  the dynamic scheduling of Sec. 5;
* :mod:`repro.data` — dataset registry with the paper's corpora surrogates;
* :class:`repro.Trainer` — training with the paper's measurement points;
* :mod:`repro.baselines` — TST and GRAIL;
* :mod:`repro.serve` — the inference stack: :class:`repro.ModelArtifact`
  (frozen bundles), :class:`repro.InferenceEngine` (task-typed
  endpoints), :class:`repro.MicroBatcher` and
  :class:`repro.StreamingSession`.

Quickstart::

    import repro
    repro.seed_all(0)
    bundle = repro.load_dataset("wisdm", size_scale=0.01)
    config = repro.RitaConfig(
        input_channels=bundle.channels, max_len=bundle.length,
        dim=32, n_layers=2, attention="group", n_groups=16,
        n_classes=bundle.n_classes,
    )
    model = repro.RitaModel(config)
    trainer = repro.Trainer(model, repro.ClassificationTask(),
                            repro.AdamW(model.parameters()))
    history = trainer.fit(bundle.train, epochs=5, val_dataset=bundle.valid)
"""

from repro.rng import seed_all, get_rng, spawn_rng
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    GradError,
    GridError,
    GridSchemaError,
    GridStateError,
    IntegrityError,
    OverloadError,
    ReproError,
    RequestError,
    ServingError,
    ShapeError,
    SimulatedOOMError,
    WorkerCrashError,
)
from repro.autograd import Tensor, no_grad
from repro.model import RitaConfig, RitaModel, TimeAwareConvolution
from repro.scheduler import (
    AdaptiveScheduler,
    AdaptiveSchedulerConfig,
    BatchSizePredictor,
)
from repro.simgpu import MemoryModel, SimulatedGPU, use_device
from repro.tasks import (
    ClassificationTask,
    ForecastingTask,
    ImputationTask,
    PretrainTask,
    SimilarityIndex,
    cluster_embeddings,
    extract_embeddings,
)
from repro.train import History, Trainer, evaluate_task
from repro.optim import SGD, Adam, AdamW
from repro.data import (
    ArrayDataset,
    DataLoader,
    DatasetBundle,
    RaggedDataset,
    Scaler,
    load_dataset,
    pad_collate,
    pad_ragged,
    table1_rows,
    unpad,
)
from repro.baselines import GrailClassifier, TSTConfig, TSTModel
from repro.serve import (
    ChaosSchedule,
    InferenceEngine,
    MicroBatcher,
    ModelArtifact,
    Router,
    StreamingSession,
    WorkerPool,
)

__version__ = "1.0.0"

__all__ = [
    "seed_all",
    "get_rng",
    "spawn_rng",
    "ConfigError",
    "DeadlineExceededError",
    "GradError",
    "GridError",
    "GridSchemaError",
    "GridStateError",
    "IntegrityError",
    "OverloadError",
    "ReproError",
    "RequestError",
    "ServingError",
    "ShapeError",
    "SimulatedOOMError",
    "WorkerCrashError",
    "Tensor",
    "no_grad",
    "RitaConfig",
    "RitaModel",
    "TimeAwareConvolution",
    "AdaptiveScheduler",
    "AdaptiveSchedulerConfig",
    "BatchSizePredictor",
    "MemoryModel",
    "SimulatedGPU",
    "use_device",
    "ClassificationTask",
    "ForecastingTask",
    "ImputationTask",
    "PretrainTask",
    "SimilarityIndex",
    "cluster_embeddings",
    "extract_embeddings",
    "History",
    "Trainer",
    "evaluate_task",
    "SGD",
    "Adam",
    "AdamW",
    "ArrayDataset",
    "DataLoader",
    "DatasetBundle",
    "RaggedDataset",
    "Scaler",
    "load_dataset",
    "pad_collate",
    "pad_ragged",
    "table1_rows",
    "unpad",
    "GrailClassifier",
    "TSTConfig",
    "TSTModel",
    "ChaosSchedule",
    "InferenceEngine",
    "MicroBatcher",
    "ModelArtifact",
    "Router",
    "StreamingSession",
    "WorkerPool",
    "__version__",
]
