"""Training harness: trainer, epoch history, metrics."""

from repro.train.metrics import accuracy, macro_f1, mae, mse
from repro.train.trainer import EpochStats, History, Trainer, evaluate_task
from repro.train.checkpoint import CheckpointManager, load_checkpoint, save_checkpoint
from repro.train.callbacks import EarlyStopping
from repro.train.supervisor import SupervisedRun, Supervisor, TrainingRecipe, TrainPlan

__all__ = [
    "accuracy",
    "macro_f1",
    "mae",
    "mse",
    "EpochStats",
    "History",
    "Trainer",
    "evaluate_task",
    "CheckpointManager",
    "load_checkpoint",
    "save_checkpoint",
    "EarlyStopping",
    "Supervisor",
    "SupervisedRun",
    "TrainingRecipe",
    "TrainPlan",
]
