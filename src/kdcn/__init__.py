"""Two-step CTR pipeline: graph pretraining, then a deep-cross ranker."""

from .datagen import ClickModel, Sample, SampleSplit, WorldConfig, generate_samples, generate_world
from .graph import Graph, Triple, TripleSet, ingest_events, load_triples, save_triples
from .metrics import auc, epochs_to_threshold
from .model import FitResult, KdcnModel, TrainConfig, fit, log_loss, rank_candidates
from .numeric import ParamStore, adam_step
from .pretrain import PretrainCheckpoint, PretrainConfig, export_checkpoint, load_checkpoint
from .rng import RngStream

# keep the submodules addressable (kdcn.pretrain is the module; the training
# entry point is kdcn.pretrain.pretrain)
from . import datagen, graph, metrics, model, numeric, pretrain, rng  # noqa: E402

__all__ = [
    "ClickModel",
    "FitResult",
    "Graph",
    "KdcnModel",
    "ParamStore",
    "PretrainCheckpoint",
    "PretrainConfig",
    "RngStream",
    "Sample",
    "SampleSplit",
    "TrainConfig",
    "Triple",
    "TripleSet",
    "WorldConfig",
    "adam_step",
    "auc",
    "datagen",
    "epochs_to_threshold",
    "export_checkpoint",
    "fit",
    "generate_samples",
    "generate_world",
    "graph",
    "ingest_events",
    "load_checkpoint",
    "load_triples",
    "log_loss",
    "metrics",
    "model",
    "numeric",
    "pretrain",
    "rank_candidates",
    "rng",
    "save_triples",
]
