"""Recency-layered implicit-feedback recommendation toolkit.

Pipeline: a timestamped interaction log becomes a recency-weighted bipartite
graph; equal-width weight thresholds carve the graph into layers; recent
layers contribute extra copies of their pairs to the positive multiset that
trains a pairwise-ranking recommender. Evaluation is strictly chronological,
and one-step probes verify the margin guarantees that motivate the layering.
"""

from .data import (
    InteractionLog,
    ParseError,
    RawEvent,
    RawEvents,
    SplitDataset,
    build_log,
    parse_log,
    timestamp_split,
    write_split_manifest,
)
from .decay import (
    SECONDS_PER_DAY,
    DecaySpec,
    WeightedBipartiteGraph,
    build_weighted_graph,
    decay_weight,
)
from .experiment import (
    ExperimentConfig,
    RunResult,
    build_positives,
    load_config,
    load_split,
    run,
    sweep,
)
from .metrics import EvalReport, evaluate, margin_surrogate, ndcg_at_k, rank_items, recall_at_k
from .models import (
    EmbeddingModel,
    build_norm_adjacency,
    init_xavier,
    load_checkpoint,
    propagate_matrix,
    save_checkpoint,
)
from .positives import (
    LayeredGraph,
    PositiveSampleSet,
    build_pss,
    filtrate,
    recent_k_positives,
    train_positives,
)
from .probes import (
    MarginProbe,
    SeparationResult,
    count_updates,
    cumulative_separation,
    expected_margin,
    probe_one_step,
)
from .samplers import NegativeSampler, SamplerSpec
from .synthetic import SyntheticSpec, generate
from .training import (
    AdamState,
    TrainingDiverged,
    batch_gradients,
    bpr_loss,
    fit,
    init_training,
    train_epoch,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "DecaySpec",
    "EmbeddingModel",
    "EvalReport",
    "ExperimentConfig",
    "InteractionLog",
    "LayeredGraph",
    "MarginProbe",
    "NegativeSampler",
    "ParseError",
    "PositiveSampleSet",
    "RawEvent",
    "RawEvents",
    "RunResult",
    "SECONDS_PER_DAY",
    "SamplerSpec",
    "SeparationResult",
    "SplitDataset",
    "SyntheticSpec",
    "TrainingDiverged",
    "WeightedBipartiteGraph",
    "batch_gradients",
    "bpr_loss",
    "build_log",
    "build_norm_adjacency",
    "build_positives",
    "build_pss",
    "build_weighted_graph",
    "count_updates",
    "cumulative_separation",
    "decay_weight",
    "evaluate",
    "expected_margin",
    "filtrate",
    "fit",
    "generate",
    "init_training",
    "init_xavier",
    "load_checkpoint",
    "load_config",
    "load_split",
    "margin_surrogate",
    "ndcg_at_k",
    "parse_log",
    "probe_one_step",
    "propagate_matrix",
    "rank_items",
    "recall_at_k",
    "recent_k_positives",
    "run",
    "save_checkpoint",
    "sweep",
    "timestamp_split",
    "train_epoch",
    "train_positives",
    "write_split_manifest",
]
