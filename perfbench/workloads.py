"""The benchmark's workloads: a synthetic input shape plus a pipeline config.

Every workload runs the same job (ingest, split, positives, fit, test
evaluation, and on drift-S checkpoint reload and a probe phase); they
differ in backbone, sampler and training length, so each one loads a
different layer. README.md says why each was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

# SyntheticSpec fields (apart from the seed) of each input shape. Workloads
# that share a shape share its cached input file; "tiny" serves smoke.py.
SHAPES = {
    "S": dict(num_users=500, num_items=1000, num_events=40_000, drift_strength=0.9),
    "tiny": dict(num_users=60, num_items=200, num_events=2_000, drift_strength=0.9),
}

# Spans every job must record at least once when traced.
COMMON_SPANS = (
    "data.parse_log",
    "data.build_log",
    "data.timestamp_split",
    "decay.build_weighted_graph",
    "positives.filtrate",
    "positives.build_pss",
    "experiment.build_positives",
    "samplers.NegativeSampler.init",
    "samplers.NegativeSampler.sample_batch",
    "training.fit",
    "training.train_epoch",
    "training.batch_gradients",
    "training.AdamState.step",
    "models.init_xavier",
    "metrics.evaluate",
)
PROBE_SPANS = ("probes.count_updates", "probes.probe_one_step")
CHECKPOINT_SPANS = ("models.save_checkpoint", "models.load_checkpoint")
LIGHTGCN_SPANS = ("models.build_norm_adjacency", "models.propagate", "models.propagate_matrix")


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    config: dict  # ExperimentConfig fields
    checkpoint: bool = False  # fit writes checkpoints; the test evaluation reloads one
    probes: bool = False  # a probe phase follows the test evaluation
    round_epochs: int = 1  # epochs of the short fit each re-timing round trains

    @property
    def expected_spans(self) -> tuple[str, ...]:
        spans = COMMON_SPANS
        if self.checkpoint:
            spans += CHECKPOINT_SPANS
        if self.probes:
            spans += PROBE_SPANS
        if self.config.get("backbone") == "lightgcn":
            spans += LIGHTGCN_SPANS
        return spans


_BASE = dict(variant="layered", rate=0.01, d=32, lr=0.01, batch_size=2048, ks=(20,))

WORKLOADS = {
    w.name: w
    for w in (
        # the criterion-9 drift study configuration
        Workload(
            name="drift-S",
            shape="S",
            config=dict(_BASE, layers=2, backbone="mf", sampler="rns",
                        epochs=60, eval_every=20),
            checkpoint=True,
            probes=True,
            round_epochs=5,
        ),
        # model-scored negatives and graph propagation on every batch
        Workload(
            name="lightgcn-dns-S",
            shape="S",
            config=dict(_BASE, layers=3, backbone="lightgcn", prop_layers=3,
                        sampler="dns", pool=10, epochs=12, eval_every=6),
            round_epochs=2,
        ),
    )
}
