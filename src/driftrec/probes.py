"""One-step margin probes and paired training comparisons.

The probe applies a single pairwise update for one (user, positive,
negative) triple on the dot-product backbone and records the margin before
and after, the squared gradient norm of the margin, and the first-order
lower bound eta * sigmoid(-margin) * grad' D grad realized by the update.
The preconditioner D is the identity for plain gradient descent; the
adaptive mode uses only the second-moment diagonal, so the realized update
is exactly -eta * D * grad_loss either way.

The training comparisons (update counts and cumulative separation) start
every run from ``training.init_training``, so they train the backbone,
sampler and optimizer the config names, exactly as ``fit`` would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import SplitDataset
from .models import EmbeddingModel, init_xavier  # noqa: F401  (perfbench traces probes.init_xavier)
from .positives import PositiveSampleSet
from .samplers import NegativeSampler, SamplerSpec
from .training import AdamState, TrainConfig, init_training, train_epoch

__all__ = [
    "MarginProbe",
    "SeparationResult",
    "probe_one_step",
    "count_updates",
    "cumulative_separation",
    "expected_margin",
]


@dataclass(frozen=True)
class MarginProbe:
    user: int
    pos_item: int
    neg_item: int
    eta: float
    optimizer: str
    margin_before: float
    margin_after: float
    grad_norm_sq: float
    bound_rhs: float

    @property
    def gain(self) -> float:
        return self.margin_after - self.margin_before

    @property
    def residual(self) -> float:
        return self.gain - self.bound_rhs

    def to_dict(self) -> dict:
        return {
            "user": self.user,
            "pos_item": self.pos_item,
            "neg_item": self.neg_item,
            "eta": self.eta,
            "optimizer": self.optimizer,
            "margin_before": self.margin_before,
            "margin_after": self.margin_after,
            "grad_norm_sq": self.grad_norm_sq,
            "bound_rhs": self.bound_rhs,
            "gain": self.gain,
        }


def _adam_diagonal(state: AdamState, rows: dict, grads: dict) -> dict:
    """Bias-corrected second-moment preconditioner for the touched rows.

    Uses the state's moments advanced one step with the probe gradient;
    the state itself is not modified.
    """
    t = state.step_count + 1
    bc2 = 1.0 - state.beta2 ** t
    out = {}
    for key, g in grads.items():
        kind, row = key
        v = (state.v_user if kind == "user" else state.v_item)[row]
        v_new = state.beta2 * v + (1.0 - state.beta2) * np.square(g)
        out[key] = 1.0 / (np.sqrt(v_new / bc2) + state.eps)
    return out


def probe_one_step(
    model: EmbeddingModel,
    user: int,
    pos_item: int,
    neg_item: int,
    eta: float,
    optimizer: str | AdamState = "identity",
) -> MarginProbe:
    """Apply one pairwise update on copied rows; the model is unchanged."""
    if model.backbone != "mf":
        raise ValueError("margin probes are defined for the dot-product backbone")
    e_u = model.user_emb[user].copy()
    e_p = model.item_emb[pos_item].copy()
    e_n = model.item_emb[neg_item].copy()

    margin_before = float(e_u @ (e_p - e_n))
    c = float(expit(-margin_before))
    grads = {
        ("user", user): e_p - e_n,
        ("item", pos_item): e_u,
        ("item", neg_item): -e_u,
    }
    if pos_item == neg_item:
        raise ValueError("positive and negative item coincide")

    if isinstance(optimizer, AdamState):
        # the loss gradient is -c * margin gradient
        diag = _adam_diagonal(
            optimizer, grads, {k: -c * g for k, g in grads.items()}
        )
        label = "adam_diag"
    elif optimizer == "identity":
        diag = {k: np.ones_like(g) for k, g in grads.items()}
        label = "identity"
    else:
        raise ValueError(f"unknown optimizer {optimizer!r}")

    grad_norm_sq = float(sum(g @ g for g in grads.values()))
    bound_rhs = eta * c * float(
        sum(g @ (diag[k] * g) for k, g in grads.items())
    )

    e_u2 = e_u + eta * c * diag[("user", user)] * grads[("user", user)]
    e_p2 = e_p + eta * c * diag[("item", pos_item)] * grads[("item", pos_item)]
    e_n2 = e_n + eta * c * diag[("item", neg_item)] * grads[("item", neg_item)]
    margin_after = float(e_u2 @ (e_p2 - e_n2))

    return MarginProbe(
        user=int(user),
        pos_item=int(pos_item),
        neg_item=int(neg_item),
        eta=float(eta),
        optimizer=label,
        margin_before=margin_before,
        margin_after=margin_after,
        grad_norm_sq=grad_norm_sq,
        bound_rhs=bound_rhs,
    )


def count_updates(
    split: SplitDataset,
    pss: PositiveSampleSet,
    config: TrainConfig,
    epochs: int = 1,
) -> dict:
    """Exact per-pair update counts from an instrumented training run."""
    model, adam, sampler, rng = init_training(split, config)
    counter: dict = {}
    for _ in range(epochs):
        train_epoch(
            model, pss, config, adam, split, rng, sampler,
            update_counter=counter, loss=False,
        )
    return counter


def expected_margin(
    model: EmbeddingModel, user: int, item: int, train_items: np.ndarray
) -> float:
    """Score gap to the mean score over the user's uninteracted items."""
    scores = model.score_all(user)
    total = float(scores.sum())
    interacted = float(scores[train_items].sum())
    rest = scores.shape[0] - train_items.shape[0]
    if rest <= 0:
        raise ValueError(f"user {user} interacted with every item")
    return float(scores[item]) - (total - interacted) / rest


@dataclass(frozen=True)
class SeparationResult:
    epochs: list
    pairs: list
    trajectories: dict

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "pairs": [[int(u), int(p)] for u, p in self.pairs],
            "trajectories": self.trajectories,
        }


def cumulative_separation(
    split: SplitDataset,
    pss_by_name: dict,
    config: TrainConfig,
    epochs: int,
    probe_pairs: list,
) -> SeparationResult:
    """Paired runs from one seed, tracking mean expected margin per epoch.

    Every named positive set trains its own copy of the same initial model;
    after each epoch the mean expected margin over the probe pairs is
    recorded. Epoch zero holds the shared starting value.
    """
    if not probe_pairs:
        raise ValueError("no probe pairs given")
    sampler_train = NegativeSampler(SamplerSpec(), split.train)
    items_of = {int(u): sampler_train.user_items(int(u)) for u, _ in probe_pairs}

    def mean_margin(model):
        vals = [
            expected_margin(model, int(u), int(p), items_of[int(u)])
            for u, p in probe_pairs
        ]
        return float(np.mean(vals))

    trajectories = {}
    for name, pss in pss_by_name.items():
        model, adam, sampler, rng = init_training(split, config)
        track = [mean_margin(model)]
        for _ in range(epochs):
            train_epoch(model, pss, config, adam, split, rng, sampler, loss=False)
            track.append(mean_margin(model))
        trajectories[str(name)] = track

    return SeparationResult(
        epochs=list(range(epochs + 1)),
        pairs=[(int(u), int(p)) for u, p in probe_pairs],
        trajectories=trajectories,
    )
