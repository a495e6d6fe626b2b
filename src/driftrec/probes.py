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

from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

from .data import SplitDataset
from .models import EmbeddingModel, init_xavier  # noqa: F401  (perfbench traces probes.init_xavier)
from .positives import PositiveSampleSet
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
        return {**asdict(self), "gain": self.gain}


def probe_one_step(
    model: EmbeddingModel,
    user: int,
    pos_item: int,
    neg_item: int,
    eta: float,
    optimizer: str | AdamState = "identity",
) -> MarginProbe:
    """Apply one pairwise update on copied rows; the model is unchanged.

    The triple's stacked parameter rows [user, U + pos, U + neg] are one
    (3, d) array, and so are their margin gradients and preconditioner.
    """
    if model.backbone != "mf":
        raise ValueError("margin probes are defined for the dot-product backbone")
    # checked, since a negative index would wrap onto a row of the other kind
    if not (0 <= user < model.num_users and 0 <= min(pos_item, neg_item)
            and max(pos_item, neg_item) < model.num_items):
        raise IndexError(f"index out of range: user {user}, items {pos_item}, {neg_item}")
    rows = [user, model.num_users + pos_item, model.num_users + neg_item]
    emb = model.params[rows]

    margin_before = float(emb[0] @ (emb[1] - emb[2]))
    c = float(expit(-margin_before))
    if pos_item == neg_item:
        raise ValueError("positive and negative item coincide")
    # margin gradients of the user, positive and negative rows
    grads = np.stack([emb[1] - emb[2], emb[0], -emb[0]])

    if isinstance(optimizer, AdamState):
        # bias-corrected second moments advanced one step with the loss
        # gradient -c * grads; the state itself is not modified
        state = optimizer
        v_new = state.beta2 * state.v[rows] + (1.0 - state.beta2) * np.square(-c * grads)
        bc2 = 1.0 - state.beta2 ** (state.step_count + 1)
        diag = 1.0 / (np.sqrt(v_new / bc2) + state.eps)
        label = "adam_diag"
    elif optimizer == "identity":
        diag = 1.0
        label = "identity"
    else:
        raise ValueError(f"unknown optimizer {optimizer!r}")

    grad_norm_sq = float(sum(g @ g for g in grads))
    bound_rhs = eta * c * float(sum(g @ dg for g, dg in zip(grads, diag * grads)))
    after = emb + eta * c * diag * grads
    margin_after = float(after[0] @ (after[1] - after[2]))

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
    """Exact per-pair update counts: the multiset rows each epoch trained,
    counted per distinct pair. Pairs enter the dict in ascending order."""
    model, adam, sampler, rng = init_training(split, config)
    keys, pair_of_row = np.unique(pss.pair_keys(), return_inverse=True)
    counts = np.zeros(keys.size, dtype=np.int64)
    for _ in range(epochs):
        stats = train_epoch(model, pss, config, adam, split, rng, sampler, loss=False)
        counts += np.bincount(pair_of_row[stats["rows"]], minlength=keys.size)
    trained = np.flatnonzero(counts)
    users, items = np.divmod(keys[trained], np.int64(pss.num_items))
    return dict(zip(zip(users.tolist(), items.tolist()), counts[trained].tolist()))


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
    runs: dict,
    config: TrainConfig,
    epochs: int,
    probe_pairs: list,
) -> SeparationResult:
    """Paired runs from one seed, tracking mean expected margin per epoch.

    ``runs`` maps a name to ``(pss, pair_weights)``, as ``build_positives``
    returns them; the weights (or None) scale each pair's loss. Every run
    trains its own copy of the same initial model; after each epoch the
    mean expected margin over the probe pairs is recorded. Epoch zero holds
    the shared starting value.
    """
    if not probe_pairs:
        raise ValueError("no probe pairs given")
    pairs = [(int(u), int(p)) for u, p in probe_pairs]

    def mean_margin(model, sampler):
        return float(np.mean([expected_margin(model, u, p, sampler.user_items(u))
                              for u, p in pairs]))

    trajectories = {}
    for name, (pss, pair_weights) in runs.items():
        model, adam, sampler, rng = init_training(split, config)
        track = [mean_margin(model, sampler)]
        for _ in range(epochs):
            train_epoch(model, pss, config, adam, split, rng, sampler,
                        pair_weights=pair_weights, loss=False)
            track.append(mean_margin(model, sampler))
        trajectories[str(name)] = track

    return SeparationResult(epochs=list(range(epochs + 1)), pairs=pairs,
                            trajectories=trajectories)
