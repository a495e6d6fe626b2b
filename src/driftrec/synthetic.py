"""Synthetic interaction logs with a controlled preference drift.

Items form two pools, each carved into contiguous taste groups. Every user
starts with a taste profile over the first pool's groups; at the drift
point, a configurable share of users switches to a profile over the second
pool. Event generation is fully vectorized and deterministic by seed, so
million-edge logs build in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import InteractionLog, latest_per_pair

__all__ = ["SyntheticSpec", "generate", "write_tsv"]


@dataclass(frozen=True)
class SyntheticSpec:
    num_users: int = 500
    num_items: int = 1000
    num_events: int = 40_000
    horizon_days: float = 200.0
    drift_time: float = 0.6
    drift_strength: float = 0.7
    groups_per_pool: int = 10
    concentration: float = 0.3
    seed: int = 0
    start_time: int = 1_000_000_000

    def __post_init__(self):
        if self.num_users < 1 or self.num_items < 2 or self.num_events < 1:
            raise ValueError("need at least one user, two items, one event")
        if not 0.0 < self.drift_time < 1.0:
            raise ValueError("drift_time must be a fraction in (0, 1)")
        if not 0.0 <= self.drift_strength <= 1.0:
            raise ValueError("drift_strength must be in [0, 1]")
        if self.groups_per_pool < 1 or self.groups_per_pool > self.num_items // 2:
            raise ValueError("groups_per_pool must fit inside a pool")
        if self.horizon_days <= 0 or self.concentration <= 0:
            raise ValueError("horizon_days and concentration must be positive")


def _group_boundaries(pool_size: int, groups: int) -> np.ndarray:
    return (np.arange(groups + 1) * pool_size) // groups


def _draw_groups(affinity: np.ndarray, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(affinity, axis=1)
    cum[:, -1] = 1.0
    r = rng.random(users.shape[0])
    return (cum[users] < r[:, None]).sum(axis=1)


def generate(spec: SyntheticSpec, return_truth: bool = False):
    """Build an interaction log (and optionally the generating truth)."""
    rng = np.random.default_rng(spec.seed)
    u_count, i_count = spec.num_users, spec.num_items
    pool_a = i_count // 2
    pool_b = i_count - pool_a
    g = spec.groups_per_pool
    bounds_a = _group_boundaries(pool_a, g)
    bounds_b = _group_boundaries(pool_b, g) + pool_a

    alpha = np.full(g, spec.concentration)
    pre_aff = rng.dirichlet(alpha, size=u_count)
    post_aff = rng.dirichlet(alpha, size=u_count)
    drifters = rng.random(u_count) < spec.drift_strength

    activity = rng.lognormal(0.0, 1.0, size=u_count)
    activity /= activity.sum()

    horizon = int(round(spec.horizon_days * 86400))
    users = rng.choice(u_count, size=spec.num_events, p=activity)
    offsets = rng.integers(0, horizon, size=spec.num_events)
    times = np.asarray(spec.start_time + offsets, dtype=np.int64)
    post = (offsets >= spec.drift_time * horizon) & drifters[users]

    groups = np.empty(spec.num_events, dtype=np.int64)
    pre_idx = np.nonzero(~post)[0]
    post_idx = np.nonzero(post)[0]
    if pre_idx.size:
        groups[pre_idx] = _draw_groups(pre_aff, users[pre_idx], rng)
    if post_idx.size:
        groups[post_idx] = _draw_groups(post_aff, users[post_idx], rng)

    starts = np.where(post, bounds_b[groups], bounds_a[groups])
    sizes = np.where(post, bounds_b[groups + 1], bounds_a[groups + 1]) - starts
    items = starts + rng.integers(0, sizes)

    # collapse duplicate (user, item) pairs keeping the latest timestamp
    kept = latest_per_pair(users.astype(np.int64) * i_count + items, times)
    log = InteractionLog(
        users=users[kept].astype(np.int64),
        items=items[kept].astype(np.int64),
        times=times[kept],
        user_vocab={f"u{k}": k for k in range(u_count)},
        item_vocab={f"i{k}": k for k in range(i_count)},
    )
    if not return_truth:
        return log
    truth = {
        "drifters": drifters,
        "pre_affinity": pre_aff,
        "post_affinity": post_aff,
        "pool_split": pool_a,
        "drift_timestamp": spec.start_time + int(spec.drift_time * horizon),
    }
    return log, truth


def write_tsv(log: InteractionLog, stream) -> None:
    """Emit the log as user<TAB>item<TAB>timestamp lines, oldest first."""
    user_labels = {v: k for k, v in log.user_vocab.items()}
    item_labels = {v: k for k, v in log.item_vocab.items()}
    for u, i, t in zip(log.users.tolist(), log.items.tolist(), log.times.tolist()):
        stream.write(f"{user_labels[u]}\t{item_labels[i]}\t{t}\n")
