"""Select-style negative samplers.

All samplers return, per positive pair, one item the user has not
interacted with in train:

  rns     uniform over uninteracted items
  pns     probability proportional to item popularity ** alpha
  dns     hardest of `pool` uniform candidates under the current model
  dns_mn  one of the rank-M..N candidates out of N, softening the
          hard-negative window

Membership ("has user u interacted with item i in train?") is one lookup
in a packed bitset holding one bit per (user, item) key, u * num_items + i.
It costs U * I / 8 bytes: 62.5 KiB for 500 users x 1000 items, 50 MB for
20k x 20k, so memory is O(U * I / 8) whatever the number of interactions.

Rejection sampling is capped at REJECTION_ROUNDS. Each round redraws, in
index order, only the entries still interacted and re-checks only those;
valid draws are never touched again. Entries still interacted after the cap
fall back to explicit complement enumeration, so validity never depends on
luck. Samplers keep no mutable state beyond the caller's rng, so seeded runs
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import InteractionLog

__all__ = ["SamplerSpec", "NegativeSampler"]

KINDS = ("rns", "pns", "dns", "dns_mn")

REJECTION_ROUNDS = 100


@dataclass(frozen=True)
class SamplerSpec:
    kind: str = "rns"
    alpha: float = 0.75
    pool: int = 10
    m: int = 2
    n: int = 10

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}, expected one of {KINDS}")
        if self.pool < 1:
            raise ValueError("pool must be >= 1")
        if not (1 <= self.m <= self.n):
            raise ValueError("need 1 <= m <= n")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")


class NegativeSampler:
    """A sampler spec bound to one training set's per-user item sets."""

    def __init__(self, spec: SamplerSpec, train: InteractionLog):
        self.spec = spec
        self.num_users = train.num_users
        self.num_items = train.num_items
        # packed bitset, one bit per (user, item) key: O(1) membership in
        # ceil(U * I / 8) bytes (62.5 KiB at 500 x 1000, 50 MB at 20k x 20k)
        keys = train.users * np.int64(self.num_items) + train.items
        self._bits = np.zeros(-(-self.num_users * self.num_items // 8), dtype=np.uint8)
        np.bitwise_or.at(self._bits, keys >> 3, (1 << (keys & 7)).astype(np.uint8))
        # CSR-style per-user item lists for complement fallbacks; no lexsort:
        # a pair key sorts as its (user, item), and int64 lexsort is far slower
        self._items_by_user = np.sort(keys) % self.num_items
        counts = np.bincount(train.users, minlength=self.num_users)
        self._indptr = np.r_[0, np.cumsum(counts)]
        self.degree = counts
        if spec.kind == "pns":
            item_deg = np.bincount(train.items, minlength=self.num_items).astype(np.float64)
            weights = np.power(item_deg, spec.alpha)
            self._pop_cumsum = np.cumsum(weights)
            self._pop_weights = weights

    # --- membership helpers ------------------------------------------------
    def user_items(self, u: int) -> np.ndarray:
        """Sorted train items of user u."""
        return self._items_by_user[self._indptr[u] : self._indptr[u + 1]]

    def _interacted(self, users: np.ndarray, cands: np.ndarray) -> np.ndarray:
        keys = users * np.int64(self.num_items) + cands
        return (self._bits[keys >> 3] >> (keys & 7).astype(np.uint8) & 1).view(bool)

    def _check_feasible(self, users: np.ndarray) -> None:
        full = self.degree[users] >= self.num_items
        if np.any(full):
            u = int(users[np.argmax(full)])
            raise ValueError(f"user {u} interacted with every item; no negative exists")

    # --- uniform / popularity candidate draws -------------------------------
    def _complement(self, u: int) -> np.ndarray:
        return np.setdiff1d(np.arange(self.num_items), self.user_items(u), assume_unique=True)

    def _redraw_interacted(self, users: np.ndarray, out: np.ndarray, draw) -> np.ndarray:
        """Redraw interacted entries of `out` in place, `draw(n)` giving n fresh items.

        Each round redraws the entries still interacted, in index order, and
        re-checks only those; entries already valid are never drawn again.
        Returns the ascending indices still interacted after the capped rounds.
        """
        idx = np.flatnonzero(self._interacted(users, out))
        rounds = 0
        while idx.size and rounds < REJECTION_ROUNDS:
            out[idx] = draw(idx.size)
            idx = idx[self._interacted(users[idx], out[idx])]
            rounds += 1
        return idx

    def _draw_uniform_valid(self, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One uninteracted item per entry of `users` (entries may repeat)."""
        out = rng.integers(0, self.num_items, size=users.shape[0])
        left = self._redraw_interacted(
            users, out, lambda n: rng.integers(0, self.num_items, size=n)
        )
        for idx in left:
            comp = self._complement(int(users[idx]))
            out[idx] = comp[rng.integers(0, comp.size)]
        return out

    def _draw_popularity_valid(self, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        total = self._pop_cumsum[-1]
        size = users.shape[0]
        if total > 0:
            def draw(n):
                return np.searchsorted(self._pop_cumsum, rng.random(n) * total, side="right")

            out = draw(size)
            left = self._redraw_interacted(users, out, draw)
        else:
            out = np.zeros(size, dtype=np.int64)
            left = np.arange(size)
        for idx in left:
            comp = self._complement(int(users[idx]))
            w = self._pop_weights[comp]
            tot = w.sum()
            if tot > 0:
                out[idx] = comp[np.searchsorted(np.cumsum(w), rng.random() * tot, side="right")]
            else:
                out[idx] = comp[rng.integers(0, comp.size)]
        return out

    # --- public sampling API -------------------------------------------------
    def sample_batch(self, users: np.ndarray, model, rng: np.random.Generator) -> np.ndarray:
        """One negative per positive pair, using the model's current parameters.

        Users outside [0, num_users) raise IndexError; a negative index
        would otherwise wrap in the bitset and degree lookups. dns gives
        ``num_items``, one past the last item, for a pair with a NaN
        candidate score.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.size and (users.min() < 0 or users.max() >= self.num_users):
            raise IndexError(f"user index out of range [0, {self.num_users})")
        self._check_feasible(users)
        kind = self.spec.kind
        if kind == "rns":
            return self._draw_uniform_valid(users, rng)
        if kind == "pns":
            return self._draw_popularity_valid(users, rng)

        width = self.spec.pool if kind == "dns" else self.spec.n
        b = users.shape[0]
        cands = self._draw_uniform_valid(np.repeat(users, width), rng).reshape(b, width)
        scores = model.pair_scores(users, cands)
        if kind == "dns":
            # the row max, then the smallest item index among its ties, one
            # candidate column at a time (a row with a NaN score ties nothing
            # and picks num_items, as a whole-matrix max, where and min do)
            best = scores[:, 0].copy()
            for j in range(1, width):
                np.maximum(best, scores[:, j], out=best)
            pick = np.full(b, self.num_items, dtype=cands.dtype)
            for j in range(width):
                np.minimum(pick, cands[:, j], out=pick, where=scores[:, j] == best)
            return pick
        # dns_mn: order by score descending (item index breaks ties), then
        # pick a rank uniformly from the M..N window
        order = np.lexsort((cands, -scores), axis=-1)
        ranks = rng.integers(self.spec.m - 1, self.spec.n, size=b)
        return cands[np.arange(b), order[np.arange(b), ranks]]
