"""Top-k ranking evaluation.

Scores every item per evaluated user, excludes that user's training items,
breaks score ties by ascending item index, and reports mean recall and NDCG
at each cutoff over users with at least one held-out positive.

:func:`evaluate` ranks users in blocks of ``BLOCK_SCORES`` scores (1 MiB;
one user per block when the catalogue is larger), so its memory does not
grow with the number of users. A block is scored by matrix products of a
few users each (at most ``GEMM_MACS`` multiply-adds, so BLAS runs them on
one thread), whose sums may round in another order than the per-user
matrix-vector product of ``EmbeddingModel.score_all``. Any summation order
of a d-term dot product lies within gamma_d * sum_k |u_k i_k| of the exact
value, gamma_d = d u / (1 - d u) with u = 2**-53 (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., section 3.1), plus d subnormal
roundings. Bounding that sum by ``||u||_1 * max |item entry|`` gives each
user one tolerance, four times the per-score bound (two scores, two
orders) and doubled for safety. When the row's ``max(ks) + 1`` best scores
of the product are finite and each lies more than the tolerance above the
next, the matrix-vector product ranks the same items first in the same
order, with no ties; ``np.argpartition`` and a sort of that head give the
row's ranking. The selection takes the rows of one small matrix product
(``GEMM_MACS / d`` scores, at least one row) at a time, so its index
scratch does not grow with the block. Any other row (near-ties, too few
rankable items, non-finite or overflowing values) is ranked by
:func:`rank_items` itself, so it is exact by construction.
Recall and NDCG are then computed for all users at once with the float
operations of the per-user helpers (:func:`rank_items`,
:func:`recall_at_k`, :func:`ndcg_at_k`) in the same order, so the results
equal a loop over those helpers exactly, not just within a tolerance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .data import SplitDataset
from .models import EmbeddingModel, check_index

BLOCK_SCORES = 2**17  # scores ranked at once: 1 MiB of float64 per block of users
GEMM_MACS = 2**18  # multiply-adds per np.matmul; OpenBLAS runs products this small on one thread
UNIT_ROUNDOFF = 2.0**-53
SUBNORMAL_MIN = 2.0**-1074
CERTIFY_SAFETY = 2.0  # margin on the rounding bound for the rounding in computing it
PAIRWISE_TERMS = 8  # np.sum adds this many terms or more pairwise, fewer in sequence

__all__ = [
    "EvalReport",
    "rank_items",
    "recall_at_k",
    "ndcg_at_k",
    "evaluate",
    "margin_surrogate",
]


@dataclass(frozen=True)
class EvalReport:
    ks: tuple[int, ...]
    aggregates: dict
    users_evaluated: int
    per_user: list | None

    def to_dict(self) -> dict:
        doc = {
            "users_evaluated": self.users_evaluated,
            "metrics": {
                str(k): dict(self.aggregates[k]) for k in self.ks
            },
        }
        if self.per_user is not None:
            doc["per_user"] = self.per_user
        return doc

    def write_csv(self, stream) -> None:
        writer = csv.writer(stream)
        writer.writerow(["k", "recall", "ndcg", "users_evaluated"])
        for k in self.ks:
            writer.writerow([
                k,
                repr(self.aggregates[k]["recall"]),
                repr(self.aggregates[k]["ndcg"]),
                self.users_evaluated,
            ])


def rank_items(model: EmbeddingModel, user: int, exclude: np.ndarray) -> np.ndarray:
    """All items ordered by descending score, ties by ascending index,
    with excluded items removed. An excluded index outside [0, num_items)
    raises IndexError."""
    check_index("exclude", exclude, model.num_items)
    scores = model.score_all(user)
    order = np.argsort(-scores, kind="stable")
    if exclude.size:
        keep = np.ones(scores.shape[0], dtype=bool)
        keep[exclude] = False
        order = order[keep[order]]
    return order


def recall_at_k(ranked: np.ndarray, positives: np.ndarray, k: int) -> float:
    if positives.size == 0:
        raise ValueError("recall undefined without positives")
    hits = np.intersect1d(ranked[:k], positives).size
    return hits / positives.size


def ndcg_at_k(ranked: np.ndarray, positives: np.ndarray, k: int) -> float:
    if positives.size == 0:
        raise ValueError("ndcg undefined without positives")
    top = ranked[:k]
    pos_in_top = np.isin(top, positives)
    ranks = np.nonzero(pos_in_top)[0] + 1
    dcg = float(np.sum(1.0 / np.log2(ranks + 1.0)))
    ideal = np.arange(1, min(k, positives.size) + 1)
    idcg = float(np.sum(1.0 / np.log2(ideal + 1.0)))
    return dcg / idcg


def _pair_keys(log, num_items: int) -> np.ndarray:
    """Sorted distinct ``user * num_items + item`` keys of a log."""
    keys = np.sort(log.users * np.int64(num_items) + log.items)
    return keys[np.diff(keys, prepend=-1) != 0]


def _certified_head(
    neg: np.ndarray, user_emb: np.ndarray, item_abs_max: float, kmax: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``kmax`` best items by ``neg``, best first, and whether the
    per-user matrix-vector product is certain to rank exactly those first.

    ``neg`` holds negated scores of any summation order, with excluded items
    at +inf; ``user_emb`` holds the rows' user embeddings. A row is certain
    when its ``kmax + 1`` best values are finite and each lies more than the
    row's tolerance from the next, so no other summation order can swap two
    of them or lift an outside item among them.
    """
    n, num_items = neg.shape
    if num_items <= kmax:
        return np.empty((n, kmax), dtype=np.int64), np.zeros(n, dtype=bool)
    d = user_emb.shape[1]
    # argpartition's index is as large as its input, so it selects the rows of
    # one matrix product (GEMM_MACS / d scores, at least one row) at a time
    sub = max(1, GEMM_MACS // (num_items * d))
    idx = np.empty((n, kmax + 1), dtype=np.intp)
    for a in range(0, n, sub):
        idx[a : a + sub] = np.argpartition(neg[a : a + sub], kmax, axis=1)[:, : kmax + 1]
    head = np.take_along_axis(neg, idx, axis=1)
    order = np.argsort(head, axis=1)
    head = np.take_along_axis(head, order, axis=1)
    gamma = d * UNIT_ROUNDOFF / (1 - d * UNIT_ROUNDOFF)
    # bound >= sum_k |u_k i_k| for every item, with no squares to underflow;
    # see the module docstring for the tolerance. An overflowing bound is
    # inf, which leaves its row uncertain.
    with np.errstate(over="ignore"):
        bound = np.abs(user_emb).sum(axis=1) * item_abs_max
    tol = CERTIFY_SAFETY * 4 * (gamma * bound + d * SUBNORMAL_MIN)
    with np.errstate(invalid="ignore"):  # inf - inf between excluded items
        gaps = np.diff(head, axis=1)
    certain = (
        (bound <= np.finfo(np.float64).max / 2)  # no partial sum can overflow
        & np.isfinite(head[:, -1])  # at least kmax + 1 rankable items
        & (gaps > tol[:, None]).all(axis=1)
    )
    return np.take_along_axis(idx, order[:, :kmax], axis=1), certain


def _top_items(
    model: EmbeddingModel,
    users: np.ndarray,
    excl_row: np.ndarray,
    excl_item: np.ndarray,
    kmax: int,
) -> np.ndarray:
    """The first ``kmax`` ranked items of each user, one row per user.

    Row j ranks ``users[j]``, leaving out the items paired with j in
    (``excl_row``, ``excl_item``), which are sorted by row. A row with fewer
    than ``kmax`` rankable items is padded with -1.
    """
    ue, ie = model.scoring_embeddings()
    num_items, d = ie.shape
    rows = max(1, min(BLOCK_SCORES // num_items, users.size))
    # products of at most GEMM_MACS multiply-adds run on one BLAS thread, with no
    # latency tail; once a single user's product is larger every call threads,
    # and one call per block is the fastest
    sub = GEMM_MACS // max(1, num_items * d) or rows
    item_abs_max = np.maximum(ie.max(initial=0.0), -ie.min(initial=0.0))
    # a C-contiguous (d, num_items) copy: the small GEMMs run two to three times
    # as fast against it as against the Fortran-order view ie.T
    ie_t = np.ascontiguousarray(ie.T)
    top = np.empty((users.size, kmax), dtype=np.int64)
    scores = np.empty((rows, num_items))
    for start in range(0, users.size, rows):
        block = users[start : start + rows]
        neg, user_emb = scores[: block.size], ue[block]
        with np.errstate(over="ignore", invalid="ignore"):  # as quiet as the GEMV
            for a in range(0, block.size, sub):
                np.matmul(user_emb[a : a + sub], ie_t, out=neg[a : a + sub])
        np.negative(neg, out=neg)
        lo, hi = np.searchsorted(excl_row, [start, start + block.size])
        out_rows, out_items = excl_row[lo:hi] - start, excl_item[lo:hi]
        neg[out_rows, out_items] = np.inf
        top[start : start + block.size], certain = _certified_head(
            neg, user_emb, item_abs_max, kmax
        )
        for row in np.flatnonzero(~certain):
            a, b = np.searchsorted(out_rows, [row, row + 1])
            ranked = rank_items(model, int(block[row]), out_items[a:b])[:kmax]
            top[start + row] = -1
            top[start + row, : ranked.size] = ranked
    return top


def _sequential_mean(values: np.ndarray, n: int) -> float:
    return float(np.cumsum(values)[-1]) / n if n else 0.0


def evaluate(
    model: EmbeddingModel,
    split: SplitDataset,
    ks: tuple[int, ...] = (20, 30),
    part: str = "test",
    per_user: bool = True,
) -> EvalReport:
    """Mean recall and NDCG at each cutoff over users with held-out positives
    in `part`, "validation" or "test"; a user's train items are not ranked.

    The model must have the split's shape; a mismatch raises ValueError.
    """
    if part not in ("validation", "test"):
        raise ValueError(f"unknown part {part!r}")
    ks = tuple(sorted(set(int(k) for k in ks)))
    if not ks or ks[0] <= 0:
        raise ValueError("cutoffs must be positive")
    if (model.num_users, model.num_items) != (split.num_users, split.num_items):
        raise ValueError(
            f"model shape {model.num_users} users x {model.num_items} items does not "
            f"match the split's {split.num_users} users x {split.num_items} items"
        )
    num_items = split.num_items
    kmax = ks[-1]
    holdout = _pair_keys(getattr(split, part), num_items)
    hold_users = holdout // num_items
    starts = np.flatnonzero(np.diff(hold_users, prepend=-1))
    users = hold_users[starts]  # ascending, as the per-user loop visited them
    num_pos = np.diff(np.append(starts, holdout.size))
    n_users = int(users.size)

    # the training pairs of evaluated users, as (row in users, item): the
    # sorted train keys of users[j] are train[lo[j]:hi[j]]
    train = _pair_keys(split.train, num_items)
    lo, hi = np.searchsorted(train, [users * num_items, (users + 1) * num_items])
    excl_row = np.repeat(np.arange(n_users), hi - lo)
    first = np.cumsum(hi - lo) - (hi - lo)  # each row's first position in excl
    excl = train[lo[excl_row] + np.arange(excl_row.size) - first[excl_row]]

    top = _top_items(model, users, excl_row, excl % num_items, kmax)
    # holdout is sorted and, when there are users to rank, not empty
    keys = users[:, None] * num_items + top
    hits = (holdout.take(np.searchsorted(holdout, keys), mode="clip") == keys) & (top >= 0)

    # the per-user helpers' float expressions, term for term: recall is an int
    # ratio, DCG the np.sum of 1/log2(rank + 1) over hits (a sequential sum
    # below PAIRWISE_TERMS terms), IDCG the same sum over min(k, |P|) slots
    gain_of_rank = 1.0 / np.log2(np.arange(1, kmax + 1) + 1.0)
    gains = np.where(hits, gain_of_rank, 0.0)
    dcg_prefix = np.cumsum(gains, axis=1)
    hit_prefix = np.cumsum(hits, axis=1)
    idcg_table = np.array([0.0] + [
        float(np.sum(1.0 / np.log2(np.arange(1, m + 1) + 1.0)))
        for m in range(1, min(kmax, num_pos.max(initial=0)) + 1)
    ])

    aggregates, columns = {}, {"user": users.tolist(), "num_pos": num_pos.tolist()}
    for k in ks:
        nhits = hit_prefix[:, k - 1]
        recall = nhits / num_pos
        dcg = dcg_prefix[:, k - 1].copy()
        for j in np.flatnonzero(nhits >= PAIRWISE_TERMS):
            dcg[j] = np.sum(gain_of_rank[:k][hits[j, :k]])
        ndcg = dcg / idcg_table[np.minimum(k, num_pos)]
        aggregates[k] = {
            "recall": _sequential_mean(recall, n_users),
            "ndcg": _sequential_mean(ndcg, n_users),
        }
        columns[f"recall@{k}"] = recall.tolist()
        columns[f"ndcg@{k}"] = ndcg.tolist()
    records = None
    if per_user:
        names = list(columns)
        records = [dict(zip(names, values)) for values in zip(*columns.values())]
    return EvalReport(ks=ks, aggregates=aggregates, users_evaluated=n_users, per_user=records)


def margin_surrogate(model: EmbeddingModel, user: int, item: int) -> float:
    """Smooth rank surrogate 1 / (1 + sum_q exp(s_uq - s_up)) in (0, 1).

    The sum runs over every other item; computed through logsumexp so large
    score gaps cannot overflow. An item outside [0, num_items) raises
    IndexError.
    """
    check_index("item", item, model.num_items)
    scores = model.score_all(user)
    diffs = np.delete(scores - scores[item], item)
    return float(np.exp(-logsumexp(np.r_[0.0, diffs])))
