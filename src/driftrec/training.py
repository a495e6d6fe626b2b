"""Pairwise ranking training loop.

Minimizes -ln sigmoid(s_up - s_un) plus L2 over the positive multiset with
mini-batch Adam or SGD. Negatives are drawn with the model's current parameters
before each update. Given per-pair weights, each pair's loss is scaled by
its weight: the weighted variant trains on the plain (multiplicity one)
edge set with recency weights instead of duplicating pairs. Every run
starts from :func:`init_training`, the one constructor of training state,
and reads the experiment's own ``ExperimentConfig``, already checked.

Parameters, gradients and Adam moments share the model's stacked
[users | items] row space: a batch gathers its rows from it, returns one
stacked gradient, and Adam updates one moment pair.

The loss value is only a report: `fit` computes it on the epochs that
evaluate and record it (every `eval_every`-th), and the gradient step is
the same whether or not it is computed.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import SplitDataset
from .models import EmbeddingModel, build_norm_adjacency, check_index, init_xavier, propagate_matrix
from .positives import PositiveSampleSet
from .samplers import NegativeSampler

if TYPE_CHECKING:  # experiment imports this module
    from .experiment import ExperimentConfig

__all__ = [
    "SGD",
    "AdamState",
    "init_training",
    "train_adjacency",
    "TrainingDiverged",
    "bpr_loss",
    "batch_gradients",
    "train_epoch",
    "fit",
]

OPTIMIZERS = ("adam", "sgd")
EPOCH_MODES = ("full_pass", "pi_sample")


class TrainingDiverged(RuntimeError):
    """Non-finite parameters or candidate scores detected during training."""


class SGD:
    """Plain gradient descent: no moment arrays, the identity preconditioner."""

    probe_label = "identity"

    def step(self, model: EmbeddingModel, grad: np.ndarray, lr: float) -> None:
        """Add -lr * grad to the parameters; consumes `grad`, which holds the update after."""
        grad *= -lr
        model.add_to_params(grad)

    def step_name(self, batch: int) -> str:
        return f"SGD batch {batch} of the epoch"

    def preconditioner(self, rows: list, grad: np.ndarray) -> float:
        return 1.0


class AdamState:
    """First/second moment accumulators shaped like the stacked parameters.

    Every step updates all rows in place. One scratch buffer holds the
    intermediate terms and then the step's divisor, and the update is built
    in the gradient's own buffer, so a step allocates no full-size arrays
    and the state holds three (num_rows, d) arrays. beta1, beta2, eps are fixed.
    """

    probe_label = "adam_diag"
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, num_rows: int, d: int):
        self.step_count = 0
        self.m, self.v = np.zeros((num_rows, d)), np.zeros((num_rows, d))
        self._tmp = np.empty((num_rows, d))

    def _divisor(self, v: np.ndarray, grad: np.ndarray, t: int, out: np.ndarray) -> np.ndarray:
        """v = b2*v + (1-b2)*g^2 in place; `out` = sqrt(v / (1 - b2^t)) + eps, step t's divisor."""
        v *= self.beta2
        v += np.multiply(np.square(grad, out=out), 1.0 - self.beta2, out=out)
        np.divide(v, 1.0 - self.beta2 ** t, out=out)
        np.sqrt(out, out=out)
        return np.add(out, self.eps, out=out)

    def step(self, model: EmbeddingModel, grad: np.ndarray, lr: float) -> None:
        """One Adam step; consumes `grad`, which holds the update after.

        The step's divisor stays in ``_tmp`` until the next step.
        """
        self.step_count += 1
        m, tmp = self.m, self._tmp
        # m = b1*m + (1-b1)*g;  v and the divisor, both read g;  g = -lr * (m / bc1) / divisor
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=tmp)
        divisor = self._divisor(self.v, grad, self.step_count, tmp)
        np.divide(m, 1.0 - self.beta1 ** self.step_count, out=grad)
        grad *= -lr
        grad /= divisor
        model.add_to_params(grad)

    def step_name(self, batch: int) -> str:
        return f"Adam step {self.step_count}"

    def preconditioner(self, rows: list, grad: np.ndarray) -> np.ndarray:
        """1 / the divisor of a next step with `grad` on stacked `rows`; the state is unchanged."""
        return 1.0 / self._divisor(self.v[rows], grad, self.step_count + 1, np.empty_like(grad))


def bpr_loss(margin):
    """Loss -ln sigmoid(margin) and its derivative, numerically stable.

    Uses the softplus identity -ln sigmoid(x) = ln(1 + exp(-x)); the
    derivative is -sigmoid(-margin). Works on scalars and arrays.
    """
    loss = np.logaddexp(0.0, -np.asarray(margin, dtype=np.float64))
    grad = -expit(-np.asarray(margin, dtype=np.float64))
    if np.isscalar(margin) or np.ndim(margin) == 0:
        return float(loss), float(grad)
    return loss, grad


@lru_cache(maxsize=16)
def _csc_indptr(num_cols: int) -> np.ndarray:
    """Read-only int32 CSC indptr of `num_cols` columns, one entry each.
    Cached, since an epoch asks for the same few batch sizes over and over."""
    indptr = np.arange(num_cols + 1, dtype=np.int32)
    indptr.flags.writeable = False
    return indptr


def _scatter_rows(num_rows: int, rows: np.ndarray, scales: np.ndarray,
                  x: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Dense (num_rows, d) sum of scales[k] * x[j] into row rows[k], where
    entry k belongs to column j of the CSC `indptr`.

    One product with a CSC selection matrix whose column j holds the
    entries of gathered row x[j]. A CSC product walks the columns in order,
    and each column's entries in order, adding into a zeroed output, so
    every output row receives its terms in entry order, starting from zero:
    the same float sequence as sequential `np.add.at` calls, with no sort
    by row. The product does not check row indices, so callers pass int32
    rows inside [0, num_rows); int32 indices and indptr also spare the
    constructor its index-dtype scan and copies.
    """
    select = sp.csc_matrix((scales, rows, indptr), shape=(num_rows, x.shape[0]))
    return select @ x


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending int32 distinct values of the row indices `rows` and how
    often each occurs, as ``np.unique(rows, return_counts=True)`` gives
    them, from one bincount instead of a sort."""
    counts = np.bincount(rows)
    distinct = np.flatnonzero(counts).astype(np.int32)
    return distinct, counts[distinct]


def _block_indptr(head: np.ndarray, counts: np.ndarray, num_cols: int) -> np.ndarray:
    """int32 CSC indptr of `num_cols` columns: the columns of the indptr
    `head`, then one column per entry of `counts` holding that many
    entries, then empty columns."""
    indptr = np.empty(num_cols + 1, dtype=np.int32)
    end = head.size + counts.size
    indptr[: head.size] = head
    np.cumsum(counts, out=indptr[head.size : end])
    indptr[head.size : end] += head[-1]
    indptr[end:] = indptr[end - 1]
    return indptr


def batch_gradients(
    model: EmbeddingModel,
    users: np.ndarray,
    pos_items: np.ndarray,
    neg_items: np.ndarray,
    l2: float,
    pair_weights: np.ndarray | None = None,
    loss: bool = True,
):
    """Mean objective over one batch and its dense stacked gradient.

    The objective per pair is w * bpr(margin) + l2/2 * (|e_u|^2 + |e_p|^2 +
    |e_n|^2) with w = 1 unless pair weights are given; regularization always
    acts on the base embeddings. For the propagation backbone the margin
    uses propagated embeddings, and the chain rule reuses the propagation
    operator itself (it is self-adjoint). With ``loss=False`` the objective
    is not computed and None stands in for it; the gradient is the same.
    Returns (objective, gradient), the gradient in the model's stacked
    [users | num_users + items] row space.

    Indices outside [0, num_users) or [0, num_items) raise IndexError,
    checked once up front, so the gathers need no buffered bound check.

    One int32 array [users; U + pos; U + neg] (U = num_users) holds the 3b
    stacked loss rows. The loss terms read the 3b gathered rows [e_p - e_n;
    e_u; e_u] (e_p and e_n are taken into the first and third blocks and
    subtracted in place), scaled by coeff, coeff and -coeff.

    The gradient is one scatter into the n = U + num_items stacked rows
    (:func:`_scatter_rows`), and column order is the order each output row
    adds its terms, starting from zero. Its columns are a head, then a block
    holding the base rows of the batch's distinct loss rows, once each:
    column j carries one l2/b entry per occurrence of its row in the batch.
    MF's head is its 3b loss columns. The propagation backbone scatters
    those columns and propagates the result first, and its head is that
    propagated gradient as n unit-scale columns; MF is the propagation
    backbone without the propagation step. Either way each row adds its
    loss terms in batch order, then one regularization term per occurrence,
    each the same product of the same two floats, so the result is
    bit-identical to a scatter of one base row per occurrence. The block
    has min(3b, n) rows whatever the batch's distinct count, and its unused
    tail columns hold no entries: one buffer size per batch size lets each
    step reuse the heap the last one freed instead of faulting in fresh
    pages.

    The reported loss takes each of the 3b loss rows' squared norm from its
    own base row, gathered again once the scatter's columns are freed.
    """
    num_users, num_items = model.num_users, model.num_items
    check_index("users", users, num_users)
    check_index("pos_items", pos_items, num_items)
    check_index("neg_items", neg_items, num_items)
    b = users.shape[0]
    n = num_users + num_items
    mf = model.backbone == "mf"

    # the scatter's entries: the head's, then one l2/b entry per loss row
    head = 3 * b if mf else n
    rows = np.empty(head + 3 * b, dtype=np.int32)
    scales = np.empty(head + 3 * b)
    # stacked loss rows [users; U + pos; U + neg] and their scales, MF's head
    loss_rows = rows[: 3 * b] if mf else np.empty(3 * b, dtype=np.int32)
    loss_scales = scales[: 3 * b] if mf else np.empty(3 * b)
    loss_rows[:b] = users
    np.add(pos_items, num_users, out=loss_rows[b : 2 * b], casting="unsafe")
    np.add(neg_items, num_users, out=loss_rows[2 * b :], casting="unsafe")
    scoring = model.scoring_params()
    # [e_p - e_n; e_u; e_u], the loss columns, then MF's regularizer block
    block = min(3 * b, n)
    cols = np.empty((3 * b + (block if mf else 0), model.dim))
    diff, ue, ue2 = cols[:b], cols[b : 2 * b], cols[2 * b : 3 * b]
    np.take(scoring, loss_rows[b : 2 * b], axis=0, out=diff, mode="clip")
    np.take(scoring, loss_rows[2 * b :], axis=0, out=ue2, mode="clip")
    diff -= ue2
    np.take(scoring, loss_rows[:b], axis=0, out=ue, mode="clip")
    ue2[...] = ue
    margin = np.einsum("ij,ij->i", ue, diff)
    del diff, ue, ue2
    # d bpr / d margin, the expression bpr_loss uses
    dmargin = -expit(-margin)
    if pair_weights is not None:
        dmargin = dmargin * pair_weights
    coeff = loss_scales[:b]
    np.divide(dmargin, b, out=coeff)
    loss_scales[b : 2 * b] = coeff
    np.negative(coeff, out=loss_scales[2 * b :])

    if not mf:
        g_stack = _scatter_rows(n, loss_rows, loss_scales, cols, _csc_indptr(3 * b))
        # each buffer is freed before the next is allocated: the scoring rows
        # before propagation, the loss gradient before the stacked buffer
        del cols
        propagated = propagate_matrix(model.adjacency, g_stack, model.num_prop_layers)
        del g_stack
        # [propagated gradient; regularizer block], the propagated rows
        # scattered as an identity so the regularizer adds after them
        cols = np.empty((n + block, model.dim))
        cols[:n] = propagated
        del propagated
        rows[:n] = np.arange(n)
        scales[:n] = 1.0
    distinct, counts = _distinct_rows(loss_rows)
    np.take(model.params, distinct, axis=0, out=cols[head : head + distinct.size], mode="clip")
    rows[head:] = np.repeat(distinct, counts)
    scales[head:] = l2 / b
    grad = _scatter_rows(
        n, rows, scales, cols, _block_indptr(_csc_indptr(head), counts, head + block)
    )
    if not loss:
        return None, grad
    del cols  # freed before the loss report gathers its 3b base rows

    loss_vec, _ = bpr_loss(margin)
    if pair_weights is not None:
        loss_vec = loss_vec * pair_weights
    # squared norms of the base rows of each pair's user, positive and negative
    occ = model.params[loss_rows]
    sq_u, sq_p, sq_n = np.split(np.einsum("ij,ij->i", occ, occ), 3)
    reg = 0.5 * l2 * (sq_u + sq_p + sq_n)
    return float(np.mean(loss_vec + reg)), grad


def train_adjacency(split: SplitDataset) -> sp.csc_matrix:
    """The normalized adjacency of `split`'s train interactions, the
    propagation backbone's graph."""
    return build_norm_adjacency(
        split.train.users, split.train.items, split.num_users, split.num_items
    )


def init_training(
    split: SplitDataset, config: ExperimentConfig
) -> tuple[EmbeddingModel, SGD | AdamState, NegativeSampler, np.random.Generator]:
    """(model, optimizer, negative sampler, rng) that a run on `split` starts from.

    The run's seed is ``config.seeds[0]``; a config with several seeds
    trains its first. The model is Xavier-initialized from the seed, with
    the normalized train adjacency for the propagation backbone; the
    optimizer is a zero-moment :class:`AdamState` for ``optimizer: adam``,
    else :class:`SGD`; the sampler follows ``config.sampler_spec()``; the
    rng is seeded [seed, 1].
    """
    seed = config.seeds[0]
    adjacency = train_adjacency(split) if config.backbone == "lightgcn" else None
    model = init_xavier(split.num_users, split.num_items, config.d, seed,
                        backbone=config.backbone, num_prop_layers=config.prop_layers,
                        adjacency=adjacency)
    optimizer = (AdamState(model.num_users + model.num_items, model.dim)
                 if config.optimizer == "adam" else SGD())
    sampler = NegativeSampler(config.sampler_spec(), split.train)
    return model, optimizer, sampler, np.random.default_rng([seed, 1])


def train_epoch(
    model: EmbeddingModel,
    pss: PositiveSampleSet,
    config: ExperimentConfig,
    optimizer: SGD | AdamState,
    split: SplitDataset,
    rng: np.random.Generator,
    sampler: NegativeSampler,
    pair_weights: np.ndarray | None = None,
    loss: bool = True,
) -> dict:
    """One pass over the positive multiset in shuffled mini-batches.

    Raises :class:`TrainingDiverged` at the first optimizer step that
    leaves a non-finite parameter, named by the optimizer, or at the first
    batch whose dns candidate scores are NaN (finite parameters whose
    scores overflow; the sampler then picks ``num_items``); no batch trains
    after it.

    The record holds the epoch's mean loss, the number of pairs trained,
    the multiset rows trained in order ("rows"; a row drawn twice appears
    twice) and the wall time. The loss is computed only with ``loss=True``;
    otherwise it is None. Parameters and rng draws do not depend on it.
    """
    if len(pss) == 0:
        raise ValueError("empty positive sample set")

    if config.epoch_mode == "full_pass":
        order = rng.permutation(len(pss))
    else:
        # fixed-|E| i.i.d. draws from the training distribution; uniform
        # indices into the multiset realize pair probabilities m/|set|
        order = rng.integers(0, len(pss), size=len(split.train))

    t0 = time.perf_counter()
    total_loss = 0.0
    seen = 0
    for batch, start in enumerate(range(0, order.shape[0], config.batch_size), start=1):
        idx = order[start : start + config.batch_size]
        users = pss.users[idx]
        pos = pss.items[idx]
        negs = sampler.sample_batch(users, model, rng)
        if negs.max() >= model.num_items:
            raise TrainingDiverged(f"non-finite candidate scores in batch {batch} of the epoch")
        w = pair_weights[idx] if pair_weights is not None else None
        batch_loss, grad = batch_gradients(model, users, pos, negs, config.l2, w, loss=loss)
        optimizer.step(model, grad, config.lr)
        if not np.isfinite(model.params).all():
            raise TrainingDiverged(f"non-finite parameters after {optimizer.step_name(batch)}")
        if loss:
            total_loss += batch_loss * idx.shape[0]
        seen += idx.shape[0]

    return {
        "loss": total_loss / seen if loss else None,
        "pairs": seen,
        "rows": order,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    }


def fit(
    split: SplitDataset,
    config: ExperimentConfig,
    pss: PositiveSampleSet,
    pair_weights: np.ndarray | None = None,
    ks: tuple[int, ...] = (20, 30),
    metrics_path: str | None = None,
    checkpoint_path: str | None = None,
):
    """Train on `pss` for the configured epoch budget; keep the best-validation model.

    Training starts from :func:`init_training`, so it trains the config's
    first seed. Validation reports the cutoffs `ks` (callers pass
    ``config.ks``), and selection is by validation recall at the smallest;
    the model's ``best_epoch`` is the selected epoch, or None when no
    validation pass ran. Returns (best model, history), where history holds
    one record per evaluation epoch.
    When a metrics path is given, the file is rewritten for this run with
    one line-delimited record per evaluation; when a checkpoint path is
    given, the file is rewritten on every validation improvement, or with
    the final model when no validation pass ran: it holds the returned model.
    """
    # imported per call, not with the module: perfbench's tracer wraps metrics.evaluate
    # and models.save_checkpoint, and fit's validation and checkpoint calls must reach it
    from .metrics import evaluate
    from .models import save_checkpoint

    model, optimizer, sampler, rng = init_training(split, config)

    select_k = min(ks)
    history: list[dict] = []
    best = None
    best_recall = -1.0
    metrics_file = open(metrics_path, "w") if metrics_path else None
    try:
        for epoch in range(1, config.epochs + 1):
            reporting = epoch % config.eval_every == 0
            stats = train_epoch(
                model, pss, config, optimizer, split, rng, sampler,
                pair_weights=pair_weights, loss=reporting,
            )
            # a multiset-sized order: free it before the next epoch draws its own
            del stats["rows"]
            if not reporting:
                continue
            record = {"epoch": epoch, "loss": stats["loss"]}
            if len(split.validation) > 0:
                report = evaluate(model, split, ks=ks, part="validation", per_user=False)
                for k in ks:
                    record[f"recall@{k}"] = report.aggregates[k]["recall"]
                    record[f"ndcg@{k}"] = report.aggregates[k]["ndcg"]
                if record[f"recall@{select_k}"] > best_recall:
                    best_recall = record[f"recall@{select_k}"]
                    best = (model.params.copy(), epoch)
                    if checkpoint_path:
                        save_checkpoint(model, checkpoint_path)
            history.append(record)
            if metrics_file:
                metrics_file.write(
                    json.dumps({**record, "wall_ms": stats["wall_ms"]}) + "\n"
                )
                metrics_file.flush()
    finally:
        if metrics_file:
            metrics_file.close()

    if best is not None:
        model.set_params(best[0])
        model.best_epoch = best[1]
    elif checkpoint_path:
        save_checkpoint(model, checkpoint_path)
    return model, history


def config_with(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    return replace(config, **overrides)
