"""Shared fixtures and independent oracles for the test suite.

The oracles here recompute expected values from first principles (plain
Python loops, tuple sorts, extended precision) so the vectorized library
code is checked against genuinely separate arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from driftrec.data import InteractionLog, build_log, parse_log, timestamp_split
from driftrec.decay import DecaySpec, WeightedBipartiteGraph
from driftrec.metrics import ndcg_at_k, rank_items, recall_at_k
from driftrec.models import propagate_matrix
from driftrec.samplers import REJECTION_ROUNDS
from driftrec.synthetic import SyntheticSpec, generate
from driftrec.training import bpr_loss


# --------------------------------------------------------------------------
# fixture data


def make_log(rows):
    """InteractionLog from (user_key, item_key, timestamp) tuples, written as TSV and parsed."""
    return build_log(parse_log("".join(f"{u}\t{i}\t{int(t)}\n" for u, i, t in rows).encode()))


def log_triples(log):
    """A log's interactions as (user, item, timestamp) tuples, in stored order."""
    return list(zip(log.users.tolist(), log.items.tolist(), log.times.tolist()))


def pair_weight_lookup(graph):
    """A weighted graph's recency weights keyed by (user, item)."""
    return {
        (u, i): w
        for u, i, w in zip(graph.users.tolist(), graph.items.tolist(), graph.weights.tolist())
    }


@pytest.fixture
def line_log():
    """10 interactions at timestamps 1..10, one user-item pair each."""
    rows = [(f"u{j % 3}", f"i{j}", j + 1) for j in range(10)]
    return make_log(rows)


@pytest.fixture(scope="session")
def drift_split():
    """Moderate synthetic drift dataset split, shared across tests."""
    log = generate(SyntheticSpec(num_users=60, num_items=90, num_events=3000, seed=11))
    return timestamp_split(log)


def random_graph(rng, max_users=20, max_items=30, max_edges=200):
    """Random weighted bipartite graph with weights in (0, 1]."""
    num_users = int(rng.integers(1, max_users + 1))
    num_items = int(rng.integers(1, max_items + 1))
    max_possible = num_users * num_items
    num_edges = int(rng.integers(1, min(max_edges, max_possible) + 1))
    keys = rng.choice(max_possible, size=num_edges, replace=False)
    users = (keys // num_items).astype(np.int64)
    items = (keys % num_items).astype(np.int64)
    weights = rng.uniform(0.0, 1.0, size=num_edges)
    weights[weights == 0.0] = 1.0  # weights live in (0, 1]
    if rng.random() < 0.2:
        weights[rng.integers(0, num_edges)] = 1.0  # exercise the closed top bin
    last = np.full(num_users, -1, dtype=np.int64)
    return WeightedBipartiteGraph(
        users=users,
        items=items,
        weights=weights,
        user_last_time=last,
        num_users=num_users,
        num_items=num_items,
        spec=DecaySpec(),
    )


def log_with_exact_edges(num_edges, num_users, num_items, seed, t_lo=0, t_hi=10_000_000):
    """InteractionLog holding exactly ``num_edges`` distinct pairs."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(num_users * num_items, size=num_edges, replace=False)
    users = (keys // num_items).astype(np.int64)
    items = (keys % num_items).astype(np.int64)
    times = rng.integers(t_lo, t_hi, size=num_edges).astype(np.int64)
    order = np.lexsort((items, users, times))
    return InteractionLog(
        users=users[order],
        items=items[order],
        times=times[order],
        user_vocab={f"u{k}": k for k in range(num_users)},
        item_vocab={f"i{k}": k for k in range(num_items)},
    )


# --------------------------------------------------------------------------
# independent metric oracle (plain Python, tuple sorts, sequential sums)


def oracle_rank(scores, exclude):
    """Full ranking: score descending, index ascending, exclusions dropped."""
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    banned = set(int(e) for e in exclude)
    return [j for j in order if j not in banned]


def oracle_recall(ranked, positives, k):
    pos = set(int(p) for p in positives)
    hits = sum(1 for j in ranked[:k] if j in pos)
    return hits / len(pos)


def oracle_ndcg(ranked, positives, k):
    pos = set(int(p) for p in positives)
    dcg = 0.0
    for rank0, j in enumerate(ranked[:k]):
        if j in pos:
            dcg += 1.0 / math.log2(rank0 + 2)
    idcg = 0.0
    for i in range(1, min(k, len(pos)) + 1):
        idcg += 1.0 / math.log2(i + 1)
    return dcg / idcg


def oracle_evaluate(model, split, ks, part="test"):
    """Per-user metric dict computed from first principles."""
    log = {"validation": split.validation, "test": split.test}[part]
    pos_by_user: dict[int, set] = {}
    for u, i in zip(log.users.tolist(), log.items.tolist()):
        pos_by_user.setdefault(u, set()).add(i)
    train_by_user: dict[int, set] = {}
    for u, i in zip(split.train.users.tolist(), split.train.items.tolist()):
        train_by_user.setdefault(u, set()).add(i)

    per_user = {}
    for u in sorted(pos_by_user):
        scores = [model.score(u, p) for p in range(split.num_items)]
        ranked = oracle_rank(scores, train_by_user.get(u, set()))
        positives = sorted(pos_by_user[u])
        per_user[u] = {
            k: (oracle_recall(ranked, positives, k), oracle_ndcg(ranked, positives, k))
            for k in ks
        }
    return per_user


def oracle_evaluate_loop(model, split, ks, part="test", per_user=True):
    """The per-user evaluation loop that metrics.evaluate replaced.

    One full stable argsort per user through rank_items, recall_at_k /
    ndcg_at_k per cutoff and sequential sums in user order. The blocked
    metrics.evaluate must return (per_user records, aggregates,
    users_evaluated) equal to these with ==, not within a tolerance.
    """
    ks = tuple(sorted(set(int(k) for k in ks)))

    def by_user(log):
        out = {}
        for u, i in zip(log.users.tolist(), log.items.tolist()):
            out.setdefault(u, set()).add(i)
        return {u: np.array(sorted(items), dtype=np.int64) for u, items in out.items()}

    log = {"validation": split.validation, "test": split.test, "train": split.train}[part]
    pos_by_user = by_user(log)
    train_by_user = by_user(split.train) if part != "train" else {}
    sums = {k: {"recall": 0.0, "ndcg": 0.0} for k in ks}
    records = []
    for user in sorted(pos_by_user):
        positives = pos_by_user[user]
        ranked = rank_items(model, user, train_by_user.get(user, np.empty(0, dtype=np.int64)))
        rec = {"user": user, "num_pos": int(positives.size)}
        for k in ks:
            r = recall_at_k(ranked, positives, k)
            n = ndcg_at_k(ranked, positives, k)
            sums[k]["recall"] += r
            sums[k]["ndcg"] += n
            rec[f"recall@{k}"] = r
            rec[f"ndcg@{k}"] = n
        records.append(rec)
    n_users = len(records)
    aggregates = {
        k: {name: (total / n_users if n_users else 0.0) for name, total in sums[k].items()}
        for k in ks
    }
    return (records if per_user else None), aggregates, n_users


# --------------------------------------------------------------------------
# reference training step: dense np.add.at scatters and full-batch rejection
# re-checks. The library's batch_gradients and NegativeSampler must match
# these bit for bit (np.array_equal), not merely within a tolerance.


def oracle_batch_gradients(model, users, pos_items, neg_items, l2, pair_weights=None):
    """(mean loss, grad_user, grad_item) from sequential np.add.at scatters."""
    b = users.shape[0]
    base_u, base_i = model.user_emb, model.item_emb
    score_u, score_i = model.scoring_embeddings()

    ue = score_u[users]
    pe = score_i[pos_items]
    ne = score_i[neg_items]
    margin = np.einsum("ij,ij->i", ue, pe - ne)
    loss_vec, dmargin = bpr_loss(margin)
    if pair_weights is not None:
        loss_vec = loss_vec * pair_weights
        dmargin = dmargin * pair_weights
    coeff = (dmargin / b)[:, None]

    d = model.dim
    if model.backbone == "mf":
        grad_user = np.zeros((model.num_users, d))
        grad_item = np.zeros((model.num_items, d))
        np.add.at(grad_user, users, coeff * (pe - ne))
        np.add.at(grad_item, pos_items, coeff * ue)
        np.add.at(grad_item, neg_items, -coeff * ue)
    else:
        g_stack = np.zeros((model.num_users + model.num_items, d))
        np.add.at(g_stack, users, coeff * (pe - ne))
        np.add.at(g_stack, model.num_users + pos_items, coeff * ue)
        np.add.at(g_stack, model.num_users + neg_items, -coeff * ue)
        g_base = propagate_matrix(model.adjacency, g_stack, model.num_prop_layers)
        grad_user = g_base[: model.num_users]
        grad_item = g_base[model.num_users :]

    reg_rows_u = base_u[users]
    reg_rows_p = base_i[pos_items]
    reg_rows_n = base_i[neg_items]
    np.add.at(grad_user, users, (l2 / b) * reg_rows_u)
    np.add.at(grad_item, pos_items, (l2 / b) * reg_rows_p)
    np.add.at(grad_item, neg_items, (l2 / b) * reg_rows_n)
    reg = 0.5 * l2 * (
        np.einsum("ij,ij->i", reg_rows_u, reg_rows_u)
        + np.einsum("ij,ij->i", reg_rows_p, reg_rows_p)
        + np.einsum("ij,ij->i", reg_rows_n, reg_rows_n)
    )
    return float(np.mean(loss_vec + reg)), grad_user, grad_item


def _oracle_interacted(train, users, items):
    """Train membership by searchsorted over the train log's sorted pair keys,
    independent of the sampler's bitset."""
    keys = np.sort(train.users * np.int64(train.num_items) + train.items)
    query = users * np.int64(train.num_items) + items
    pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return keys[pos] == query


def _oracle_complement(train, user):
    """Ascending items user has no train interaction with, from the train log."""
    return np.setdiff1d(np.arange(train.num_items), train.items[train.users == user])


def _oracle_draw_uniform_valid(sampler, train, users, rng):
    out = rng.integers(0, sampler.num_items, size=users.shape[0])
    bad = _oracle_interacted(train, users, out)
    rounds = 0
    while np.any(bad) and rounds < REJECTION_ROUNDS:
        out[bad] = rng.integers(0, sampler.num_items, size=int(bad.sum()))
        bad = _oracle_interacted(train, users, out)
        rounds += 1
    for idx in np.nonzero(bad)[0]:
        comp = _oracle_complement(train, users[idx])
        out[idx] = comp[rng.integers(0, comp.size)]
    return out


def _oracle_draw_popularity_valid(sampler, train, users, rng):
    total = sampler._pop_cumsum[-1]
    size = users.shape[0]
    if total > 0:
        out = np.searchsorted(sampler._pop_cumsum, rng.random(size) * total, side="right")
        bad = _oracle_interacted(train, users, out)
        rounds = 0
        while np.any(bad) and rounds < REJECTION_ROUNDS:
            nbad = int(bad.sum())
            out[bad] = np.searchsorted(
                sampler._pop_cumsum, rng.random(nbad) * total, side="right"
            )
            bad = _oracle_interacted(train, users, out)
            rounds += 1
    else:
        out = np.zeros(size, dtype=np.int64)
        bad = np.ones(size, dtype=bool)
    for idx in np.nonzero(bad)[0]:
        comp = _oracle_complement(train, users[idx])
        w = sampler._pop_weights[comp]
        tot = w.sum()
        if tot > 0:
            out[idx] = comp[np.searchsorted(np.cumsum(w), rng.random() * tot, side="right")]
        else:
            out[idx] = comp[rng.integers(0, comp.size)]
    return out


def oracle_sample_batch(sampler, train, users, model, rng):
    """NegativeSampler.sample_batch with every rejection round re-checking the
    whole batch, and train membership read from the sampler's train log."""
    users = np.asarray(users, dtype=np.int64)
    kind = sampler.spec.kind
    if kind == "rns":
        return _oracle_draw_uniform_valid(sampler, train, users, rng)
    if kind == "pns":
        return _oracle_draw_popularity_valid(sampler, train, users, rng)
    width = sampler.spec.pool if kind == "dns" else sampler.spec.n
    b = users.shape[0]
    cands = _oracle_draw_uniform_valid(sampler, train, np.repeat(users, width),
                                       rng).reshape(b, width)
    score_u, score_i = model.scoring_embeddings()
    scores = np.einsum(
        "ij,ij->i", score_u[np.repeat(users, width)], score_i[cands.ravel()]
    ).reshape(b, width)
    if kind == "dns":
        best = scores.max(axis=1, keepdims=True)
        tied = np.where(scores == best, cands, sampler.num_items)
        return tied.min(axis=1)
    order = np.lexsort((cands, -scores), axis=-1)
    ranks = rng.integers(sampler.spec.m - 1, sampler.spec.n, size=b)
    return cands[np.arange(b), order[np.arange(b), ranks]]
