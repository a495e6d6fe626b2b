"""Release acceptance gate: one test per criterion, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` — the PASSED/FAILED column
is the checklist. Each test also prints the measured values next to its
stated tolerance (visible with ``-s`` or in the failure report).

The long-running criteria live here by design: the drift study (criterion
9) trains twenty small models and takes a couple of minutes; the LastFM
reproduction (criterion 10) needs a user-supplied dataset and is skipped
unless ``DRIFTREC_LASTFM`` points at the interaction TSV (see README for
the download recipe).
"""

from __future__ import annotations

import calendar
import math
import os
import time
import warnings

import mpmath
import numpy as np
import pytest

from conftest import log_with_exact_edges, oracle_evaluate, random_graph
from driftrec.data import InteractionLog, SplitDataset, timestamp_split
from driftrec.decay import DecaySpec, build_weighted_graph, decay_weight
from driftrec.experiment import ExperimentConfig, run
from driftrec.metrics import evaluate, margin_surrogate, ndcg_at_k, rank_items
from driftrec.models import EmbeddingModel, build_norm_adjacency, init_xavier
from driftrec.positives import build_pss, filtrate
from driftrec.probes import count_updates, probe_one_step
from driftrec.synthetic import SyntheticSpec, generate
from driftrec.training import batch_gradients

mpmath.mp.dps = 50


# --------------------------------------------------------------------------
# shared scaffolding


def disjoint_pair_split(num_pairs: int, num_users: int, num_items: int, seed: int,
                        holdout: int = 4) -> SplitDataset:
    """Split of a distinct-pair log: train/holdout pairs never overlap."""
    full = log_with_exact_edges(num_pairs + holdout, num_users, num_items, seed)

    def sub(lo, hi):
        return InteractionLog(
            users=full.users[lo:hi],
            items=full.items[lo:hi],
            times=full.times[lo:hi],
            user_vocab=full.user_vocab,
            item_vocab=full.item_vocab,
        )

    half = holdout // 2
    return SplitDataset(
        train=sub(0, num_pairs),
        validation=sub(num_pairs, num_pairs + half),
        test=sub(num_pairs + half, num_pairs + holdout),
        cutting_timestamp=int(full.times[num_pairs]),
        num_users=num_users,
        num_items=num_items,
    )


def flat_projection(model, users, pos, negs, direction, l2=0.0):
    """Batch-mean gradient projected onto a fixed direction vector."""
    _, grad = batch_gradients(
        model,
        np.asarray(users, dtype=np.int64),
        np.asarray(pos, dtype=np.int64),
        np.asarray(negs, dtype=np.int64),
        l2=l2,
    )
    return float(grad.ravel() @ direction)


def finite_difference_grads(model, users, pos, negs, l2, pair_weights=None,
                            pert=1e-5):
    """Central differences of the batch objective, one coordinate at a time."""

    def loss_at(ue, ie):
        probe = EmbeddingModel(
            ue,
            ie,
            backbone=model.backbone,
            num_prop_layers=model.num_prop_layers,
            adjacency=model.adjacency,
        )
        loss, _ = batch_gradients(probe, users, pos, negs, l2, pair_weights)
        return loss

    ue0, ie0 = model.user_emb.copy(), model.item_emb.copy()
    grads = (np.zeros_like(ue0), np.zeros_like(ie0))
    for mat, grad in zip((ue0, ie0), grads):
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = mat[idx]
            mat[idx] = orig + pert
            hi = loss_at(ue0, ie0)
            mat[idx] = orig - pert
            lo = loss_at(ue0, ie0)
            mat[idx] = orig
            grad[idx] = (hi - lo) / (2.0 * pert)
    return grads


def max_rel_error(analytic, fd):
    denom = np.maximum(np.abs(analytic) + np.abs(fd), 1e-8)
    return float(np.max(np.abs(analytic - fd) / denom))


def random_model(rng, num_items, d, quantized=False):
    if quantized:
        ue = rng.integers(-2, 3, size=(1, d)).astype(np.float64)
        ie = rng.integers(-2, 3, size=(num_items, d)).astype(np.float64)
    else:
        scale = rng.uniform(0.2, 3.0)
        ue = rng.normal(size=(1, d)) * scale
        ie = rng.normal(size=(num_items, d)) * scale
    return EmbeddingModel(ue, ie)


# --------------------------------------------------------------------------
# criterion 1 — filtration partition property


def test_criterion_01_filtration_partition():
    """Layers partition the edge set exactly on 100 random graphs (< 5 s)."""
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    checked = 0
    largest = 0
    for trial in range(100):
        if trial == 0:  # one graph at the full 10^4-edge size
            from driftrec.decay import WeightedBipartiteGraph

            keys = rng.choice(140 * 160, size=10_000, replace=False)
            graph = WeightedBipartiteGraph(
                users=(keys // 160).astype(np.int64),
                items=(keys % 160).astype(np.int64),
                weights=rng.uniform(1e-12, 1.0, size=10_000),
                user_last_time=np.full(140, -1, dtype=np.int64),
                num_users=140,
                num_items=160,
                spec=DecaySpec(),
            )
        else:
            max_edges = 10_000 if trial % 10 == 0 else 1_500
            graph = random_graph(rng, max_users=140, max_items=160,
                                 max_edges=max_edges)
        n = int(rng.integers(1, 7))
        mode = "unit_interval" if trial % 2 == 0 else "data_range"
        with warnings.catch_warnings():
            # single-edge graphs legitimately trigger the documented
            # degenerate data_range warning; the partition must still hold
            warnings.simplefilter("ignore", UserWarning)
            layered = filtrate(graph, n, range_mode=mode)
        chunks = [layered.layer_edge_indices(layer) for layer in range(1, n + 1)]
        union = np.concatenate(chunks)
        # pairwise disjoint and exhaustive <=> sorted union == arange(E)
        assert union.size == graph.num_edges
        assert np.array_equal(np.sort(union), np.arange(graph.num_edges))
        checked += 1
        largest = max(largest, graph.num_edges)
    wall = time.perf_counter() - t0
    assert wall < 5.0
    print(
        f"criterion 1 PASS: exact partition on {checked} random graphs "
        f"(largest {largest} edges, n in 1..6, both range modes) in {wall:.2f}s "
        f"(limit 5s, zero tolerance)"
    )


# --------------------------------------------------------------------------
# criterion 2 — PSS multiplicity equals the layer index


def test_criterion_02_pss_multiplicity():
    """Every surviving pair appears exactly layer-index times; n=1 degenerates."""
    rng = np.random.default_rng(77)
    pairs_checked = 0
    for _ in range(40):
        graph = random_graph(rng, max_users=25, max_items=35, max_edges=300)
        n = int(rng.integers(1, 6))
        layered = filtrate(graph, n)
        pss = build_pss(layered)
        label_of = {}
        for idx, layer in zip(range(graph.num_edges), layered.labels.tolist()):
            label_of[(int(graph.users[idx]), int(graph.items[idx]))] = layer
        records = pss.audit_records()
        assert len(records) == graph.num_edges
        for rec in records:
            assert rec["multiplicity"] == rec["layer"]  # exact, zero tolerance
            assert rec["layer"] == label_of[(rec["user_index"], rec["item_index"])]
        pairs_checked += len(records)
        assert len(pss) == sum(rec["layer"] for rec in records)

    # n=1 degeneration: the multiset IS the train edge list, order included
    split = disjoint_pair_split(60, 12, 15, seed=5)
    graph = build_weighted_graph(split.train, DecaySpec(kind="exponential", rate=0.02))
    pss = build_pss(filtrate(graph, 1))
    assert np.array_equal(pss.users, graph.users)
    assert np.array_equal(pss.items, graph.items)
    assert np.all(pss.layers == 1)
    print(
        f"criterion 2 PASS: multiplicity == layer for {pairs_checked} pairs over "
        f"40 random layered graphs (exact); n=1 multiset equals the 60-edge "
        f"train set exactly"
    )


# --------------------------------------------------------------------------
# criterion 3 — pi normalization and reweighting equivalence


def test_criterion_03_pi_normalization_and_reweighting():
    """Sum pi = 1 within 1e-12; MC pi-weighted gradient within 2 SE of full pass."""
    # normalization across random layered instances
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(30):
        graph = random_graph(rng, max_users=20, max_items=30, max_edges=250)
        pss = build_pss(filtrate(graph, int(rng.integers(1, 5))))
        worst = max(worst, abs(sum(pss.pi().values()) - 1.0))
    assert worst <= 1e-12

    # 50-distinct-pair instance with mixed layers
    split = disjoint_pair_split(50, 9, 12, seed=7)
    graph = build_weighted_graph(split.train, DecaySpec(kind="exponential", rate=0.02))
    pss = build_pss(filtrate(graph, 3))
    pi = pss.pi()
    pairs = sorted(pi)
    assert len(pairs) == 50
    assert abs(sum(pi.values()) - 1.0) <= 1e-12

    model = init_xavier(9, 12, 8, seed=3)
    rng = np.random.default_rng(99)
    train_items = {u: set() for u in range(9)}
    for u, i in zip(split.train.users.tolist(), split.train.items.tolist()):
        train_items[u].add(i)
    neg_of = {}
    for u, p in pairs:
        candidates = [j for j in range(12) if j not in train_items[u]]
        assert candidates
        neg_of[(u, p)] = int(rng.choice(candidates))
    direction = rng.normal(size=model.user_emb.size + model.item_emb.size)
    direction /= np.linalg.norm(direction)

    per_pair = np.array(
        [flat_projection(model, [u], [p], [neg_of[(u, p)]], direction)
         for u, p in pairs]
    )
    pi_arr = np.array([pi[q] for q in pairs])
    negs_full = np.array([neg_of[(int(u), int(p))]
                          for u, p in zip(pss.users, pss.items)])
    full_pass = flat_projection(model, pss.users, pss.items, negs_full, direction)
    # internal consistency: the full-pass batch mean IS the pi-weighted mean
    assert abs(full_pass - float(pi_arr @ per_pair)) <= 1e-12 * abs(full_pass)

    mc_rng = np.random.default_rng(2026)
    draws = mc_rng.choice(len(pairs), size=100_000, p=pi_arr)
    samples = per_pair[draws]
    mc_mean = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    assert abs(mc_mean - full_pass) <= 2.0 * se
    print(
        f"criterion 3 PASS: max |sum pi - 1| = {worst:.2e} (tol 1e-12) over 30 "
        f"instances; MC gradient {mc_mean:.6f} vs full pass {full_pass:.6f}, "
        f"|diff| {abs(mc_mean - full_pass):.2e} <= 2 SE = {2 * se:.2e} "
        f"(100k draws, 50-pair instance)"
    )


# --------------------------------------------------------------------------
# criterion 4 — closed-form decay vs high-precision evaluation


def test_criterion_04_decay_closed_form():
    """exp(-rate*gap) matches a 50-digit oracle within 1e-12 relative error."""
    gaps_days = np.unique(np.concatenate([
        np.array([0.0, 0.5, 1.0, 7.0, 30.0, 365.0, 1e4]),
        np.linspace(0.0, 1e4, 29),
        np.random.default_rng(4).uniform(0.0, 1e4, 20),
    ]))
    checked = 0
    skipped_underflow = 0
    worst = 0.0
    for rate in (0.001, 0.005, 0.01, 0.05, 0.1):
        spec = DecaySpec(kind="exponential", rate=rate)
        for days in gaps_days:
            gap_seconds = days * 86400.0
            got = decay_weight(gap_seconds, spec)
            want = mpmath.e ** (-mpmath.mpf(rate) * (mpmath.mpf(gap_seconds) / 86400))
            if want < mpmath.mpf("1e-290"):
                # below ~1e-290 the true value sits in (or under) the
                # subnormal range where relative error is meaningless;
                # require the implementation to agree it is negligible
                assert got <= 1e-290
                skipped_underflow += 1
                continue
            rel = abs(mpmath.mpf(got) - want) / want
            worst = max(worst, float(rel))
            checked += 1
    assert worst <= 1e-12
    print(
        f"criterion 4 PASS: {checked} (rate, gap) points within "
        f"{worst:.2e} relative of the 50-digit oracle (tol 1e-12); "
        f"{skipped_underflow} points below the 1e-290 underflow floor "
        f"checked as negligible"
    )


# --------------------------------------------------------------------------
# criterion 5 — analytic gradients vs central finite differences


def test_criterion_05_gradient_check():
    """Analytic BPR+L2 gradients within 1e-5 relative of central differences."""
    rng = np.random.default_rng(50)
    batch = 12
    users = rng.integers(0, 6, size=batch)
    pos = rng.integers(0, 8, size=batch)
    negs = (pos + 1 + rng.integers(0, 7, size=batch)) % 8
    worst_by_case = {}

    for case, weights in (("mf", None), ("mf_weighted", rng.uniform(0.5, 2.0, batch))):
        model = EmbeddingModel(rng.normal(size=(6, 8)) * 0.4,
                               rng.normal(size=(8, 8)) * 0.4)
        _, grad = batch_gradients(model, users, pos, negs, l2=0.01,
                                  pair_weights=weights)
        gu, gi = grad[:6], grad[6:]
        fu, fi = finite_difference_grads(model, users, pos, negs, l2=0.01,
                                         pair_weights=weights)
        worst_by_case[case] = max(max_rel_error(gu, fu), max_rel_error(gi, fi))

    edge_users = np.array([0, 0, 1, 2, 3])
    edge_items = np.array([0, 1, 1, 2, 4])
    adjacency = build_norm_adjacency(edge_users, edge_items, 5, 6)
    g_users = rng.integers(0, 5, size=batch)
    g_pos = rng.integers(0, 6, size=batch)
    g_negs = (g_pos + 1 + rng.integers(0, 5, size=batch)) % 6
    for num_layers in (1, 2, 3):
        model = EmbeddingModel(rng.normal(size=(5, 4)) * 0.4,
                               rng.normal(size=(6, 4)) * 0.4,
                               backbone="lightgcn",
                               num_prop_layers=num_layers,
                               adjacency=adjacency)
        _, grad = batch_gradients(model, g_users, g_pos, g_negs, l2=0.003)
        gu, gi = grad[:5], grad[5:]
        fu, fi = finite_difference_grads(model, g_users, g_pos, g_negs, l2=0.003)
        worst_by_case[f"lightgcn_L{num_layers}"] = max(
            max_rel_error(gu, fu), max_rel_error(gi, fi)
        )

    assert all(err < 1e-5 for err in worst_by_case.values())
    summary = ", ".join(f"{k} {v:.1e}" for k, v in worst_by_case.items())
    print(
        f"criterion 5 PASS: max relative error vs central differences "
        f"(perturbation 1e-5, tol 1e-5): {summary}"
    )


# --------------------------------------------------------------------------
# criterion 6 — metric implementation vs brute-force oracle


def test_criterion_06_metric_oracle():
    """evaluate() equals the plain-Python oracle exactly on 200 instances."""
    rng = np.random.default_rng(66)
    ks = (1, 5, 20)
    users_compared = 0
    for trial in range(200):
        num_users = int(rng.integers(1, 21))
        num_items = int(rng.integers(2, 51))
        d = int(rng.integers(2, 7))
        quantized = trial % 3 == 0  # integer scores force ties
        if quantized:
            ue = rng.integers(-2, 3, size=(num_users, d)).astype(np.float64)
            ie = rng.integers(-2, 3, size=(num_items, d)).astype(np.float64)
        else:
            ue = rng.normal(size=(num_users, d))
            ie = rng.normal(size=(num_items, d))
        model = EmbeddingModel(ue, ie)

        def random_log(max_events):
            count = int(rng.integers(1, max_events + 1))
            return InteractionLog(
                users=rng.integers(0, num_users, size=count).astype(np.int64),
                items=rng.integers(0, num_items, size=count).astype(np.int64),
                times=np.arange(count, dtype=np.int64),
                user_vocab={f"u{k}": k for k in range(num_users)},
                item_vocab={f"i{k}": k for k in range(num_items)},
            )

        split = SplitDataset(
            train=random_log(3 * num_users),
            validation=random_log(num_users),
            test=random_log(2 * num_users),
            cutting_timestamp=0,
            num_users=num_users,
            num_items=num_items,
        )
        report = evaluate(model, split, ks=ks, part="test", per_user=True)
        want = oracle_evaluate(model, split, ks, part="test")
        assert report.users_evaluated == len(want)
        sums = {k: [0.0, 0.0] for k in ks}
        for rec in report.per_user:
            u = rec["user"]
            for k in ks:
                recall, ndcg = want[u][k]
                assert rec[f"recall@{k}"] == recall  # exact
                assert rec[f"ndcg@{k}"] == ndcg  # exact
                sums[k][0] += recall
                sums[k][1] += ndcg
        for k in ks:
            n = len(want)
            assert report.aggregates[k]["recall"] == sums[k][0] / n
            assert report.aggregates[k]["ndcg"] == sums[k][1] / n
        users_compared += len(want)
    print(
        f"criterion 6 PASS: recall/NDCG equal the brute-force oracle exactly "
        f"(same tie rule) for {users_compared} users across 200 random "
        f"instances, k in {ks}"
    )


# --------------------------------------------------------------------------
# criterion 7 — NDCG lower bound (smooth-rank surrogate)


def test_criterion_07_ndcg_lower_bound():
    """Zero bound violations over 10^4 random (model, user) draws."""
    rng = np.random.default_rng(424242)
    violations = 0
    min_slack = np.inf
    for _ in range(10_000):
        num_items = int(rng.integers(5, 31))
        d = int(rng.integers(2, 9))
        model = random_model(rng, num_items, d, quantized=rng.random() < 0.25)
        num_pos = int(rng.integers(1, min(6, num_items) + 1))
        positives = rng.choice(num_items, size=num_pos, replace=False)
        k = int(rng.choice([1, 3, 5, 10, 20]))

        ranked = rank_items(model, 0, np.empty(0, dtype=np.int64))
        ndcg = ndcg_at_k(ranked, positives, k)
        rank_of = {int(j): r + 1 for r, j in enumerate(ranked.tolist())}
        z_k = sum(1.0 / math.log2(i + 1) for i in range(1, min(k, num_pos) + 1))
        bound = sum(
            margin_surrogate(model, 0, int(p))
            for p in positives
            if rank_of[int(p)] <= k
        ) / z_k
        slack = ndcg - bound
        min_slack = min(min_slack, slack)
        if bound > ndcg + 1e-12:
            violations += 1
    assert violations == 0
    print(
        f"criterion 7 PASS: 0 violations of NDCG@k >= surrogate bound over "
        f"10000 draws (tol 1e-12); minimum slack {min_slack:.3e}"
    )


# --------------------------------------------------------------------------
# criterion 8 — one-step margin probes and exact update counts


def test_criterion_08_margin_probes():
    """Identity probes strictly raise margins; residual scales as eta^2;
    update counts equal multiplicity x epochs exactly."""
    # (a) strict margin increase whenever the margin gradient is nonzero
    rng = np.random.default_rng(88)
    increases = 0
    probes = 0
    for _ in range(1000):
        model = init_xavier(6, 9, 8, seed=int(rng.integers(0, 2**31)))
        user = int(rng.integers(0, 6))
        p, n = rng.choice(9, size=2, replace=False)
        eta = 10.0 ** rng.uniform(-5, -3)
        probe = probe_one_step(model, user, int(p), int(n), eta)
        if probe.grad_norm_sq == 0.0:
            continue
        probes += 1
        increases += probe.margin_after > probe.margin_before
    assert probes >= 990
    assert increases == probes  # 100% strict increase

    # (b) residual/eta^2 stays within a 10x band across three etas
    etas = (1e-2, 1e-3, 1e-4)
    spread = 0.0
    pairs_used = 0
    for k in range(40):
        model = init_xavier(5, 8, 8, seed=1000 + k)
        user, p, n = k % 5, (k * 3) % 8, (k * 3 + 1) % 8
        if abs(probe_one_step(model, user, p, n, 1e-3).margin_before) < 0.05:
            continue
        ratios = [abs(probe_one_step(model, user, p, n, eta).residual) / eta**2
                  for eta in etas]
        assert min(ratios) > 0.0
        spread = max(spread, max(ratios) / min(ratios))
        pairs_used += 1
    assert pairs_used >= 15
    assert spread <= 10.0

    # (c) instrumented epoch counts: every pair updated multiplicity x epochs
    split = disjoint_pair_split(50, 9, 12, seed=7)
    graph = build_weighted_graph(split.train, DecaySpec(kind="exponential", rate=0.02))
    pss = build_pss(filtrate(graph, 3))
    config = ExperimentConfig(lr=0.01, batch_size=16, epochs=3, d=8, seeds=(0,))
    counter = count_updates(split, pss, config, epochs=3)
    assert counter == {pair: 3 * m for pair, m in pss.multiplicity().items()}
    print(
        f"criterion 8 PASS: {increases}/{probes} strict margin increases "
        f"(eta <= 1e-3, identity preconditioner); residual/eta^2 spread "
        f"{spread:.6f}x across eta in {etas} over {pairs_used} pairs "
        f"(limit 10x); update counts == multiplicity x 3 epochs exactly "
        f"for {len(counter)} pairs"
    )


# --------------------------------------------------------------------------
# criterion 9 — synthetic drift study


def drift_recalls(drift_strength, variant, seeds):
    recalls = []
    for seed in seeds:
        log = generate(SyntheticSpec(num_users=500, num_items=1000,
                                     num_events=40_000,
                                     drift_strength=drift_strength, seed=seed))
        config = ExperimentConfig(
            variant=variant, decay="exponential", rate=0.01, layers=2,
            backbone="mf", d=32, lr=0.01, batch_size=2048, epochs=60,
            eval_every=20, sampler="rns", ks=(20,), seeds=(seed,),
        )
        recalls.append(run(config, log).results[0]["recall@20"])
    return np.array(recalls)


def test_criterion_09_synthetic_drift_study():
    """Layered training beats the n=1 baseline by >= 10% relative Recall@20
    under preference drift and does not degrade without drift (< 10 min)."""
    t0 = time.perf_counter()
    seeds = (0, 1, 2, 3, 4)
    layered = drift_recalls(0.9, "layered", seeds)
    baseline = drift_recalls(0.9, "baseline", seeds)
    relative = (layered.mean() - baseline.mean()) / baseline.mean()

    layered0 = drift_recalls(0.0, "layered", seeds)
    baseline0 = drift_recalls(0.0, "baseline", seeds)
    control_gap = layered0.mean() - baseline0.mean()
    control_band = 2.0 * baseline0.std(ddof=1)

    wall = time.perf_counter() - t0
    assert relative >= 0.10  # >= 10% relative improvement under drift
    assert control_gap >= -control_band  # no significant no-drift degradation
    assert wall < 600.0
    print(
        f"criterion 9 PASS: drift 0.9 Recall@20 layered "
        f"{layered.mean():.4f}+-{layered.std(ddof=1):.4f} vs baseline "
        f"{baseline.mean():.4f}+-{baseline.std(ddof=1):.4f} = "
        f"{relative:+.1%} relative (bar +10%); no-drift control gap "
        f"{control_gap:+.4f} within 2 std band {control_band:.4f}; "
        f"5 seeds, wall {wall:.0f}s (limit 600s)"
    )


# --------------------------------------------------------------------------
# criterion 10 — LastFM directional reproduction (user-supplied dataset)


def test_criterion_10_lastfm_directional():
    """Layered training reaches >= 1.5x the baseline Recall@30 on LastFM."""
    path = os.environ.get("DRIFTREC_LASTFM", "")
    if not path:
        pytest.skip(
            "set DRIFTREC_LASTFM=/path/to/lastfm.tsv (tab-separated "
            "user, item, unix-timestamp rows; recipe in README) to run "
            "the LastFM directional reproduction"
        )
    from driftrec.data import build_log, parse_log
    from driftrec.experiment import build_positives
    from driftrec.training import fit

    t0 = time.perf_counter()
    with open(path) as stream:
        log = build_log(parse_log(stream, format="tsv"))
    cut = calendar.timegm((2010, 7, 31, 0, 0, 0))
    before = int((log.times < cut).sum())
    split = timestamp_split(log, train_fraction=before / len(log))

    scores = {}
    for variant in ("layered", "baseline"):
        config = ExperimentConfig(
            variant=variant, decay="exponential", rate=0.01, layers=2,
            backbone="mf", d=64, lr=0.005, batch_size=2048, epochs=120,
            eval_every=20, sampler="rns", ks=(30,), seeds=(0,),
        )
        pss, weights = build_positives(split, config)
        model, _ = fit(split, config.train_config(0), pss=pss,
                       pair_weights=weights, ks=(30,))
        report = evaluate(model, split, ks=(30,), part="test", per_user=False)
        scores[variant] = report.aggregates[30]["recall"]

    ratio = scores["layered"] / scores["baseline"]
    wall = time.perf_counter() - t0
    assert ratio >= 1.5
    assert wall < 7200.0
    print(
        f"criterion 10 PASS: LastFM Recall@30 layered {scores['layered']:.4f} "
        f"vs baseline {scores['baseline']:.4f} = {ratio:.2f}x (bar 1.5x), "
        f"cut 2010-07-31, wall {wall:.0f}s (limit 2h)"
    )


# --------------------------------------------------------------------------
# criterion 11 — construction scales linearly in the edge count


def construction_seconds(num_edges, seed, reps=7):
    log = log_with_exact_edges(num_edges, 3000, 2000, seed)
    split = timestamp_split(log)
    spec = DecaySpec(kind="exponential", rate=0.02)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        graph = build_weighted_graph(split.train, spec)
        build_pss(filtrate(graph, 3))
        times.append(time.perf_counter() - t0)
    return float(np.median(times))

def test_criterion_11_linear_time_construction():
    """Doubling the edges roughly doubles construction time; 1.25M edges < 120 s."""
    t_small = construction_seconds(100_000, seed=5)
    t_double = construction_seconds(200_000, seed=50)
    ratio = t_double / t_small
    assert 1.4 <= ratio <= 2.6  # 2x +- 30%

    log = log_with_exact_edges(1_250_000, 5000, 2000, seed=7)
    split = timestamp_split(log)
    t0 = time.perf_counter()
    graph = build_weighted_graph(split.train, DecaySpec(kind="exponential", rate=0.02))
    pss = build_pss(filtrate(graph, 3))
    t_large = time.perf_counter() - t0
    assert t_large < 120.0
    print(
        f"criterion 11 PASS: 1e5 edges {t_small * 1e3:.1f} ms vs 2e5 edges "
        f"{t_double * 1e3:.1f} ms, ratio {ratio:.2f} (band 1.4..2.6, medians "
        f"of 7); 1.25M-edge multiset ({len(pss)} rows) built in {t_large:.2f}s "
        f"(limit 120s)"
    )
