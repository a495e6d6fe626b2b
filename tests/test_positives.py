"""Filtration and positive-sample-set construction tests."""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from driftrec.data import timestamp_split
from driftrec.decay import DecaySpec, WeightedBipartiteGraph, build_weighted_graph
from driftrec.positives import (
    LayeredGraph,
    PositiveSampleSet,
    build_pss,
    filtrate,
    recent_k_positives,
    train_positives,
)
from conftest import log_with_exact_edges, make_log, random_graph


def graph_of(weights, users=None, items=None, num_users=None, num_items=None):
    """Graph with hand-picked weights; defaults to one user, distinct items."""
    weights = np.asarray(weights, dtype=np.float64)
    m = weights.shape[0]
    users = np.zeros(m, dtype=np.int64) if users is None else np.asarray(users, dtype=np.int64)
    items = np.arange(m, dtype=np.int64) if items is None else np.asarray(items, dtype=np.int64)
    num_users = int(users.max()) + 1 if num_users is None else num_users
    num_items = int(items.max()) + 1 if num_items is None else num_items
    return WeightedBipartiteGraph(
        users=users,
        items=items,
        weights=weights,
        user_last_time=np.full(num_users, -1, dtype=np.int64),
        num_users=num_users,
        num_items=num_items,
        spec=DecaySpec(),
    )


class TestFiltrate:
    def test_two_layer_example(self):
        layered = filtrate(graph_of([0.3, 0.7, 1.0]), n=2)
        assert layered.thresholds.tolist() == [0.0, 0.5, 1.0]
        assert layered.labels.tolist() == [1, 2, 2]

    def test_single_layer(self):
        layered = filtrate(graph_of([0.1, 0.5, 1.0]), n=1)
        assert layered.labels.tolist() == [1, 1, 1]
        assert layered.thresholds.tolist() == [0.0, 1.0]

    def test_boundary_weight_goes_up(self):
        # half-open bins: a weight exactly on an interior threshold belongs
        # to the layer above it
        layered = filtrate(graph_of([0.25]), n=4)
        assert layered.labels.tolist() == [2]
        assert filtrate(graph_of([0.5]), n=2).labels.tolist() == [2]

    def test_top_bin_closed(self):
        assert filtrate(graph_of([1.0]), n=5).labels.tolist() == [5]

    def test_zero_weight_in_layer_one(self):
        assert filtrate(graph_of([0.0]), n=3).labels.tolist() == [1]

    def test_data_range_mode(self):
        layered = filtrate(graph_of([0.2, 0.4, 0.6]), n=2, range_mode="data_range")
        assert layered.thresholds.tolist() == pytest.approx([0.2, 0.4, 0.6])
        assert layered.labels.tolist() == [1, 2, 2]

    def test_data_range_degenerate_warns(self):
        with pytest.warns(UserWarning, match="degenerate"):
            layered = filtrate(graph_of([0.5, 0.5]), n=3, range_mode="data_range")
        assert layered.labels.tolist() == [3, 3]

    def test_partition_property(self):
        """Every edge lands in exactly one layer; layers cover all edges."""
        rng = np.random.default_rng(77)
        for trial in range(60):
            g = random_graph(rng)
            n = int(rng.integers(1, 7))
            mode = ("unit_interval", "data_range")[trial % 2]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # degenerate data_range warns
                layered = filtrate(g, n, range_mode=mode)
            got = np.sort(np.concatenate(
                [layered.layer_edge_indices(i) for i in range(1, n + 1)]))
            assert np.array_equal(got, np.arange(g.num_edges))
            assert layered.labels.min() >= 1 and layered.labels.max() <= n
            # independent re-binning by scalar interval membership
            th = layered.thresholds
            for e in range(g.num_edges):
                w = g.weights[e]
                lab = n
                for i in range(1, n + 1):
                    if th[i - 1] <= w < th[i]:
                        lab = i
                        break
                assert layered.labels[e] == lab

    def test_monotone_in_recency(self):
        """Within one user, a more recent interaction never sits lower."""
        log = make_log([("a", f"x{j}", t) for j, t in enumerate([1, 40, 80, 200, 500])])
        g = build_weighted_graph(log, DecaySpec(rate=0.02, time_unit=1))
        layered = filtrate(g, n=4)
        order = np.argsort(log.times)
        labels_by_time = layered.labels[order]
        assert np.all(np.diff(labels_by_time) >= 0)

    def test_validation(self):
        g = graph_of([0.5])
        with pytest.raises(ValueError, match="n must be"):
            filtrate(g, 0)
        with pytest.raises(ValueError, match="range_mode"):
            filtrate(g, 2, range_mode="quantile")

    def test_layer_edge_indices_bounds(self):
        layered = filtrate(graph_of([0.5]), n=2)
        with pytest.raises(IndexError):
            layered.layer_edge_indices(0)
        with pytest.raises(IndexError):
            layered.layer_edge_indices(3)


class TestBuildPss:
    def test_multiplicity_equals_layer(self):
        g = graph_of([0.3, 0.7, 1.0])
        layered = filtrate(g, n=2)  # layers [1, 2, 2]
        pss = build_pss(layered)
        assert len(pss) == 1 + 2 + 2
        mult = pss.multiplicity()
        assert mult[(0, 0)] == 1
        assert mult[(0, 1)] == 2
        assert mult[(0, 2)] == 2

    def test_layer_major_contiguous_order(self):
        g = graph_of([0.9, 0.2, 0.6])
        pss = build_pss(filtrate(g, n=3))
        # layer 1: item 1; layer 2: item 2 twice; layer 3: item 0 three times
        assert pss.items.tolist() == [1, 2, 2, 0, 0, 0]
        assert pss.layers.tolist() == [1, 2, 2, 3, 3, 3]

    def test_n1_equals_train_edges_in_order(self, drift_split):
        g = build_weighted_graph(drift_split.train, DecaySpec(rate=0.05))
        pss = build_pss(filtrate(g, n=1))
        assert np.array_equal(pss.users, drift_split.train.users)
        assert np.array_equal(pss.items, drift_split.train.items)
        assert np.all(pss.layers == 1)

    def test_rate_zero_all_top_layer(self):
        log = make_log([("a", "x", 0), ("a", "y", 50), ("b", "z", 10)])
        g = build_weighted_graph(log, DecaySpec(rate=0.0))
        pss = build_pss(filtrate(g, n=3))
        assert np.all(pss.layers == 3)
        assert len(pss) == 9
        pi = pss.pi()
        assert all(v == pytest.approx(1 / 3) for v in pi.values())

    def test_pi_sums_to_one(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            g = random_graph(rng)
            pss = build_pss(filtrate(g, int(rng.integers(1, 6))))
            assert abs(sum(pss.pi().values()) - 1.0) <= 1e-12

    def test_pi_proportional_to_multiplicity(self):
        g = graph_of([0.3, 0.7, 1.0])
        pss = build_pss(filtrate(g, n=2))
        pi = pss.pi()
        assert pi[(0, 1)] == pytest.approx(2 * pi[(0, 0)], rel=1e-15)

    def test_audit_records_sorted_and_complete(self):
        g = graph_of(
            [0.9, 0.2, 0.9],
            users=[1, 0, 0],
            items=[0, 1, 0],
        )
        pss = build_pss(filtrate(g, n=2))
        recs = pss.audit_records()
        keys = [(r["user_index"], r["item_index"]) for r in recs]
        assert keys == sorted(keys)
        assert keys == [(0, 0), (0, 1), (1, 0)]
        by_key = {(r["user_index"], r["item_index"]): r for r in recs}
        assert by_key[(0, 0)]["multiplicity"] == 2 and by_key[(0, 0)]["layer"] == 2
        assert by_key[(0, 1)]["multiplicity"] == 1 and by_key[(0, 1)]["layer"] == 1
        assert by_key[(1, 0)]["weight"] == pytest.approx(0.9)


class TestTrainPositives:
    def test_every_train_edge_once(self, drift_split):
        pss = train_positives(drift_split)
        assert np.array_equal(pss.users, drift_split.train.users)
        assert np.array_equal(pss.items, drift_split.train.items)
        assert np.all(pss.layers == 1)

class TestRecentK:
    def test_keeps_k_most_recent(self):
        log = make_log([("a", "x", 1), ("a", "y", 5), ("a", "z", 9)])
        pss = recent_k_positives(log, k=2)
        assert sorted(pss.items.tolist()) == [1, 2]  # y, z

    def test_saturation(self):
        log = make_log([("a", "x", 1), ("a", "y", 5), ("a", "z", 9)])
        pss = recent_k_positives(log, k=10)
        assert len(pss) == 3

    def test_k1_is_latest_edge(self):
        log = make_log([("a", "x", 1), ("a", "y", 5), ("b", "w", 3)])
        pss = recent_k_positives(log, k=1)
        pairs = set(zip(pss.users.tolist(), pss.items.tolist()))
        assert pairs == {(0, 1), (1, 2)}

    def test_tie_prefers_smaller_item(self):
        log = make_log([("a", "p", 7), ("a", "q", 7), ("a", "r", 7)])
        pss = recent_k_positives(log, k=2)
        assert sorted(pss.items.tolist()) == [0, 1]

    def test_multiplicity_one(self):
        log = make_log([("a", "x", 1), ("a", "y", 5), ("b", "w", 3)])
        pss = recent_k_positives(log, k=5)
        assert all(v == 1 for v in pss.multiplicity().values())

    def test_k_validation(self):
        log = make_log([("a", "x", 1)])
        with pytest.raises(ValueError, match="k must be"):
            recent_k_positives(log, k=0)


def tie_heavy_logs(count):
    """(rng, log) pairs of random logs whose timestamps fall in a few values,
    down to one, so many of a user's rows tie."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        num_users, num_items = int(rng.integers(1, 12)), int(rng.integers(2, 25))
        num_edges = int(rng.integers(1, num_users * num_items + 1))
        t_hi = int(rng.integers(1, 30))
        yield rng, log_with_exact_edges(num_edges, num_users, num_items, seed, t_hi=t_hi)


class TestRowOrder:
    """Every builder's columns, row by row, against a plain-Python oracle:
    seeded training reads a set's rows in order, not only its pairs."""

    def test_layered_is_layer_major_with_copies_contiguous(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            g = random_graph(rng)
            n = int(rng.integers(1, 6))
            layered = filtrate(g, n)
            labels = layered.labels.tolist()
            rows = [e for layer in range(1, n + 1) for e in range(g.num_edges)
                    if labels[e] == layer for _ in range(layer)]
            pss = build_pss(layered)
            for got, edge_column in ((pss.users, g.users), (pss.items, g.items),
                                     (pss.layers, labels), (pss.weights, g.weights)):
                assert got.tolist() == [edge_column[e] for e in rows]

    def test_baseline_follows_train_order(self):
        for seed in range(30):
            num_edges = int(np.random.default_rng(seed).integers(10, 200))
            split = timestamp_split(log_with_exact_edges(num_edges, 12, 25, seed))
            train = split.train
            pss = train_positives(split)
            assert pss.users.tolist() == train.users.tolist()
            assert pss.items.tolist() == train.items.tolist()
            assert pss.layers.tolist() == [1] * len(train)
            assert np.isnan(pss.weights).all() and pss.weights.shape == (len(train),)
            assert (pss.num_users, pss.num_items) == (split.num_users, split.num_items)

    def test_recent_k_is_user_then_time_descending_then_item(self):
        for rng, log in tie_heavy_logs(60):
            k = int(rng.integers(1, 6))
            rows = sorted(zip(log.users.tolist(), log.times.tolist(), log.items.tolist()),
                          key=lambda row: (row[0], -row[1], row[2]))
            kept: dict[int, int] = {}
            want = []
            for u, _, i in rows:
                if kept.get(u, 0) < k:
                    kept[u] = kept.get(u, 0) + 1
                    want.append((u, i))
            pss = recent_k_positives(log, k)
            assert list(zip(pss.users.tolist(), pss.items.tolist())) == want
            assert pss.layers.tolist() == [0] * len(want)
            assert np.isnan(pss.weights).all() and pss.weights.shape == (len(want),)


class TestAuditMemory:
    def test_chunks_peak_below_one_large_chunk(self):
        n_users, n_items = 400, 300  # 120k distinct pairs
        users = np.repeat(np.arange(n_users, dtype=np.int64), n_items)
        items = np.tile(np.arange(n_items, dtype=np.int64), n_users)
        pss = PositiveSampleSet(
            users=users, items=items, layers=np.ones(users.size, dtype=np.int64),
            weights=np.random.default_rng(0).random(users.size),
            num_users=n_users, num_items=n_items,
        )
        # the record dicts alone of one 65,536-record chunk
        bound = 65_536 * sys.getsizeof(next(pss.audit_chunks())[0])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = sum(len(chunk) for chunk in pss.audit_chunks())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert records == users.size
        assert peak < bound
