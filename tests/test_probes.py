"""One-step margin probe tests.

The identity-preconditioner probe has a closed form:

    margin' = margin + eta*c*|grad margin|^2 + 2*eta^2*c^2*margin,
    c = sigmoid(-margin),

so gain, bound, and residual are all checkable against exact algebra.
"""

import copy
from dataclasses import replace
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.special import expit

from driftrec.data import SplitDataset, InteractionLog, timestamp_split
from driftrec.decay import DecaySpec, build_weighted_graph
from driftrec.experiment import ExperimentConfig, build_positives
from driftrec.models import EmbeddingModel, build_norm_adjacency, init_xavier
from driftrec.positives import build_pss, filtrate, train_positives
import driftrec.probes as probes
from driftrec.probes import (
    MarginProbe,
    count_updates,
    cumulative_separation,
    expected_margin,
    probe_one_step,
)
from driftrec.samplers import NegativeSampler, SamplerSpec
from driftrec.synthetic import SyntheticSpec, generate
from driftrec.training import AdamState, init_training, train_epoch
from conftest import make_log


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(x))  # sigmoid(-x), the probe's c


def hand_model():
    ue = np.array([[1.0, 0.0], [0.2, -0.4]])
    ie = np.array([[0.5, 1.0], [-0.2, 0.3], [0.1, 0.1]])
    return EmbeddingModel(ue, ie)


def forced_negative_split():
    train = make_log([("a", "i0", 1), ("a", "i1", 2), ("b", "i0", 3), ("b", "i2", 4)])
    empty = InteractionLog(
        users=np.empty(0, dtype=np.int64),
        items=np.empty(0, dtype=np.int64),
        times=np.empty(0, dtype=np.int64),
        user_vocab={},
        item_vocab={},
    )
    return SplitDataset(train=train, validation=empty, test=empty,
                        cutting_timestamp=5, num_users=2, num_items=3)


class TestIdentityProbe:
    def test_exact_algebra(self):
        model = hand_model()
        eta = 1e-3
        probe = probe_one_step(model, 0, 0, 1, eta)
        delta = float(model.user_emb[0] @ (model.item_emb[0] - model.item_emb[1]))
        c = sigmoid(delta)
        g_sq = (
            float(np.sum((model.item_emb[0] - model.item_emb[1]) ** 2))
            + 2 * float(np.sum(model.user_emb[0] ** 2))
        )
        assert probe.margin_before == delta
        assert probe.grad_norm_sq == pytest.approx(g_sq, rel=1e-15)
        assert probe.bound_rhs == pytest.approx(eta * c * g_sq, rel=1e-14)
        want_gain = eta * c * g_sq + 2 * eta**2 * c**2 * delta
        assert probe.gain == pytest.approx(want_gain, rel=1e-10)

    def test_strict_increase_small_eta(self):
        """1000 random probes: the margin strictly increases whenever the
        margin gradient is nonzero and eta <= 1e-3."""
        rng = np.random.default_rng(70)
        checked = 0
        while checked < 1000:
            model = init_xavier(6, 10, 6, seed=int(rng.integers(10**6)))
            u = int(rng.integers(6))
            p, n = rng.choice(10, size=2, replace=False)
            eta = float(10 ** rng.uniform(-5, -3))
            probe = probe_one_step(model, u, int(p), int(n), eta)
            if probe.grad_norm_sq == 0.0:
                continue
            assert probe.margin_after > probe.margin_before
            checked += 1

    def test_stationary_when_gradient_zero(self):
        ue = np.zeros((1, 3))
        ie = np.zeros((2, 3))
        ie[0] = ie[1] = [0.4, -0.1, 0.2]
        model = EmbeddingModel(ue, ie)
        probe = probe_one_step(model, 0, 0, 1, 1e-2)
        assert probe.grad_norm_sq == 0.0
        assert probe.margin_after == probe.margin_before == 0.0
        assert probe.gain == 0.0 and probe.bound_rhs == 0.0

    def test_residual_over_eta_sq_constant(self):
        """residual = 2*eta^2*c^2*margin, so residual/eta^2 is eta-free."""
        model = hand_model()
        etas = (1e-2, 1e-3, 1e-4)
        ratios = [probe_one_step(model, 0, 0, 1, eta).residual / eta**2 for eta in etas]
        delta = float(model.user_emb[0] @ (model.item_emb[0] - model.item_emb[1]))
        want = 2 * sigmoid(delta) ** 2 * delta
        for r in ratios:
            assert r == pytest.approx(want, rel=1e-6)
        assert max(map(abs, ratios)) <= 10 * min(map(abs, ratios))

    def test_gain_positive_even_when_residual_negative(self):
        # margin < 0 makes the second-order term negative, but the
        # first-order term dominates at small eta
        ue = np.array([[1.0, 0.0]])
        ie = np.array([[-0.5, 0.2], [0.5, -0.2]])  # margin = -1.0
        model = EmbeddingModel(ue, ie)
        probe = probe_one_step(model, 0, 0, 1, 1e-3)
        assert probe.margin_before == -1.0
        assert probe.residual < 0
        assert probe.gain > 0

    def test_model_not_modified(self):
        model = hand_model()
        before_u = model.user_emb.copy()
        before_i = model.item_emb.copy()
        probe_one_step(model, 0, 0, 1, 1e-2)
        assert np.array_equal(model.user_emb, before_u)
        assert np.array_equal(model.item_emb, before_i)

    def test_repeatable(self):
        model = hand_model()
        a = probe_one_step(model, 1, 2, 0, 1e-3)
        b = probe_one_step(model, 1, 2, 0, 1e-3)
        assert a == b

    def test_to_dict_fields(self):
        probe = probe_one_step(hand_model(), 0, 0, 1, 1e-3)
        doc = probe.to_dict()
        assert set(doc) == {
            "user", "pos_item", "neg_item", "eta", "optimizer",
            "margin_before", "margin_after", "grad_norm_sq", "bound_rhs", "gain",
        }
        assert doc["optimizer"] == "identity"
        assert doc["gain"] == probe.margin_after - probe.margin_before

    def test_errors(self):
        model = hand_model()
        with pytest.raises(ValueError, match="coincide"):
            probe_one_step(model, 0, 1, 1, 1e-3)
        for user, pos, neg in ((2, 0, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 3)):
            with pytest.raises(IndexError, match="out of range"):
                probe_one_step(model, user, pos, neg, 1e-3, optimizer=AdamState(2 + 3, 2))
        adj = build_norm_adjacency(np.array([0]), np.array([0]), 1, 2)
        gcn = init_xavier(1, 2, 4, seed=0, backbone="lightgcn",
                          num_prop_layers=1, adjacency=adj)
        with pytest.raises(ValueError, match="dot-product"):
            probe_one_step(gcn, 0, 0, 1, 1e-3)


class TestAdamProbe:
    def test_matches_recomputed_definition(self):
        model = hand_model()
        state = AdamState(2 + 3, 2)
        # advance the second moments so the diagonal is non-trivial
        rng = np.random.default_rng(71)
        for _ in range(3):
            grad_user = rng.standard_normal((2, 2))
            grad_item = rng.standard_normal((3, 2))
            state.step(EmbeddingModel(model.user_emb, model.item_emb),
                       np.concatenate([grad_user, grad_item]), lr=0.0)
        eta = 1e-3
        probe = probe_one_step(model, 0, 0, 1, eta, optimizer=state)
        assert probe.optimizer == "adam_diag"

        e_u = model.user_emb[0]
        e_p, e_n = model.item_emb[0], model.item_emb[1]
        delta = float(e_u @ (e_p - e_n))
        c = sigmoid(delta)
        g = {"u": e_p - e_n, "p": e_u, "n": -e_u}
        v = {"u": state.v[0], "p": state.v[2 + 0], "n": state.v[2 + 1]}
        t = state.step_count + 1
        bc2 = 1.0 - state.beta2**t
        diag = {}
        for key in g:
            v_new = state.beta2 * v[key] + (1 - state.beta2) * np.square(-c * g[key])
            diag[key] = 1.0 / (np.sqrt(v_new / bc2) + state.eps)
        want_bound = eta * c * sum(float(g[k] @ (diag[k] * g[k])) for k in g)
        assert probe.bound_rhs == pytest.approx(want_bound, rel=1e-12)
        u2 = e_u + eta * c * diag["u"] * g["u"]
        p2 = e_p + eta * c * diag["p"] * g["p"]
        n2 = e_n + eta * c * diag["n"] * g["n"]
        assert probe.margin_after == pytest.approx(float(u2 @ (p2 - n2)), rel=1e-12)

    def test_equals_per_row_definition_exactly(self):
        """Each row's preconditioner and update, written out row by row with
        the probe's own sigmoid, give the same floats as the stacked probe."""
        rng = np.random.default_rng(73)
        state = AdamState(6 + 10, 5)
        for _ in range(4):
            state.step(init_xavier(6, 10, 5, seed=1), rng.standard_normal((16, 5)), lr=0.0)
        for seed in range(30):
            model = init_xavier(6, 10, 5, seed=seed)
            u = int(rng.integers(6))
            p, n = (int(i) for i in rng.choice(10, size=2, replace=False))
            eta = float(rng.choice([1e-1, 1e-3, 1e-5]))
            probe = probe_one_step(model, u, p, n, eta, optimizer=state)

            e_u, e_p, e_n = model.user_emb[u], model.item_emb[p], model.item_emb[n]
            margin = float(e_u @ (e_p - e_n))
            c = float(expit(-margin))
            g = {"u": e_p - e_n, "p": e_u, "n": -e_u}
            v = {"u": state.v[u], "p": state.v[6 + p], "n": state.v[6 + n]}
            bc2 = 1.0 - state.beta2 ** (state.step_count + 1)
            diag = {}
            for key in g:
                v_new = state.beta2 * v[key] + (1.0 - state.beta2) * np.square(-c * g[key])
                diag[key] = 1.0 / (np.sqrt(v_new / bc2) + state.eps)
            u2 = e_u + eta * c * diag["u"] * g["u"]
            p2 = e_p + eta * c * diag["p"] * g["p"]
            n2 = e_n + eta * c * diag["n"] * g["n"]
            assert probe.margin_before == margin
            assert probe.grad_norm_sq == float(sum(g[k] @ g[k] for k in g))
            assert probe.bound_rhs == eta * c * float(sum(g[k] @ (diag[k] * g[k]) for k in g))
            assert probe.margin_after == float(u2 @ (p2 - n2))

    def test_preconditioner_is_the_next_steps_divisor(self):
        """The preconditioner AdamState gives the probe on rows [u, U+p, U+n]
        is, bit for bit, 1 / the divisor a real step divides those rows by:
        a step of a copied state with -c * grads on those rows, zero elsewhere."""
        rng = np.random.default_rng(74)
        state = AdamState(6 + 10, 5)
        for _ in range(3):
            state.step(init_xavier(6, 10, 5, seed=2), rng.standard_normal((16, 5)), lr=0.0)
        given = []
        preconditioner = state.preconditioner

        def spy(rows, grad):
            given.append((rows, grad, preconditioner(rows, grad)))
            return given[-1][2]

        state.preconditioner = spy
        model = init_xavier(6, 10, 5, seed=3)
        for u, p, n in ((0, 1, 2), (5, 9, 0), (3, 4, 7), (2, 0, 9)):
            probe_one_step(model, u, p, n, 1e-3, optimizer=state)
            rows, grad, diag = given[-1]
            assert rows == [u, 6 + p, 6 + n]
            e_u, e_p, e_n = model.user_emb[u], model.item_emb[p], model.item_emb[n]
            c = float(expit(-float(e_u @ (e_p - e_n))))
            assert np.array_equal(grad, -c * np.stack([e_p - e_n, e_u, -e_u]))

            stepped = copy.deepcopy(state)
            full = np.zeros((16, 5))
            full[rows] = grad
            stepped.step(init_xavier(6, 10, 5, seed=3), full, lr=1e-3)
            # a step leaves the divisor it divided by in its scratch buffer
            assert np.array_equal(diag, 1.0 / stepped._tmp[rows])
        assert state.step_count == 3

    def test_state_not_mutated(self):
        model = hand_model()
        state = AdamState(2 + 3, 2)
        state.v[:2] += 0.25
        state.v[2:] += 0.5
        before = (state.v.copy(), state.step_count)
        probe_one_step(model, 0, 0, 1, 1e-3, optimizer=state)
        assert np.array_equal(state.v, before[0])
        assert state.step_count == before[1]

    def test_strict_increase(self):
        rng = np.random.default_rng(72)
        state = AdamState(6 + 10, 6)
        state.v[:6] += rng.uniform(0, 0.01, size=(6, 6))
        state.v[6:] += rng.uniform(0, 0.01, size=(10, 6))
        for _ in range(200):
            model = init_xavier(6, 10, 6, seed=int(rng.integers(10**6)))
            p, n = rng.choice(10, size=2, replace=False)
            probe = probe_one_step(model, int(rng.integers(6)), int(p), int(n),
                                   1e-3, optimizer=state)
            if probe.grad_norm_sq > 0:
                assert probe.margin_after > probe.margin_before


class TestCountUpdates:
    def test_multiplicity_times_epochs(self):
        split = forced_negative_split()
        graph = build_weighted_graph(split.train, DecaySpec(rate=0.0))
        pss = build_pss(filtrate(graph, 2))  # every pair in layer 2
        config = ExperimentConfig(lr=0.01, batch_size=3, epochs=1, d=4, seeds=(0,))
        counts = count_updates(split, pss, config, epochs=3)
        assert counts == {(0, 0): 6, (0, 1): 6, (1, 0): 6, (1, 2): 6}

    def test_single_layer_counts_equal_epochs(self):
        split = forced_negative_split()
        pss = train_positives(split)
        config = ExperimentConfig(lr=0.01, batch_size=2, epochs=1, d=4, seeds=(0,))
        counts = count_updates(split, pss, config, epochs=4)
        assert set(counts.values()) == {4}

    def test_filtered_pair_never_updated(self):
        split = forced_negative_split()
        pss = train_positives(split)
        keep = ~((pss.users == 0) & (pss.items == 1))
        filtered = type(pss)(
            users=pss.users[keep], items=pss.items[keep], layers=pss.layers[keep],
            weights=pss.weights[keep], num_users=2, num_items=3,
        )
        config = ExperimentConfig(lr=0.01, batch_size=2, epochs=1, d=4, seeds=(0,))
        counts = count_updates(split, filtered, config, epochs=5)
        assert (0, 1) not in counts
        assert counts[(0, 0)] == 5

    def test_mixed_layers(self):
        split = forced_negative_split()
        graph = build_weighted_graph(split.train, DecaySpec(rate=0.4, time_unit=1))
        layered = filtrate(graph, 3)
        pss = build_pss(layered)
        config = ExperimentConfig(lr=0.01, batch_size=4, epochs=1, d=4, seeds=(1,))
        counts = count_updates(split, pss, config, epochs=2)
        mult = pss.multiplicity()
        assert counts == {pair: 2 * m for pair, m in mult.items()}

    def test_counts_are_a_read_only_mapping(self):
        split = forced_negative_split()
        pss = train_positives(split)
        keep = ~((pss.users == 0) & (pss.items == 1))
        filtered = type(pss)(
            users=pss.users[keep], items=pss.items[keep], layers=pss.layers[keep],
            weights=pss.weights[keep], num_users=2, num_items=3,
        )
        config = ExperimentConfig(lr=0.01, batch_size=2, epochs=1, d=4, seeds=(0,))
        counts = count_updates(split, filtered, config, epochs=2)
        want = {(0, 0): 2, (1, 0): 2, (1, 2): 2}
        assert counts == want and want == counts and counts != {**want, (0, 1): 2}
        assert dict(counts) == want
        assert list(counts) == sorted(want) and list(counts.items()) == sorted(want.items())
        assert all(type(v) is int for pair, n in counts.items() for v in (*pair, n))
        assert counts[(1, 2)] == 2 and counts.get((0, 1)) is None
        # (0, 3) and (-1, 3) share pair keys with (1, 0) and (0, 0)
        for absent in ((0, 1), (2, 0), (0, 3), (-1, 3), (0, -1), (0,), "ab", 7):
            assert absent not in counts
            with pytest.raises(KeyError):
                counts[absent]
        with pytest.raises(ValueError):
            counts.updates[0] = 5

    def test_counts_hold_two_int64_per_pair(self):
        """On drift-S-sized data the counts hold 16 bytes per trained pair
        (its key and its count); a dict of (user, item) tuples held ~150."""
        split = timestamp_split(generate(SyntheticSpec(num_users=500, num_items=1000,
                                                       num_events=40_000, seed=0)))
        config = ExperimentConfig(layers=2, rate=0.01, d=8, batch_size=2048, seeds=(0,))
        pss, _ = build_positives(split, config)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counts = count_updates(split, pss, config)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(counts) > 20_000
        assert held < 2 * 8 * len(counts) + 64 * 1024

    def test_pi_sample_counts_the_rows_trained(self, drift_split):
        """Under pi_sample a row can be drawn twice or not at all; the counts
        are the rows each epoch of the same run trained."""
        graph = build_weighted_graph(drift_split.train, DecaySpec(rate=0.05))
        pss = build_pss(filtrate(graph, 3))
        config = ExperimentConfig(lr=0.01, batch_size=256, epochs=1, d=4, seeds=(5,),
                                  epoch_mode="pi_sample")
        counts = count_updates(drift_split, pss, config, epochs=3)
        model, adam, sampler, rng = init_training(drift_split, config)
        want = Counter()
        for _ in range(3):
            rows = train_epoch(model, pss, config, adam, drift_split, rng, sampler,
                               loss=False)["rows"]
            want.update(zip(pss.users[rows].tolist(), pss.items[rows].tolist()))
        assert counts == want
        assert sum(counts.values()) == 3 * len(drift_split.train)
        assert list(counts) == sorted(counts)


class TestExpectedMargin:
    def test_hand_computed(self):
        # scores for user 0: [2, -1, 3, 0]; train = {0}; rest mean = 2/3
        ue = np.array([[1.0]])
        ie = np.array([[2.0], [-1.0], [3.0], [0.0]])
        model = EmbeddingModel(ue, ie)
        got = expected_margin(model, 0, 0, np.array([0]))
        assert got == pytest.approx(2.0 - 2.0 / 3.0, rel=1e-15)

    def test_all_items_interacted_raises(self):
        model = EmbeddingModel(np.ones((1, 1)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="every item"):
            expected_margin(model, 0, 0, np.array([0, 1]))


class TestRepeatedTrainRow:
    """A train log that repeats a (user, item) row probes as its deduplicated
    log: the pair counts once among the user's interacted items."""

    @staticmethod
    def with_repeat(split):
        """`split` whose train log logs its first row a second time."""
        train = split.train
        repeated = replace(train, **{name: np.append(getattr(train, name), getattr(train, name)[0])
                                     for name in ("users", "items", "times")})
        return replace(split, train=repeated)

    def test_expected_margin(self, drift_split):
        repeated = self.with_repeat(drift_split)
        model = init_xavier(drift_split.num_users, drift_split.num_items, 8, seed=3)
        u, p = int(drift_split.train.users[0]), int(drift_split.train.items[0])
        spec = SamplerSpec()
        items = NegativeSampler(spec, repeated.train).user_items(u)
        assert items.tolist() == NegativeSampler(spec, drift_split.train).user_items(u).tolist()
        want = expected_margin(model, u, p, drift_split.train.items[drift_split.train.users == u])
        assert expected_margin(model, u, p, items) == want

    def test_cumulative_separation(self, drift_split):
        repeated = self.with_repeat(drift_split)
        pss = train_positives(drift_split)
        config = ExperimentConfig(lr=0.01, batch_size=256, epochs=2, d=8, seeds=(0,))
        train = drift_split.train
        pairs = [(int(u), int(i)) for u, i in zip(train.users[:4], train.items[:4])]
        runs = {"plain": (pss, None)}
        got = cumulative_separation(repeated, runs, config, epochs=2, probe_pairs=pairs)
        want = cumulative_separation(drift_split, runs, config, epochs=2, probe_pairs=pairs)
        assert got.to_dict() == want.to_dict()


class TestCumulativeSeparation:
    def test_identical_sets_identical_trajectories(self):
        split = forced_negative_split()
        pss = train_positives(split)
        config = ExperimentConfig(lr=0.05, batch_size=4, epochs=2, d=4, seeds=(2,))
        res = cumulative_separation(
            split, {"a": (pss, None), "b": (pss, None)}, config, epochs=2,
            probe_pairs=[(0, 0), (1, 2)],
        )
        assert res.trajectories["a"] == res.trajectories["b"]
        assert res.epochs == [0, 1, 2]

    def test_epoch_zero_shared(self, drift_split):
        graph = build_weighted_graph(drift_split.train, DecaySpec(rate=0.05))
        pss_layered = build_pss(filtrate(graph, 3))
        pss_base = train_positives(drift_split)
        config = ExperimentConfig(lr=0.01, batch_size=256, epochs=1, d=8, seeds=(0,))
        res = cumulative_separation(
            drift_split, {"layered": (pss_layered, None), "baseline": (pss_base, None)},
            config, epochs=1, probe_pairs=[(0, int(drift_split.train.items[0]))],
        )
        assert res.trajectories["layered"][0] == res.trajectories["baseline"][0]

    def test_layered_separates_recent_pairs_faster(self, drift_split):
        """On drifted data the layer-enhanced set lifts the expected margin
        of recent train pairs well above the plain set's trajectory."""
        graph = build_weighted_graph(drift_split.train, DecaySpec(rate=0.05))
        layered = filtrate(graph, 3)
        pss_layered = build_pss(layered)
        pss_base = train_positives(drift_split)
        top = layered.layer_edge_indices(3)
        rng = np.random.default_rng(0)
        pick = rng.choice(top, size=min(40, top.size), replace=False)
        pairs = [(int(graph.users[e]), int(graph.items[e])) for e in pick]
        config = ExperimentConfig(lr=0.01, batch_size=256, l2=1e-4, epochs=5, d=8, seeds=(0,))
        res = cumulative_separation(
            drift_split, {"layered": (pss_layered, None), "baseline": (pss_base, None)},
            config, epochs=5, probe_pairs=pairs,
        )
        lay, base = res.trajectories["layered"], res.trajectories["baseline"]
        assert all(l > b for l, b in zip(lay[1:], base[1:]))
        assert lay[-1] > base[-1] + 0.1

    def test_weighted_run_trains_with_its_weights(self, drift_split, monkeypatch):
        """weighted_bpr's (pss, weights) trains exactly as train_epoch with
        those weights from the same init_training state, and not as its
        plain set alone."""
        exp = ExperimentConfig(variant="weighted_bpr", rate=0.05, d=8, lr=0.01,
                               batch_size=256)
        pss, weights = build_positives(drift_split, exp)
        assert weights is not None
        config = exp.train_config(seed=0)
        train = drift_split.train
        pairs = [(int(u), int(p)) for u, p in zip(train.users[-6:], train.items[-6:])]
        trained = []

        def spy(model, *args, **kwargs):
            trained.append(model)
            return train_epoch(model, *args, **kwargs)

        monkeypatch.setattr(probes, "train_epoch", spy)
        res = cumulative_separation(
            drift_split, {"weighted": (pss, weights), "plain": (pss, None)},
            config, epochs=3, probe_pairs=pairs,
        )
        model, adam, sampler, rng = init_training(drift_split, config)

        def mean_margin():
            return float(np.mean([expected_margin(model, u, p, sampler.user_items(u))
                                  for u, p in pairs]))

        want = [mean_margin()]
        for _ in range(3):
            train_epoch(model, pss, config, adam, drift_split, rng, sampler,
                        pair_weights=weights, loss=False)
            want.append(mean_margin())
        assert res.trajectories["weighted"] == want
        assert np.array_equal(trained[0].params, model.params)
        assert res.trajectories["plain"][0] == want[0]
        assert res.trajectories["plain"][1:] != want[1:]
        assert not np.array_equal(trained[-1].params, model.params)

    def test_no_pairs_raises(self):
        split = forced_negative_split()
        config = ExperimentConfig(epochs=1, d=4)
        with pytest.raises(ValueError, match="probe pairs"):
            cumulative_separation(split, {"a": (train_positives(split), None)},
                                  config, epochs=1, probe_pairs=[])

    def test_to_dict(self):
        split = forced_negative_split()
        pss = train_positives(split)
        config = ExperimentConfig(lr=0.05, batch_size=4, epochs=1, d=4, seeds=(2,))
        res = cumulative_separation(split, {"a": (pss, None)}, config, epochs=1,
                                    probe_pairs=[(0, 0)])
        doc = res.to_dict()
        assert doc["epochs"] == [0, 1]
        assert doc["pairs"] == [[0, 0]]
        assert len(doc["trajectories"]["a"]) == 2


class TestConfiguredBackbone:
    """The training comparisons train the backbone, sampler and seed the
    config names: each equals a LightGCN/dns run built by hand."""

    CONFIG = ExperimentConfig(lr=0.05, batch_size=128, epochs=1, d=4, seeds=(3,),
                              backbone="lightgcn", prop_layers=2, sampler="dns", pool=3)

    @classmethod
    def hand_built(cls, split):
        train = split.train
        adjacency = build_norm_adjacency(train.users, train.items,
                                         split.num_users, split.num_items)
        model = init_xavier(split.num_users, split.num_items, 4, 3, backbone="lightgcn",
                            num_prop_layers=2, adjacency=adjacency)
        return (model, AdamState(split.num_users + split.num_items, 4),
                NegativeSampler(cls.CONFIG.sampler_spec(), train), np.random.default_rng([3, 1]))

    def test_count_updates(self, drift_split, monkeypatch):
        pss = train_positives(drift_split)
        trained = []

        def spy(model, *args, **kwargs):
            trained.append(model)
            return train_epoch(model, *args, **kwargs)

        monkeypatch.setattr(probes, "train_epoch", spy)
        counts = count_updates(drift_split, pss, self.CONFIG, epochs=2)
        model, adam, sampler, rng = self.hand_built(drift_split)
        want = Counter()
        for _ in range(2):
            rows = train_epoch(model, pss, self.CONFIG, adam, drift_split, rng, sampler,
                               loss=False)["rows"]
            want.update(zip(pss.users[rows].tolist(), pss.items[rows].tolist()))
        assert counts == want
        assert trained[0] is trained[1] and trained[0].backbone == "lightgcn"
        assert np.array_equal(trained[0].user_emb, model.user_emb)
        assert np.array_equal(trained[0].item_emb, model.item_emb)

    def test_cumulative_separation(self, drift_split):
        pss = train_positives(drift_split)
        train = drift_split.train
        pairs = [(int(u), int(p)) for u, p in zip(train.users[:5], train.items[:5])]
        res = cumulative_separation(drift_split, {"plain": (pss, None)}, self.CONFIG,
                                    epochs=2, probe_pairs=pairs)
        model, adam, sampler, rng = self.hand_built(drift_split)

        def mean_margin():
            return float(np.mean([expected_margin(model, u, p, sampler.user_items(u))
                                  for u, p in pairs]))

        want = [mean_margin()]
        for _ in range(2):
            train_epoch(model, pss, self.CONFIG, adam, drift_split, rng, sampler, loss=False)
            want.append(mean_margin())
        assert res.trajectories["plain"] == want
