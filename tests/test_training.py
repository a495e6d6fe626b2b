"""BPR objective, gradient, optimizer, and training-loop tests.

The batch objective is checked two ways: the scalar loss against a plain
Python reimplementation (dense matrix powers for the propagation backbone),
and the analytic gradients against central finite differences of that loss.
"""

import json
import math
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest

from driftrec.data import InteractionLog, SplitDataset
from driftrec.decay import DecaySpec, build_weighted_graph
from driftrec.experiment import ExperimentConfig, build_positives
from driftrec.models import EmbeddingModel, build_norm_adjacency, init_xavier, load_checkpoint
from driftrec.positives import build_pss, filtrate, train_positives
from driftrec.samplers import NegativeSampler
import driftrec.training as training
from driftrec.training import (
    SGD,
    AdamState,
    TrainingDiverged,
    batch_gradients,
    bpr_loss,
    config_with,
    fit,
    train_epoch,
)
from conftest import make_log, oracle_batch_gradients, oracle_sample_batch, pair_weight_lookup

mpmath.mp.dps = 50


def empty_log():
    return InteractionLog(
        users=np.empty(0, dtype=np.int64),
        items=np.empty(0, dtype=np.int64),
        times=np.empty(0, dtype=np.int64),
        user_vocab={},
        item_vocab={},
    )


def forced_negative_split():
    """2 users, 3 items; each user has exactly one valid negative.

    User 0 trains on items 0,1 (negative must be 2); user 1 trains on
    items 0,2 (negative must be 1).
    """
    train = make_log([("a", "i0", 1), ("a", "i1", 2), ("b", "i0", 3), ("b", "i2", 4)])
    return SplitDataset(
        train=train,
        validation=empty_log(),
        test=empty_log(),
        cutting_timestamp=5,
        num_users=2,
        num_items=3,
    )


def oracle_batch_loss(model, users, pos, negs, l2, pair_weights=None):
    """Scalar batch objective recomputed with plain Python loops."""
    if model.backbone == "mf":
        su, si = model.user_emb, model.item_emb
    else:
        dense = model.adjacency.toarray()
        stacked = np.vstack([model.user_emb, model.item_emb])
        acc = np.zeros_like(stacked)
        for level in range(model.num_prop_layers + 1):
            acc += np.linalg.matrix_power(dense, level) @ stacked
        acc /= model.num_prop_layers + 1
        su, si = acc[: model.num_users], acc[model.num_users :]
    total = 0.0
    for b in range(len(users)):
        u, p, nn = int(users[b]), int(pos[b]), int(negs[b])
        margin = float(np.dot(su[u], si[p] - si[nn]))
        if margin >= 0:
            soft = math.log1p(math.exp(-margin))
        else:
            soft = -margin + math.log1p(math.exp(margin))
        w = 1.0 if pair_weights is None else float(pair_weights[b])
        reg = 0.5 * l2 * (
            float(np.dot(model.user_emb[u], model.user_emb[u]))
            + float(np.dot(model.item_emb[p], model.item_emb[p]))
            + float(np.dot(model.item_emb[nn], model.item_emb[nn]))
        )
        total += w * soft + reg
    return total / len(users)


def fd_grads(model, users, pos, negs, l2, pair_weights=None, pert=1e-5):
    """Central-difference gradients of the batch objective, per coordinate."""

    def loss_with(ue, ie):
        probe = EmbeddingModel(
            ue, ie,
            backbone=model.backbone,
            num_prop_layers=model.num_prop_layers,
            adjacency=model.adjacency,
        )
        return batch_gradients(probe, users, pos, negs, l2, pair_weights)[0]

    fd_u = np.zeros_like(model.user_emb)
    fd_i = np.zeros_like(model.item_emb)
    for r in range(model.num_users):
        for c in range(model.dim):
            up, dn = model.user_emb.copy(), model.user_emb.copy()
            up[r, c] += pert
            dn[r, c] -= pert
            fd_u[r, c] = (loss_with(up, model.item_emb) - loss_with(dn, model.item_emb)) / (2 * pert)
    for r in range(model.num_items):
        for c in range(model.dim):
            up, dn = model.item_emb.copy(), model.item_emb.copy()
            up[r, c] += pert
            dn[r, c] -= pert
            fd_i[r, c] = (loss_with(model.user_emb, up) - loss_with(model.user_emb, dn)) / (2 * pert)
    return fd_u, fd_i


def max_rel_error(analytic, fd):
    denom = np.maximum(np.abs(analytic) + np.abs(fd), 1e-8)
    return float(np.max(np.abs(analytic - fd) / denom))


def random_batch(rng, num_users, num_items, size):
    users = rng.integers(0, num_users, size=size)
    pos = rng.integers(0, num_items, size=size)
    negs = (pos + 1 + rng.integers(0, num_items - 1, size=size)) % num_items
    return users, pos, negs


class TestBprLoss:
    def test_zero_margin(self):
        loss, grad = bpr_loss(0.0)
        assert loss == pytest.approx(math.log(2), rel=1e-15)
        assert grad == -0.5

    def test_large_negative_margin_stable(self):
        loss, grad = bpr_loss(-745.0)
        assert np.isfinite(loss) and loss == pytest.approx(745.0, rel=1e-12)
        assert grad == pytest.approx(-1.0, abs=1e-12)

    def test_large_positive_margin(self):
        loss, grad = bpr_loss(745.0)
        assert loss >= 0 and loss == pytest.approx(0.0, abs=1e-300)
        assert grad == pytest.approx(0.0, abs=1e-300)

    def test_against_mpmath(self):
        rng = np.random.default_rng(2)
        for margin in np.r_[rng.uniform(-60, 60, size=40), -50.0, 50.0]:
            loss, grad = bpr_loss(float(margin))
            want_loss = float(mpmath.log(1 + mpmath.exp(-mpmath.mpf(margin))))
            want_grad = float(-1 / (1 + mpmath.exp(mpmath.mpf(margin))))
            assert loss == pytest.approx(want_loss, rel=1e-12)
            assert grad == pytest.approx(want_grad, rel=1e-12, abs=1e-300)

    def test_array_matches_scalar(self):
        margins = np.array([-3.0, 0.0, 2.5])
        losses, grads = bpr_loss(margins)
        assert losses.shape == grads.shape == (3,)
        for j, m in enumerate(margins):
            ls, gs = bpr_loss(float(m))
            assert losses[j] == ls and grads[j] == gs

    def test_grad_is_derivative(self):
        h = 1e-6
        for m in (-4.0, -0.3, 0.0, 1.7, 6.0):
            _, grad = bpr_loss(m)
            fd = (bpr_loss(m + h)[0] - bpr_loss(m - h)[0]) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-8, abs=1e-10)


class TestBatchGradients:
    def test_loss_matches_oracle_mf(self):
        rng = np.random.default_rng(30)
        model = init_xavier(6, 8, 4, seed=1)
        users, pos, negs = random_batch(rng, 6, 8, 12)
        weights = rng.uniform(0.2, 1.0, size=12)
        for w in (None, weights):
            got = batch_gradients(model, users, pos, negs, 0.01, w)[0]
            want = oracle_batch_loss(model, users, pos, negs, 0.01, w)
            assert got == pytest.approx(want, rel=1e-12)

    def test_loss_matches_oracle_lightgcn(self):
        rng = np.random.default_rng(31)
        adj = build_norm_adjacency(
            rng.integers(0, 5, size=9), rng.integers(0, 7, size=9), 5, 7
        )
        model = init_xavier(5, 7, 4, seed=2, backbone="lightgcn",
                            num_prop_layers=2, adjacency=adj)
        users, pos, negs = random_batch(rng, 5, 7, 10)
        got = batch_gradients(model, users, pos, negs, 0.02)[0]
        want = oracle_batch_loss(model, users, pos, negs, 0.02)
        assert got == pytest.approx(want, rel=1e-12)

    def test_fd_gradients_mf(self):
        rng = np.random.default_rng(32)
        model = init_xavier(6, 8, 4, seed=3)
        users, pos, negs = random_batch(rng, 6, 8, 10)
        _, grad = batch_gradients(model, users, pos, negs, 0.01)
        gu, gi = grad[:6], grad[6:]
        fu, fi = fd_grads(model, users, pos, negs, 0.01)
        assert max_rel_error(gu, fu) < 1e-5
        assert max_rel_error(gi, fi) < 1e-5

    def test_fd_gradients_mf_weighted(self):
        rng = np.random.default_rng(33)
        model = init_xavier(5, 6, 4, seed=4)
        users, pos, negs = random_batch(rng, 5, 6, 8)
        weights = rng.uniform(0.1, 2.0, size=8)
        _, grad = batch_gradients(model, users, pos, negs, 0.05, weights)
        gu, gi = grad[:5], grad[5:]
        fu, fi = fd_grads(model, users, pos, negs, 0.05, weights)
        assert max_rel_error(gu, fu) < 1e-5
        assert max_rel_error(gi, fi) < 1e-5

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_fd_gradients_lightgcn(self, layers):
        rng = np.random.default_rng(34 + layers)
        edges_u = rng.integers(0, 6, size=12)
        edges_i = rng.integers(0, 7, size=12)
        adj = build_norm_adjacency(edges_u, edges_i, 6, 7)
        model = init_xavier(6, 7, 4, seed=5, backbone="lightgcn",
                            num_prop_layers=layers, adjacency=adj)
        users, pos, negs = random_batch(rng, 6, 7, 9)
        _, grad = batch_gradients(model, users, pos, negs, 0.01)
        gu, gi = grad[:6], grad[6:]
        fu, fi = fd_grads(model, users, pos, negs, 0.01)
        assert max_rel_error(gu, fu) < 1e-5
        assert max_rel_error(gi, fi) < 1e-5

    def test_untouched_rows_zero_mf(self):
        model = init_xavier(6, 8, 4, seed=6)
        users = np.array([0, 1])
        pos = np.array([2, 3])
        negs = np.array([4, 5])
        _, grad = batch_gradients(model, users, pos, negs, 0.01)
        gu, gi = grad[:6], grad[6:]
        assert np.all(gu[2:] == 0)
        for untouched in (0, 1, 6, 7):
            assert np.all(gi[untouched] == 0)

    def test_repeated_rows_accumulate(self):
        """The same user twice contributes the sum of both pair gradients."""
        model = init_xavier(3, 5, 4, seed=7)
        users = np.array([1, 1])
        pos = np.array([0, 2])
        negs = np.array([3, 4])
        gu = batch_gradients(model, users, pos, negs, 0.0)[1][:3]
        gu_a = batch_gradients(model, users[:1], pos[:1], negs[:1], 0.0)[1][:3]
        gu_b = batch_gradients(model, users[1:], pos[1:], negs[1:], 0.0)[1][:3]
        assert gu[1] == pytest.approx((gu_a[1] + gu_b[1]) / 2, rel=1e-12)


def scatter_case_model(backbone, num_users, num_items, seed):
    rng = np.random.default_rng(seed)
    adj = None
    if backbone == "lightgcn":
        n_edges = 2 * (num_users + num_items)
        adj = build_norm_adjacency(
            rng.integers(0, num_users, size=n_edges),
            rng.integers(0, num_items, size=n_edges),
            num_users, num_items,
        )
    return init_xavier(num_users, num_items, 8, seed=seed, backbone=backbone,
                       num_prop_layers=2, adjacency=adj)


class TestBatchGradientsBitIdentity:
    """The one-scatter gradients equal sequential np.add.at bit for bit."""

    def assert_matches_oracle(self, model, users, pos, negs, l2, weights):
        got_loss, grad = batch_gradients(model, users, pos, negs, l2, weights)
        want = oracle_batch_gradients(model, users, pos, negs, l2, weights)
        assert got_loss == want[0]
        assert np.array_equal(grad[: model.num_users], want[1])
        assert np.array_equal(grad[model.num_users :], want[2])

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_random_batches_with_repeats(self, backbone, weighted):
        # a 7 x 11 model under batches of 300 repeats every row many times
        model = scatter_case_model(backbone, 7, 11, seed=60)
        rng = np.random.default_rng(61)
        for size in (300, 64, 5):
            users, pos, negs = random_batch(rng, 7, 11, size)
            weights = rng.uniform(0.1, 2.0, size=size) if weighted else None
            self.assert_matches_oracle(model, users, pos, negs, 1e-3, weights)

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_pos_equals_neg_collisions(self, backbone):
        model = scatter_case_model(backbone, 5, 6, seed=62)
        rng = np.random.default_rng(63)
        users, pos, negs = random_batch(rng, 5, 6, 40)
        negs[::3] = pos[::3]
        self.assert_matches_oracle(model, users, pos, negs, 0.01, None)
        self.assert_matches_oracle(model, users, pos, negs, 0.01, rng.uniform(size=40))

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_batch_of_one(self, backbone):
        model = scatter_case_model(backbone, 4, 9, seed=64)
        for u, p, n in ((0, 2, 5), (3, 8, 8)):
            users, pos, negs = np.array([u]), np.array([p]), np.array([n])
            self.assert_matches_oracle(model, users, pos, negs, 0.01, None)
            self.assert_matches_oracle(model, users, pos, negs, 0.01, np.array([0.3]))

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_trained_model_full_size_batch(self, backbone, drift_split):
        """Parameters after a few Adam steps, a 2048-pair batch over the drift data."""
        train = drift_split.train
        model = scatter_case_model(backbone, drift_split.num_users, drift_split.num_items, 65)
        adam = AdamState(model.num_users + model.num_items, model.dim)
        rng = np.random.default_rng(66)
        for _ in range(3):
            idx = rng.integers(0, len(train), size=2048)
            negs = rng.integers(0, drift_split.num_items, size=2048)
            users, pos = train.users[idx], train.items[idx]
            self.assert_matches_oracle(model, users, pos, negs, 1e-4, None)
            _, grad = batch_gradients(model, users, pos, negs, 1e-4)
            adam.step(model, grad, lr=0.01)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    def test_mf_is_lightgcn_without_propagation(self, weighted, l2):
        """With zero propagation layers the propagation backbone's loss and
        gradient equal MF's bit for bit: both scatter one head of loss
        columns and one regularizer block, and only the propagation differs.
        At 40 users and 300 items the block has 3b rows for b <= 64 and all
        n = 340 rows for b = 2048."""
        num_users, num_items = 40, 300
        rng = np.random.default_rng(67)
        adj = build_norm_adjacency(rng.integers(0, num_users, size=600),
                                   rng.integers(0, num_items, size=600), num_users, num_items)
        mf = init_xavier(num_users, num_items, 8, seed=68)
        flat = init_xavier(num_users, num_items, 8, seed=68, backbone="lightgcn",
                           num_prop_layers=0, adjacency=adj)
        for size in (1, 5, 64, 2048):
            users, pos, negs = random_batch(rng, num_users, num_items, size)
            negs[::4] = pos[::4]
            weights = rng.uniform(0.1, 2.0, size=size) if weighted else None
            want_loss, want = batch_gradients(mf, users, pos, negs, l2, weights)
            got_loss, got = batch_gradients(flat, users, pos, negs, l2, weights)
            assert got_loss == want_loss
            assert np.array_equal(got, want)


class TestBatchGradientsMemory:
    """A 2048-pair batch gathers [e_p - e_n; e_u; e_u], 3b rows of d floats,
    and a regularizer block of min(3b, n) rows holding its distinct rows;
    its traced peak stays under 4b rows, which a 5b-row gather exceeds."""

    @staticmethod
    def traced_peak(model, split):
        b = 2048
        train = split.train
        model.scoring_params()  # the propagation cache is the model's, not the step's
        rng = np.random.default_rng(8)
        idx = rng.integers(0, len(train), size=b)
        negs = rng.integers(0, split.num_items, size=b)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss, grad = batch_gradients(model, train.users[idx], train.items[idx], negs, 1e-4)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss) and grad.shape == (model.num_users + model.num_items, model.dim)
        return peak

    def test_lightgcn_gathers_three_rows_per_pair(self, drift_split):
        model = init_xavier(drift_split.num_users, drift_split.num_items, 32, seed=7,
                            backbone="lightgcn", num_prop_layers=3,
                            adjacency=training.train_adjacency(drift_split))
        assert self.traced_peak(model, drift_split) < 4 * 2048 * 32 * 8

    def test_mf_gathers_three_rows_per_pair(self, drift_split):
        model = init_xavier(drift_split.num_users, drift_split.num_items, 32, seed=7)
        assert self.traced_peak(model, drift_split) < 4 * 2048 * 32 * 8


class TestScatterSignsAndBounds:
    """Underflowed loss coefficients and zero rows keep the oracle's signs."""

    @staticmethod
    def extreme_case(backbone, seed):
        # rows this large put many |margins| past 1e3, where expit(-margin)
        # underflows and coeff is -0.0 (or -1/b when negative); propagation
        # averages rows, so the propagation backbone needs a larger scale
        model = scatter_case_model(backbone, 9, 14, seed)
        rng = np.random.default_rng(seed)
        scale = 20.0 if backbone == "mf" else 150.0
        user_emb = scale * rng.standard_normal(model.user_emb.shape)
        item_emb = scale * rng.standard_normal(model.item_emb.shape)
        user_emb[[0, 4]] = 0.0
        item_emb[[1, 7, 13]] = 0.0
        model.set_params(np.concatenate([user_emb, item_emb]))
        # user 8 and item 12 stay untouched
        users, pos, negs = random_batch(rng, 8, 12, 400)
        negs[::11] = pos[::11]
        # zero item 13 only ever appears as the negative of a pair whose
        # margin underflows its coeff, so all its terms are signed zeros
        score_u, score_i = model.scoring_embeddings()
        far = np.argwhere(score_u[:8] @ (score_i[:12] - score_i[13]).T > 1e3)[:5]
        users = np.concatenate([users, far[:, 0]])
        pos = np.concatenate([pos, far[:, 1]])
        negs = np.concatenate([negs, np.full(len(far), 13)])
        return model, users, pos, negs

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_extreme_margins_and_zero_rows(self, backbone, weighted):
        model, users, pos, negs = self.extreme_case(backbone, 71)
        score_u, score_i = model.scoring_embeddings()
        margin = np.einsum("ij,ij->i", score_u[users], score_i[pos] - score_i[negs])
        assert np.sum(margin > 1e3) > 20 and np.sum(margin < -1e3) > 20
        assert np.any(margin == 0.0)
        assert np.sum(negs == 13) >= 3 and np.all(margin[negs == 13] > 1e3)
        weights = (np.random.default_rng(72).uniform(0.1, 2.0, size=users.shape[0])
                   if weighted else None)
        got_loss, grad = batch_gradients(model, users, pos, negs, 1e-3, weights)
        want = oracle_batch_gradients(model, users, pos, negs, 1e-3, weights)
        assert got_loss == want[0]
        got = (grad[: model.num_users], grad[model.num_users :])
        for g, w in zip(got, want[1:]):
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_out_of_range_index_raises(self, backbone):
        model = scatter_case_model(backbone, 4, 6, seed=73)
        users, pos, negs = np.array([0, 3]), np.array([1, 5]), np.array([2, 4])
        cases = [(np.array([0, 4]), pos, negs), (users, np.array([1, 6]), negs),
                 (users, pos, np.array([6, 4]))]
        if backbone == "mf":
            # np.take accepts -1, but a negative scatter row must not reach the
            # sparse product, which does not bound-check its row indices
            cases += [(np.array([0, -1]), pos, negs), (users, np.array([-1, 5]), negs),
                      (users, pos, np.array([2, -6]))]
        for bad in cases:
            with pytest.raises(IndexError):
                batch_gradients(model, *bad, 0.01)

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_index_checked_before_any_gather(self, backbone):
        # on the propagation backbone a -1 item used to wrap to the last item
        # for scoring while its scatter row num_users - 1 was a user row
        model = scatter_case_model(backbone, 4, 6, seed=74)
        users, pos, negs = np.array([0, 3]), np.array([1, 5]), np.array([2, 4])
        cases = [
            ("users", (np.array([0, -1]), pos, negs)),
            ("users", (np.array([4, 0]), pos, negs)),
            ("pos_items", (users, np.array([1, -1]), negs)),
            ("pos_items", (users, np.array([6, 1]), negs)),
            ("neg_items", (users, pos, np.array([-6, 2]))),
            ("neg_items", (users, pos, np.array([2, 6]))),
        ]
        for name, bad in cases:
            for loss in (True, False):
                with pytest.raises(IndexError, match=name):
                    batch_gradients(model, *bad, 0.01, loss=loss)
        # the edges of the valid range pass
        edge = np.array([0, 3]), np.array([0, 5]), np.array([5, 0])
        assert np.isfinite(batch_gradients(model, *edge, 0.01)[0])


class TestLossGate:
    """Skipping the loss leaves every gradient, parameter and rng draw unchanged."""

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_batch_gradients_without_loss(self, backbone, weighted):
        model = scatter_case_model(backbone, 7, 11, seed=80)
        rng = np.random.default_rng(81)
        users, pos, negs = random_batch(rng, 7, 11, 200)
        weights = rng.uniform(0.1, 2.0, size=200) if weighted else None
        with_loss = batch_gradients(model, users, pos, negs, 1e-3, weights)
        without = batch_gradients(model, users, pos, negs, 1e-3, weights, loss=False)
        assert len(without) == len(with_loss) == 2
        assert without[0] is None and np.isfinite(with_loss[0])
        assert np.array_equal(without[1], with_loss[1])

    @pytest.mark.parametrize("backbone,sampler", [("mf", "rns"), ("lightgcn", "dns")])
    def test_three_epochs_equal(self, drift_split, backbone, sampler, monkeypatch):
        config = ExperimentConfig(lr=0.02, batch_size=256, l2=1e-4, d=8, seeds=(3,),
                                  backbone=backbone, prop_layers=2, sampler=sampler, pool=5)
        pss = train_positives(drift_split)
        train = drift_split.train
        adjacency = None
        if backbone == "lightgcn":
            adjacency = build_norm_adjacency(train.users, train.items,
                                             drift_split.num_users, drift_split.num_items)
        inner = training.batch_gradients
        flags = []

        def spy(*args, loss=True, **kwargs):
            flags.append(loss)
            return inner(*args, loss=loss, **kwargs)

        monkeypatch.setattr(training, "batch_gradients", spy)
        runs = []
        for loss in (False, True):
            flags.clear()
            model = init_xavier(drift_split.num_users, drift_split.num_items, 8, 3,
                                backbone=backbone, num_prop_layers=2, adjacency=adjacency)
            adam = AdamState(model.num_users + model.num_items, model.dim)
            sampler_obj = NegativeSampler(config.sampler_spec(), train)
            rng = np.random.default_rng(5)
            stats = [train_epoch(model, pss, config, adam, drift_split, rng,
                                 sampler=sampler_obj, loss=loss) for _ in range(3)]
            # every batch computes the loss, or none does
            assert flags == [loss] * adam.step_count
            runs.append((model, adam, rng, stats))
        (m0, a0, r0, s0), (m1, a1, r1, s1) = runs
        assert all(st["loss"] is None for st in s0)
        assert all(np.isfinite(st["loss"]) for st in s1)
        assert [st["pairs"] for st in s0] == [st["pairs"] for st in s1]
        assert np.array_equal(m0.user_emb, m1.user_emb)
        assert np.array_equal(m0.item_emb, m1.item_emb)
        for name in ("m", "v"):
            assert np.array_equal(getattr(a0, name), getattr(a1, name))
        assert a0.step_count == a1.step_count == 3 * -(-len(pss) // 256)
        assert r0.bit_generator.state == r1.bit_generator.state

    @pytest.mark.parametrize("backbone,sampler", [("mf", "rns"), ("lightgcn", "dns")])
    def test_fit_equals_loss_on_every_epoch(self, drift_split, backbone, sampler,
                                            monkeypatch):
        config = ExperimentConfig(lr=0.02, batch_size=512, l2=1e-4, epochs=7, d=8,
                                  seeds=(2,), eval_every=3, backbone=backbone,
                                  prop_layers=2, sampler=sampler, pool=5)
        inner = training.train_epoch

        def run(force_loss):
            flags = []

            def spy(*args, loss=True, **kwargs):
                flags.append(loss)
                return inner(*args, loss=loss or force_loss, **kwargs)

            monkeypatch.setattr(training, "train_epoch", spy)
            model, history = fit(drift_split, config, pss=train_positives(drift_split))
            return model, history, flags

        gated, history, flags = run(force_loss=False)
        every, history_every, _ = run(force_loss=True)
        # the loss is computed on the reporting epochs 3 and 6 only
        assert flags == [False, False, True, False, False, True, False]
        assert [h["epoch"] for h in history] == [3, 6]
        assert all(np.isfinite(h["loss"]) for h in history)
        assert history == history_every
        assert gated.best_epoch == every.best_epoch
        assert np.array_equal(gated.user_emb, every.user_emb)
        assert np.array_equal(gated.item_emb, every.item_emb)


class TestTrainingStepMatchesOracle:
    """Two epochs of train_epoch equal a loop of the reference step.

    The reference samples with oracle_sample_batch, differentiates with
    oracle_batch_gradients and applies Adam as the textbook expression on
    fresh arrays, so buffer reuse or aliasing carried from one library step
    to the next shows up as a parameter difference.
    """

    @staticmethod
    def oracle_epochs(model, pss, config, split, rng, epochs, pair_weights):
        sampler = NegativeSampler(config.sampler_spec(), split.train)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, config.lr
        moments = {name: (np.zeros_like(emb), np.zeros_like(emb))
                   for name, emb in (("user", model.user_emb), ("item", model.item_emb))}
        t = 0
        for _ in range(epochs):
            order = rng.permutation(len(pss))
            for start in range(0, order.shape[0], config.batch_size):
                idx = order[start : start + config.batch_size]
                users, pos = pss.users[idx], pss.items[idx]
                negs = oracle_sample_batch(sampler, split.train, users, model, rng)
                w = pair_weights[idx] if pair_weights is not None else None
                _, grad_u, grad_i = oracle_batch_gradients(model, users, pos, negs, config.l2, w)
                t += 1
                new = []
                for name, g, params in (("user", grad_u, model.user_emb),
                                        ("item", grad_i, model.item_emb)):
                    m, v = moments[name]
                    m = b1 * m + (1.0 - b1) * g
                    v = b2 * v + (1.0 - b2) * np.square(g)
                    moments[name] = (m, v)
                    new.append(params + -lr * (m / (1.0 - b1 ** t))
                               / (np.sqrt(v / (1.0 - b2 ** t)) + eps))
                model.set_params(np.concatenate(new))

    @pytest.mark.parametrize("backbone,sampler,variant", [
        ("mf", "rns", "layered"),
        ("mf", "pns", "layered"),
        ("lightgcn", "dns", "layered"),
        ("lightgcn", "dns_mn", "layered"),
        ("mf", "rns", "weighted_bpr"),
    ])
    def test_two_epochs_equal_reference(self, drift_split, backbone, sampler, variant):
        exp = ExperimentConfig(variant=variant, backbone=backbone, sampler=sampler, layers=2,
                               rate=0.02, d=8, lr=0.02, batch_size=256, prop_layers=2,
                               pool=5, m=2, n=6)
        pss, weights = build_positives(drift_split, exp)
        config = exp.train_config(seed=4)
        adjacency = None
        if backbone == "lightgcn":
            train = drift_split.train
            adjacency = build_norm_adjacency(train.users, train.items,
                                             drift_split.num_users, drift_split.num_items)

        def fresh_model():
            return init_xavier(drift_split.num_users, drift_split.num_items, config.d,
                               config.seeds[0], backbone=backbone,
                               num_prop_layers=config.prop_layers, adjacency=adjacency)

        model = fresh_model()
        adam = AdamState(model.num_users + model.num_items, model.dim)
        sampler_obj = NegativeSampler(config.sampler_spec(), drift_split.train)
        rng = np.random.default_rng(9)
        for _ in range(2):
            train_epoch(model, pss, config, adam, drift_split, rng,
                        sampler=sampler_obj, pair_weights=weights)
        reference = fresh_model()
        self.oracle_epochs(reference, pss, config, drift_split, np.random.default_rng(9), 2,
                           weights)
        assert adam.step_count == 2 * -(-len(pss) // config.batch_size)
        assert np.array_equal(model.user_emb, reference.user_emb)
        assert np.array_equal(model.item_emb, reference.item_emb)


class TestAdamState:
    def test_in_place_step_matches_reference_bitwise(self):
        """500 steps equal the textbook expression evaluated with temporaries."""
        model = init_xavier(4, 6, 3, seed=41)
        adam = AdamState(4 + 6, 3)
        ref_u, ref_i = model.user_emb.copy(), model.item_emb.copy()
        moments = [np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((6, 3)), np.zeros((6, 3))]
        rng = np.random.default_rng(42)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        for t in range(1, 501):
            gu = rng.standard_normal((4, 3))
            gi = rng.standard_normal((6, 3))
            adam.step(model, np.concatenate([gu, gi]), lr)
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for (m, v), g, params in (((moments[0], moments[1]), gu, ref_u),
                                      ((moments[2], moments[3]), gi, ref_i)):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * np.square(g)
                params += -lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        assert np.array_equal(model.user_emb, ref_u)
        assert np.array_equal(model.item_emb, ref_i)
        assert np.array_equal(adam.m[4:], moments[2])
        assert np.array_equal(adam.v[:4], moments[1])

    def test_sgd_in_place_step_matches_reference_bitwise(self):
        """500 SGD steps equal params += -lr * g evaluated with a temporary."""
        model = init_xavier(4, 6, 3, seed=43)
        ref = model.params.copy()
        rng = np.random.default_rng(44)
        for _ in range(500):
            g = rng.standard_normal((10, 3))
            SGD().step(model, g.copy(), 0.05)
            ref += -0.05 * g
        assert np.array_equal(model.params, ref)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_step_consumes_grad(self, optimizer):
        """A step leaves its update in the gradient's buffer and adds exactly that."""
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        model = init_xavier(4, 6, 3, seed=45)
        state = SGD() if optimizer == "sgd" else AdamState(4 + 6, 3)
        m, v = np.zeros((10, 3)), np.zeros((10, 3))
        rng = np.random.default_rng(46)
        for t in range(1, 4):
            g = rng.standard_normal((10, 3))
            if optimizer == "sgd":
                want = -lr * g
            else:
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * np.square(g)
                want = -lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            before = model.params.copy()
            grad = g.copy()
            state.step(model, grad, lr)
            assert np.array_equal(grad, want)
            assert np.array_equal(model.params, before + grad)

    def test_state_is_three_arrays(self):
        """m, v and one scratch array: AdamState(n, d) allocates three (n, d)
        float64 arrays, and a fourth would cross the bound."""
        n, d = 4096, 32
        tracemalloc.start()
        try:
            state = AdamState(n, d)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 3 * n * d * 8 <= held < 4 * n * d * 8
        assert state.m.shape == state.v.shape == (n, d)

    def test_first_step_matches_manual_formula(self):
        model = init_xavier(2, 3, 4, seed=8)
        before_u = model.user_emb.copy()
        adam = AdamState(2 + 3, 4)
        rng = np.random.default_rng(40)
        gu = rng.standard_normal((2, 4))
        gi = rng.standard_normal((3, 4))
        adam.step(model, np.concatenate([gu, gi]), lr=0.01)
        m = 0.1 * gu
        v = 0.001 * np.square(gu)
        want = before_u - 0.01 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
        assert model.user_emb == pytest.approx(want, rel=1e-12)
        assert adam.step_count == 1

    def test_moments_accumulate(self):
        model = init_xavier(1, 1, 2, seed=9)
        adam = AdamState(1 + 1, 2)
        g = np.ones((1, 2))
        adam.step(model, np.concatenate([g, g]), lr=0.1)
        adam.step(model, np.concatenate([g, g]), lr=0.1)
        assert adam.step_count == 2
        assert adam.m[:1] == pytest.approx(np.full((1, 2), 1 - 0.9**2), rel=1e-12)


class TestTrainEpoch:
    def test_sgd_single_batch_manual_update(self):
        split = forced_negative_split()
        pss = train_positives(split)
        config = ExperimentConfig(lr=0.1, batch_size=100, l2=0.01, epochs=1, d=4,
                                  seeds=(3,), optimizer="sgd", eval_every=1)
        model = init_xavier(2, 3, 4, seed=3)
        before_u = model.user_emb.copy()
        before_i = model.item_emb.copy()

        rng_clone = np.random.default_rng(9)
        order = rng_clone.permutation(len(pss))
        users, pos = pss.users[order], pss.items[order]
        negs = np.where(users == 0, 2, 1)  # the only valid negatives
        probe = EmbeddingModel(before_u, before_i)
        _, grad = batch_gradients(probe, users, pos, negs, config.l2)
        gu, gi = grad[:2], grad[2:]

        train_epoch(model, pss, config, SGD(), split, np.random.default_rng(9),
                    NegativeSampler(config.sampler_spec(), split.train))
        assert np.array_equal(model.user_emb, before_u + (-config.lr * gu))
        assert np.array_equal(model.item_emb, before_i + (-config.lr * gi))

    def test_full_pass_visits_each_instance_once(self):
        split = forced_negative_split()
        pss = train_positives(split)
        config = ExperimentConfig(lr=0.01, batch_size=2, epochs=1, d=4, seeds=(0,))
        model = init_xavier(2, 3, 4, seed=0)
        stats = train_epoch(model, pss, config, AdamState(2 + 3, 4), split,
                            np.random.default_rng(1),
                            NegativeSampler(config.sampler_spec(), split.train))
        rows = stats["rows"]
        counter = Counter(zip(pss.users[rows].tolist(), pss.items[rows].tolist()))
        assert stats["pairs"] == len(pss) == 4
        assert counter == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 2): 1}

    def test_pi_sample_draws_train_size(self):
        split = forced_negative_split()
        graph = build_weighted_graph(split.train, DecaySpec(rate=0.0))
        pss = build_pss(filtrate(graph, 3))  # 12 instances, 4 train edges
        config = ExperimentConfig(lr=0.01, batch_size=3, epochs=1, d=4, seeds=(0,),
                                  epoch_mode="pi_sample")
        model = init_xavier(2, 3, 4, seed=0)
        stats = train_epoch(model, pss, config, AdamState(2 + 3, 4), split,
                            np.random.default_rng(2),
                            NegativeSampler(config.sampler_spec(), split.train))
        rows = stats["rows"]
        counter = Counter(zip(pss.users[rows].tolist(), pss.items[rows].tolist()))
        assert stats["pairs"] == len(split.train) == 4
        assert sum(counter.values()) == 4

    def test_weighted_all_ones_equals_standard(self):
        split = forced_negative_split()
        pss = train_positives(split)
        config = ExperimentConfig(lr=0.05, batch_size=2, epochs=1, d=4, seeds=(5,))
        m1 = init_xavier(2, 3, 4, seed=5)
        m2 = init_xavier(2, 3, 4, seed=5)
        a1, a2 = AdamState(2 + 3, 4), AdamState(2 + 3, 4)
        sampler = NegativeSampler(config.sampler_spec(), split.train)
        for _ in range(3):
            train_epoch(m1, pss, config, a1, split, np.random.default_rng(7), sampler)
            train_epoch(m2, pss, config, a2, split, np.random.default_rng(7), sampler,
                        pair_weights=np.ones(len(pss)))
        assert np.array_equal(m1.user_emb, m2.user_emb)
        assert np.array_equal(m1.item_emb, m2.item_emb)

    def test_rate_zero_decay_weights_equal_standard(self):
        """Zero decay rate makes every recency weight 1, so the weighted
        variant's trajectory is bit-identical to the unweighted one."""
        split = forced_negative_split()
        pss = train_positives(split)
        graph = build_weighted_graph(split.train, DecaySpec(rate=0.0))
        lookup = pair_weight_lookup(graph)
        weights = np.array([lookup[(int(u), int(p))]
                            for u, p in zip(pss.users, pss.items)])
        config = ExperimentConfig(lr=0.05, batch_size=4, epochs=1, d=4, seeds=(6,))
        m1 = init_xavier(2, 3, 4, seed=6)
        m2 = init_xavier(2, 3, 4, seed=6)
        a1, a2 = AdamState(2 + 3, 4), AdamState(2 + 3, 4)
        sampler = NegativeSampler(config.sampler_spec(), split.train)
        train_epoch(m1, pss, config, a1, split, np.random.default_rng(8), sampler)
        train_epoch(m2, pss, config, a2, split, np.random.default_rng(8), sampler,
                    pair_weights=weights)
        assert np.array_equal(m1.user_emb, m2.user_emb)

    def test_determinism_and_seed_sensitivity(self, drift_split):
        pss = train_positives(drift_split)
        config = ExperimentConfig(lr=0.01, batch_size=256, epochs=1, d=8, seeds=(0,))

        def one_epoch(rng_seed):
            model = init_xavier(drift_split.num_users, drift_split.num_items, 8, seed=0)
            adam = AdamState(drift_split.num_users + drift_split.num_items, 8)
            train_epoch(model, pss, config, adam, drift_split,
                        np.random.default_rng(rng_seed),
                        NegativeSampler(config.sampler_spec(), drift_split.train))
            return model

        a, b, c = one_epoch(5), one_epoch(5), one_epoch(6)
        assert np.array_equal(a.user_emb, b.user_emb)
        assert not np.array_equal(a.user_emb, c.user_emb)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN flows through logaddexp
    def test_divergence_detected(self):
        split = forced_negative_split()
        pss = train_positives(split)
        config = ExperimentConfig(lr=0.1, batch_size=4, epochs=1, d=4, seeds=(0,))
        model = init_xavier(2, 3, 4, seed=0)
        bad = model.params.copy()
        bad[0, 0] = np.nan
        model.set_params(bad)
        with pytest.raises(TrainingDiverged):
            train_epoch(model, pss, config, AdamState(2 + 3, 4), split,
                        np.random.default_rng(0),
                        NegativeSampler(config.sampler_spec(), split.train))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sgd_divergence_names_its_batch(self):
        """SGD builds and steps no Adam state, so the message counts the
        epoch's batches instead of claiming an optimizer step."""
        split = forced_negative_split()
        config = ExperimentConfig(lr=1e200, batch_size=3, epochs=5, d=4, seeds=(0,),
                                  optimizer="sgd", eval_every=1)
        optimizer = training.init_training(split, config)[1]
        assert isinstance(optimizer, SGD) and vars(optimizer) == {}  # no moment arrays
        with pytest.raises(TrainingDiverged) as exc:
            fit(split, config, pss=train_positives(split))
        assert str(exc.value) == "non-finite parameters after SGD batch 2 of the epoch"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_stops_at_the_first_bad_batch(self, monkeypatch):
        """At lr=1e200 the parameters overflow on the second of four
        batches; that batch is named and no batch trains after it."""
        split = forced_negative_split()
        config = ExperimentConfig(lr=1e200, batch_size=1, epochs=1, d=4, seeds=(0,),
                                  optimizer="sgd")
        model, adam, sampler, rng = training.init_training(split, config)
        trained = []

        def spy(*args, **kwargs):
            trained.append(args[1])
            return batch_gradients(*args, **kwargs)

        monkeypatch.setattr(training, "batch_gradients", spy)
        with pytest.raises(TrainingDiverged) as exc:
            train_epoch(model, train_positives(split), config, adam, split, rng, sampler)
        assert str(exc.value) == "non-finite parameters after SGD batch 2 of the epoch"
        assert len(trained) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_adam_divergence_names_its_global_step(self):
        split = forced_negative_split()
        pss = train_positives(split)
        config = ExperimentConfig(lr=0.1, batch_size=3, epochs=1, d=4, seeds=(0,))
        model, adam, sampler, rng = training.init_training(split, config)
        train_epoch(model, pss, config, adam, split, rng, sampler)
        bad = model.params.copy()
        bad[0, 0] = np.nan
        model.set_params(bad)
        with pytest.raises(TrainingDiverged) as exc:
            train_epoch(model, pss, config, adam, split, rng, sampler)
        assert str(exc.value) == "non-finite parameters after Adam step 3"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the scores
    def test_dns_scores_overflowing_to_nan_diverge(self):
        """Finite parameters whose dns candidate scores overflow to NaN end
        the epoch with TrainingDiverged before the batch trains; the sampler
        picks num_items for such a pair, which no gradient can index."""
        train = make_log([("a", "i0", 1), ("a", "i1", 2), ("b", "i2", 3), ("b", "i3", 4)])
        split = SplitDataset(train=train, validation=empty_log(), test=empty_log(),
                             cutting_timestamp=5, num_users=2, num_items=4)
        config = ExperimentConfig(lr=0.1, batch_size=4, epochs=1, d=4, seeds=(0,),
                                  sampler="dns")
        model, adam, sampler, rng = training.init_training(split, config)
        # every user entry +1e200 and item entries of alternating sign: each
        # score is inf + -inf, although every parameter is finite
        huge = np.full((6, 4), 1e200)
        huge[2:, 1::2] = -1e200
        model.set_params(huge)
        assert np.isfinite(model.params).all()
        with pytest.raises(TrainingDiverged) as exc:
            train_epoch(model, train_positives(split), config, adam, split, rng, sampler)
        assert str(exc.value) == "non-finite candidate scores in batch 1 of the epoch"
        assert np.array_equal(model.params, huge) and adam.step_count == 0

    def test_empty_pss_raises(self):
        split = forced_negative_split()
        pss = train_positives(split)
        empty = type(pss)(
            users=pss.users[:0], items=pss.items[:0], layers=pss.layers[:0],
            weights=pss.weights[:0], num_users=2, num_items=3,
        )
        config = ExperimentConfig(epochs=1, d=4)
        with pytest.raises(ValueError, match="empty"):
            train_epoch(init_xavier(2, 3, 4, seed=0), empty, config,
                        AdamState(2 + 3, 4), split, np.random.default_rng(0),
                        NegativeSampler(config.sampler_spec(), split.train))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="optimizer"):
            ExperimentConfig(optimizer="rmsprop")
        with pytest.raises(ValueError, match="epoch_mode"):
            ExperimentConfig(epoch_mode="bootstrap")
        with pytest.raises(ValueError, match="lr"):
            ExperimentConfig(lr=0.0)
        with pytest.raises(ValueError, match="epochs"):
            ExperimentConfig(epochs=-1)
        for backbone in ("mf", "lightgcn"):
            with pytest.raises(ValueError, match="prop_layers"):
                ExperimentConfig(backbone=backbone, prop_layers=-1)
        assert ExperimentConfig(prop_layers=0).prop_layers == 0

    def test_config_with(self):
        base = ExperimentConfig(lr=0.01)
        changed = config_with(base, lr=0.5, d=8)
        assert changed.lr == 0.5 and changed.d == 8 and changed.batch_size == base.batch_size


class TestFit:
    def small_config(self, **overrides):
        base = dict(lr=0.02, batch_size=512, l2=1e-4, epochs=12, d=8, seeds=(0,),
                    eval_every=4)
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_epochs_zero_returns_init(self, drift_split):
        config = self.small_config(epochs=0)
        model, history = fit(drift_split, config, pss=train_positives(drift_split))
        assert history == []
        init = init_xavier(drift_split.num_users, drift_split.num_items, 8, seed=0)
        assert np.array_equal(model.user_emb, init.user_emb)

    def test_fit_trains_the_first_seed(self, drift_split):
        pss = train_positives(drift_split)
        model, history = fit(drift_split, self.small_config(seeds=(5, 6)), pss=pss)
        first, first_history = fit(drift_split, self.small_config().train_config(5), pss=pss)
        assert np.array_equal(model.params, first.params)
        assert history == first_history

    def test_history_length(self, drift_split):
        model, history = fit(drift_split, self.small_config(), pss=train_positives(drift_split))
        assert len(history) == 12 // 4
        assert [h["epoch"] for h in history] == [4, 8, 12]

    def test_best_model_attains_max_validation_recall(self, drift_split):
        from driftrec.metrics import evaluate

        model, history = fit(drift_split, self.small_config(), pss=train_positives(drift_split),
                             ks=(20, 30))
        best_in_history = max(h["recall@20"] for h in history)
        report = evaluate(model, drift_split, ks=(20,), part="validation", per_user=False)
        assert report.aggregates[20]["recall"] == pytest.approx(best_in_history, abs=1e-15)
        assert model.best_epoch in [h["epoch"] for h in history]

    def test_deterministic(self, drift_split):
        m1, h1 = fit(drift_split, self.small_config(), pss=train_positives(drift_split))
        m2, h2 = fit(drift_split, self.small_config(), pss=train_positives(drift_split))
        assert np.array_equal(m1.user_emb, m2.user_emb)
        assert np.array_equal(m1.item_emb, m2.item_emb)
        assert h1 == h2

    def test_loss_decreases(self, drift_split):
        config = self.small_config(epochs=15, eval_every=1, lr=0.05)
        _, history = fit(drift_split, config, pss=train_positives(drift_split))
        losses = [h["loss"] for h in history]
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_metrics_jsonl(self, drift_split, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        fit(drift_split, self.small_config(), pss=train_positives(drift_split), metrics_path=path)
        lines = [json.loads(line) for line in open(path)]
        assert len(lines) == 3
        for rec in lines:
            assert set(rec) == {
                "epoch", "loss", "recall@20", "ndcg@20", "recall@30", "ndcg@30", "wall_ms",
            }

    def test_checkpoint_written_on_improvement(self, drift_split, tmp_path):
        path = str(tmp_path / "best.ckpt")
        model, history = fit(drift_split, self.small_config(), pss=train_positives(drift_split),
                             checkpoint_path=path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.user_emb, model.user_emb)
        assert np.array_equal(loaded.item_emb, model.item_emb)

    def test_checkpoint_without_validation_holds_the_final_model(self, drift_split, tmp_path):
        path = str(tmp_path / "final.ckpt")
        model, history = fit(drift_split, self.small_config(epochs=3, eval_every=4),
                             pss=train_positives(drift_split), checkpoint_path=path)
        assert history == [] and model.best_epoch is None
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.params, model.params)

    def test_layered_pss_trains(self, drift_split):
        graph = build_weighted_graph(drift_split.train, DecaySpec(rate=0.05))
        pss = build_pss(filtrate(graph, 3))
        model, history = fit(drift_split, self.small_config(epochs=4), pss=pss)
        assert len(history) == 1
        assert np.all(np.isfinite(model.user_emb))

    def test_lightgcn_fit_runs(self, drift_split):
        config = self.small_config(epochs=4, backbone="lightgcn", prop_layers=2)
        model, history = fit(drift_split, config, pss=train_positives(drift_split))
        assert model.backbone == "lightgcn"
        assert len(history) == 1
        assert np.all(np.isfinite(model.score_all(0)))
