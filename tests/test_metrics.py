"""Ranking metric tests, checked against the pure-Python oracle in conftest."""

import io
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from driftrec import metrics
from driftrec.data import InteractionLog, SplitDataset
from driftrec.models import EmbeddingModel, init_xavier
from driftrec.metrics import (
    evaluate,
    margin_surrogate,
    ndcg_at_k,
    rank_items,
    recall_at_k,
)
from driftrec.experiment import ExperimentConfig
from driftrec.training import fit
from conftest import (
    oracle_evaluate,
    oracle_evaluate_loop,
    oracle_ndcg,
    oracle_rank,
    oracle_recall,
)


def model_with_scores(score_rows):
    """MF model whose score matrix equals the given (users x items) array."""
    scores = np.asarray(score_rows, dtype=np.float64)
    num_users, num_items = scores.shape
    ue = np.zeros((num_users, num_users))
    for u in range(num_users):
        ue[u, u] = 1.0
    ie = np.zeros((num_items, num_users))
    for u in range(num_users):
        ie[:, u] = scores[u]
    return EmbeddingModel(ue, ie)


def split_of(train_pairs, test_pairs, num_users, num_items, val_pairs=()):
    def log_of(pairs):
        pairs = list(pairs)
        return InteractionLog(
            users=np.array([u for u, _ in pairs], dtype=np.int64),
            items=np.array([i for _, i in pairs], dtype=np.int64),
            times=np.zeros(len(pairs), dtype=np.int64),
            user_vocab={},
            item_vocab={},
        )

    return SplitDataset(
        train=log_of(train_pairs),
        validation=log_of(val_pairs),
        test=log_of(test_pairs),
        cutting_timestamp=0,
        num_users=num_users,
        num_items=num_items,
    )


class TestRankItems:
    def test_descending_by_score(self):
        model = model_with_scores([[0.1, 0.9, 0.5]])
        ranked = rank_items(model, 0, np.empty(0, dtype=np.int64))
        assert ranked.tolist() == [1, 2, 0]

    def test_tie_broken_by_index(self):
        model = model_with_scores([[0.5, 0.5, 0.9, 0.5]])
        ranked = rank_items(model, 0, np.empty(0, dtype=np.int64))
        assert ranked.tolist() == [2, 0, 1, 3]

    def test_exclusion_preserves_order(self):
        model = model_with_scores([[0.1, 0.9, 0.5, 0.7]])
        ranked = rank_items(model, 0, np.array([1, 2]))
        assert ranked.tolist() == [3, 0]

    def test_matches_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(30):
            n_items = int(rng.integers(1, 40))
            scores = rng.standard_normal(n_items)
            # force some exact ties
            if n_items >= 4:
                scores[1] = scores[0]
                scores[3] = scores[2]
            model = model_with_scores([scores])
            n_ex = int(rng.integers(0, n_items))
            exclude = rng.choice(n_items, size=n_ex, replace=False)
            got = rank_items(model, 0, exclude).tolist()
            want = oracle_rank(scores.tolist(), exclude.tolist())
            assert got == want


class TestRecall:
    def test_basic_examples(self):
        ranked = np.array([4, 2, 7, 1, 0])
        assert recall_at_k(ranked, np.array([2, 9]), 2) == 0.5
        assert recall_at_k(ranked, np.array([2, 7]), 3) == 1.0
        assert recall_at_k(ranked, np.array([9]), 5) == 0.0

    def test_k_larger_than_ranking(self):
        ranked = np.array([3, 1])
        assert recall_at_k(ranked, np.array([1]), 50) == 1.0


class TestNdcg:
    def test_rank_one_single_positive(self):
        assert ndcg_at_k(np.array([5, 1, 2]), np.array([5]), 20) == 1.0

    def test_rank_three_single_positive(self):
        # DCG = 1/log2(4) = 0.5, IDCG = 1
        got = ndcg_at_k(np.array([9, 8, 5, 1]), np.array([5]), 20)
        assert got == 0.5

    def test_no_hits(self):
        assert ndcg_at_k(np.array([1, 2, 3]), np.array([7]), 3) == 0.0

    def test_perfect_prefix_is_one(self):
        ranked = np.array([3, 1, 4, 0, 2])
        assert ndcg_at_k(ranked, np.array([3, 1, 4]), 3) == 1.0

    def test_idcg_truncates_at_k(self):
        # 3 positives but k=2: ideal DCG uses only 2 slots, so putting both
        # leading slots on positives is "perfect" even with one positive missing
        ranked = np.array([3, 1, 0, 2])
        assert ndcg_at_k(ranked, np.array([3, 1, 4]), 2) == 1.0

    def test_hand_computed_mixture(self):
        # hits at ranks 1 and 4 of k=5, |P| = 3
        ranked = np.array([7, 5, 6, 8, 9])
        pos = np.array([7, 8, 0])
        dcg = 1 / math.log2(2) + 1 / math.log2(5)
        idcg = 1 / math.log2(2) + 1 / math.log2(3) + 1 / math.log2(4)
        assert ndcg_at_k(ranked, pos, 5) == pytest.approx(dcg / idcg, rel=1e-15)


class TestEvaluate:
    def test_perfect_model_scores_one(self):
        # test positives are exactly the items the model ranks first
        model = model_with_scores([[0.9, 0.5, 0.1], [0.1, 0.9, 0.5]])
        split = split_of([], [(0, 0), (1, 1)], 2, 3)
        report = evaluate(model, split, ks=(1,), part="test")
        assert report.aggregates[1] == {"recall": 1.0, "ndcg": 1.0}
        assert report.users_evaluated == 2

    def test_train_items_excluded(self):
        # item 0 tops user 0's scores but is in train, so rank 1 is item 1
        model = model_with_scores([[0.9, 0.5, 0.1]])
        split = split_of([(0, 0)], [(0, 1)], 1, 3)
        report = evaluate(model, split, ks=(1,), part="test")
        assert report.aggregates[1]["recall"] == 1.0

    def test_users_without_positives_skipped(self):
        model = model_with_scores([[0.9, 0.5], [0.5, 0.9]])
        split = split_of([], [(1, 1)], 2, 2)
        report = evaluate(model, split, ks=(1,), part="test")
        assert report.users_evaluated == 1
        assert report.per_user[0]["user"] == 1

    def test_empty_part_gives_zero_aggregates(self):
        model = model_with_scores([[0.9, 0.5]])
        split = split_of([(0, 0)], [], 1, 2)
        report = evaluate(model, split, ks=(5,), part="test")
        assert report.users_evaluated == 0
        assert report.aggregates[5] == {"recall": 0.0, "ndcg": 0.0}

    def test_validation_part(self):
        model = model_with_scores([[0.9, 0.5, 0.1]])
        split = split_of([(0, 0)], [], 1, 3, val_pairs=[(0, 2)])
        report = evaluate(model, split, ks=(1, 2), part="validation")
        assert report.aggregates[1]["recall"] == 0.0
        assert report.aggregates[2]["recall"] == 1.0

    def test_oracle_equivalence_random_instances(self):
        """Vectorized metrics equal the loop-and-tuple-sort oracle exactly."""
        rng = np.random.default_rng(61)
        for _ in range(50):
            num_users = int(rng.integers(1, 21))
            num_items = int(rng.integers(2, 51))
            model = init_xavier(num_users, num_items, 4, seed=int(rng.integers(1000)))
            pairs = []
            for u in range(num_users):
                items = rng.choice(num_items, size=int(rng.integers(0, min(6, num_items))),
                                   replace=False)
                pairs += [(u, int(i)) for i in items]
            if not pairs:
                continue
            rng.shuffle(pairs)
            cut = len(pairs) // 2
            split = split_of(pairs[:cut], pairs[cut:], num_users, num_items)
            if len(pairs[cut:]) == 0:
                continue
            ks = (1, 5, 20)
            report = evaluate(model, split, ks=ks, part="test")
            want = oracle_evaluate(model, split, ks, part="test")
            assert report.users_evaluated == len(want)
            for rec in report.per_user:
                u = rec["user"]
                for k in ks:
                    assert rec[f"recall@{k}"] == want[u][k][0]
                    assert rec[f"ndcg@{k}"] == want[u][k][1]
            for k in ks:
                recalls = [want[u][k][0] for u in want]
                # sequential small sums match numpy exactly below pairwise cutoff
                assert report.aggregates[k]["recall"] == sum(recalls) / len(recalls)

    def test_per_user_disabled(self):
        model = model_with_scores([[0.9, 0.5]])
        split = split_of([], [(0, 0)], 1, 2)
        report = evaluate(model, split, ks=(1,), per_user=False)
        assert report.per_user is None
        assert "per_user" not in report.to_dict()

    def test_bad_args(self):
        model = model_with_scores([[0.9, 0.5]])
        split = split_of([], [(0, 0)], 1, 2)
        with pytest.raises(ValueError, match="part"):
            evaluate(model, split, part="holdout")
        with pytest.raises(ValueError, match="positive"):
            evaluate(model, split, ks=(0,))

    def test_csv_and_json_exports(self):
        model = model_with_scores([[0.9, 0.5, 0.1]])
        split = split_of([], [(0, 0)], 1, 3)
        report = evaluate(model, split, ks=(1, 2))
        doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert doc["metrics"]["1"]["recall"] == 1.0
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k,recall,ndcg,users_evaluated"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "1.0"


def assert_matches_loop(model, split, ks, part="test", per_user=True):
    """evaluate() equals the per-user loop exactly: records, key order, aggregates."""
    report = evaluate(model, split, ks=ks, part=part, per_user=per_user)
    records, aggregates, n_users = oracle_evaluate_loop(model, split, ks, part, per_user)
    assert report.users_evaluated == n_users
    assert report.aggregates == aggregates
    assert report.per_user == records
    assert json.dumps(report.per_user) == json.dumps(records)
    return report


def random_pairs(rng, num_users, num_items, per_user):
    """Distinct (user, item) pairs, ``per_user`` for every user, shuffled."""
    pairs = [
        (u, int(i))
        for u in range(num_users)
        for i in rng.choice(num_items, size=per_user, replace=False)
    ]
    rng.shuffle(pairs)
    return pairs


@pytest.fixture(scope="module", params=["mf", "lightgcn"])
def trained_drift_model(request, drift_split):
    config = ExperimentConfig(lr=0.02, batch_size=512, epochs=8, d=16, seeds=(3,),
                              eval_every=4, backbone=request.param, prop_layers=2)
    model, _ = fit(drift_split, config)
    return model


class TestBlockedEvaluationMatchesLoop:
    """The blocked, vectorised evaluate against the per-user argsort loop, with ==."""

    @pytest.mark.parametrize("part", ["train", "validation", "test"])
    @pytest.mark.parametrize("ks", [(20,), (20, 30), (1, 5, 50)])
    def test_trained_drift_models(self, trained_drift_model, drift_split, part, ks):
        assert_matches_loop(trained_drift_model, drift_split, ks, part=part)

    def test_trained_drift_model_in_small_blocks(self, trained_drift_model, drift_split,
                                                 monkeypatch):
        monkeypatch.setattr(metrics, "BLOCK_SCORES", 7 * drift_split.num_items + 3)
        assert_matches_loop(trained_drift_model, drift_split, (1, 20, 30))
        monkeypatch.setattr(metrics, "BLOCK_SCORES", 1)
        assert_matches_loop(trained_drift_model, drift_split, (5, 20))
        # 7 users per block, scored 3, 3 and 1 per matrix product
        monkeypatch.setattr(metrics, "BLOCK_SCORES", 7 * drift_split.num_items)
        monkeypatch.setattr(metrics, "GEMM_MACS",
                            3 * trained_drift_model.scoring_embeddings()[1].size + 1)
        assert_matches_loop(trained_drift_model, drift_split, (1, 20, 30))

    def test_per_user_disabled(self, trained_drift_model, drift_split):
        report = assert_matches_loop(trained_drift_model, drift_split, (20, 30), per_user=False)
        assert report.per_user is None

    def test_quantized_scores_tie_everywhere(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            num_users, num_items = int(rng.integers(1, 15)), int(rng.integers(2, 60))
            scores = np.round(rng.standard_normal((num_users, num_items)) * 2) / 4
            pairs = random_pairs(rng, num_users, num_items, min(num_items, 6))
            cut = len(pairs) // 2
            split = split_of(pairs[:cut], pairs[cut:], num_users, num_items,
                             val_pairs=pairs[cut : cut + 3])
            for part in ("train", "validation", "test"):
                assert_matches_loop(model_with_scores(scores), split, (1, 3, 10), part=part)

    @pytest.mark.parametrize("d", [8, 32])
    def test_duplicate_item_rows_tie_exactly(self, d):
        # one matrix-vector product per user gives equal rows equal scores,
        # so each group of duplicates ranks by item index
        rng = np.random.default_rng(75)
        num_users, num_items = 120, 300
        base = rng.standard_normal((6, d))
        model = EmbeddingModel(rng.standard_normal((num_users, d)),
                               base[rng.integers(0, 6, size=num_items)])
        pairs = random_pairs(rng, num_users, num_items, 40)
        split = split_of(pairs[:1800], pairs[1800:], num_users, num_items)
        assert_matches_loop(model, split, (5, 20, 60))

    def test_fewer_rankable_items_than_cutoff(self):
        rng = np.random.default_rng(71)
        scores = np.round(rng.standard_normal((4, 10)), 1)
        # user 0 keeps 2 rankable items, user 1 one, user 2 all ten
        train = [(0, i) for i in range(8)] + [(1, i) for i in range(10) if i != 4]
        test = [(0, 8), (0, 9), (1, 4), (2, 3), (2, 7), (3, 0)]
        split = split_of(train, test, 4, 10)
        for ks in ((1, 2, 3), (5, 10, 11), (50,)):
            assert_matches_loop(model_with_scores(scores), split, ks)

    def test_infinite_and_nan_scores(self):
        scores = np.array([
            [np.inf, 1.0, -np.inf, 0.5, np.nan, 2.0],
            [np.nan, np.nan, np.nan, np.nan, np.nan, np.nan],
            [-np.inf, -np.inf, 0.0, -np.inf, np.inf, np.inf],
        ])
        split = split_of([(0, 5), (1, 0), (2, 4)],
                         [(0, 0), (0, 2), (0, 4), (1, 3), (2, 0), (2, 3), (2, 5)], 3, 6)
        for ks in ((1, 2), (3, 4, 6)):
            assert_matches_loop(model_with_scores(scores), split, ks)

    def test_many_hits_take_the_pairwise_sum(self):
        # 12 of the top 20 are positives, so DCG sums 8 or more terms pairwise
        rng = np.random.default_rng(72)
        num_items = 40
        scores = rng.standard_normal((3, num_items))
        top = np.argsort(-scores, kind="stable", axis=1)[:, :20]
        test = [(u, int(i)) for u in range(3) for i in top[u, ::2]]
        test += [(u, int(i)) for u in range(3) for i in top[u, 1:8:3]]
        split = split_of([], test, 3, num_items)
        report = assert_matches_loop(model_with_scores(scores), split, (8, 10, 20, 30))
        assert all(rec["recall@20"] == 1.0 for rec in report.per_user)

    def test_empty_holdout(self, trained_drift_model, drift_split):
        split = split_of(list(zip(drift_split.train.users.tolist(),
                                  drift_split.train.items.tolist())),
                         [], drift_split.num_users, drift_split.num_items)
        report = assert_matches_loop(trained_drift_model, split, (20, 30))
        assert report.users_evaluated == 0 and report.per_user == []

    def test_users_span_several_blocks(self):
        rng = np.random.default_rng(73)
        num_users, num_items = 300, 3000  # 43 users per 1 MiB block
        model = init_xavier(num_users, num_items, 8, seed=4)
        pairs = random_pairs(rng, num_users, num_items, 12)
        split = split_of(pairs[: len(pairs) // 2], pairs[len(pairs) // 2 :],
                         num_users, num_items)
        assert metrics.BLOCK_SCORES // num_items < num_users // 3
        assert_matches_loop(model, split, (10, 20, 30))


def spy_exact_rows(monkeypatch):
    """Record the user of each row evaluate ranks through the per-user fallback.

    Only evaluate's lookup of ``rank_items`` in ``metrics`` is replaced; the
    reference loop in conftest keeps its own binding and is not counted.
    """
    calls = []

    def spy(model, user, exclude):
        calls.append(user)
        return rank_items(model, user, exclude)

    monkeypatch.setattr(metrics, "rank_items", spy)
    return calls


def one_ulp_twins(rng, num_pairs, d):
    """Item rows in pairs, the second of each pair one ulp above the first."""
    base = rng.standard_normal((num_pairs, d))
    items = np.empty((2 * num_pairs, d))
    items[0::2], items[1::2] = base, np.nextafter(base, np.inf)
    return items


class TestCertifiedRanking:
    """Rows ranked from one matrix product stay == to the per-user loop, and
    rows the rounding bound cannot certify go through the exact fallback."""

    def test_items_one_ulp_apart(self, monkeypatch):
        # twins score a few ulps apart, inside the tolerance, so any row whose
        # head holds both twins of a pair is recomputed one user at a time
        rng = np.random.default_rng(80)
        num_users, num_items = 40, 120
        model = EmbeddingModel(rng.standard_normal((num_users, 16)),
                               one_ulp_twins(rng, num_items // 2, 16))
        pairs = random_pairs(rng, num_users, num_items, 10)
        split = split_of(pairs[:200], pairs[200:], num_users, num_items)
        calls = spy_exact_rows(monkeypatch)
        assert_matches_loop(model, split, (1, 5, 20))
        assert len(calls) > 0

    def test_permuted_item_rows_tie_up_to_rounding(self, monkeypatch):
        # each user row is constant, so the items of one group of permuted rows
        # tie exactly and differ only by rounding, which the matrix product and
        # the per-user product do in different orders
        rng = np.random.default_rng(89)
        num_users, d = 30, 32
        base = rng.standard_normal((10, d))
        ie = np.concatenate([base[:, rng.permutation(d)] for _ in range(6)])
        ue = np.repeat(rng.standard_normal((num_users, 1)), d, axis=1)
        model = EmbeddingModel(ue, ie)
        pairs = random_pairs(rng, num_users, ie.shape[0], 8)
        split = split_of(pairs[:120], pairs[120:], num_users, ie.shape[0])
        for ks in ((1, 2), (1, 5, 20)):
            calls = spy_exact_rows(monkeypatch)
            report = assert_matches_loop(model, split, ks)
            assert len(calls) == report.users_evaluated

    @pytest.mark.parametrize("user_scale, item_scale", [
        (1e150, 1e150),  # scores near 1e301: a huge tolerance, still certified
        (1e-160, 1e-160),  # subnormal products: the absolute term decides
        (1e-170, 1e10),  # squared user norms would underflow to zero here
        (1e155, 1e155),  # products overflow: every row falls back
    ])
    def test_extreme_embedding_scales(self, user_scale, item_scale):
        rng = np.random.default_rng(81)
        num_users, num_items = 30, 200
        model = EmbeddingModel(rng.standard_normal((num_users, 32)) * user_scale,
                               rng.standard_normal((num_items, 32)) * item_scale)
        pairs = random_pairs(rng, num_users, num_items, 8)
        split = split_of(pairs[:120], pairs[120:], num_users, num_items)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_matches_loop(model, split, (1, 10, 20))

    def test_rows_with_fewer_rankable_items_than_the_head(self, monkeypatch):
        # user u keeps items 0 .. u + 14: users 0-5 have at most 20, fewer than
        # the kmax + 1 = 21 a certificate needs, and only they fall back
        rng = np.random.default_rng(82)
        num_users, num_items = 12, 30
        model = EmbeddingModel(rng.standard_normal((num_users, 8)),
                               rng.standard_normal((num_items, 8)))
        train = [(u, i) for u in range(num_users) for i in range(u + 15, num_items)]
        test = [(u, int(rng.integers(0, u + 15))) for u in range(num_users)]
        split = split_of(train, test, num_users, num_items)
        calls = spy_exact_rows(monkeypatch)
        assert_matches_loop(model, split, (5, 20))
        assert calls == [0, 1, 2, 3, 4, 5]

    def test_non_finite_user_rows_fall_back_alone(self, monkeypatch):
        rng = np.random.default_rng(83)
        num_users, num_items = 10, 40
        ue = rng.standard_normal((num_users, 8))
        ue[3, 2], ue[7, 0] = np.nan, -np.inf
        model = EmbeddingModel(ue, rng.standard_normal((num_items, 8)))
        pairs = random_pairs(rng, num_users, num_items, 6)
        split = split_of(pairs[:30], pairs[30:], num_users, num_items)
        calls = spy_exact_rows(monkeypatch)
        assert_matches_loop(model, split, (1, 3, 10))
        assert calls == [3, 7]

    def test_overflowing_bound_warns_nothing(self, monkeypatch):
        # rows 2 and 7 score 1e300 * item[0], all finite, but their bound
        # 1e300 * max |item entry| (1e9-scale column 1) overflows: they fall
        # back quietly
        rng = np.random.default_rng(90)
        num_users, num_items = 12, 40
        ue = rng.standard_normal((num_users, 4))
        ue[[2, 7]] = [1e300, 0.0, 0.0, 0.0]
        ie = rng.standard_normal((num_items, 4))
        ie[:, 1] *= 1e9
        model = EmbeddingModel(ue, ie)
        pairs = random_pairs(rng, num_users, num_items, 6)
        split = split_of(pairs[:36], pairs[36:], num_users, num_items)
        calls = spy_exact_rows(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_loop(model, split, (1, 5, 10))
        assert calls == [2, 7]

    @pytest.mark.parametrize("part", ["validation", "test"])
    def test_every_row_uncertified(self, trained_drift_model, drift_split, part, monkeypatch):
        certified_head = metrics._certified_head

        def certify_none(*args):
            head, certain = certified_head(*args)
            return head, np.zeros_like(certain)

        monkeypatch.setattr(metrics, "_certified_head", certify_none)
        calls = spy_exact_rows(monkeypatch)
        report = assert_matches_loop(trained_drift_model, drift_split, (1, 20, 30), part=part)
        assert len(calls) == report.users_evaluated > 0


def certify(ue, ie, kmax, excluded=()):
    """_certified_head on the negated matrix product of ue and ie."""
    neg = -(ue @ ie.T)
    for row, item in excluded:
        neg[row, item] = np.inf
    with np.errstate(invalid="ignore"):
        item_abs_max = np.abs(ie).max()
    return metrics._certified_head(neg, ue, item_abs_max, kmax)


class TestCertifiedHead:
    def test_separated_scores_are_certain_and_ordered(self):
        rng = np.random.default_rng(84)
        ue, ie = rng.standard_normal((20, 8)), rng.standard_normal((50, 8))
        head, certain = certify(ue, ie, 10)
        assert certain.all()
        assert np.array_equal(head, np.argsort(-(ue @ ie.T), axis=1, kind="stable")[:, :10])

    def test_one_ulp_twins_in_the_head_are_uncertain(self):
        rng = np.random.default_rng(85)
        ie = one_ulp_twins(rng, 30, 8)
        ue = rng.standard_normal((20, 8))
        _, certain = certify(ue, ie, 10)
        # a head of 11 from 30 twin pairs always holds both twins of some pair
        assert not certain.any()

    @pytest.mark.parametrize("scale", [1e-162, 1e155])
    def test_subnormal_and_overflowing_scales_are_uncertain(self, scale):
        # products near 1e-324 round to zero or a few subnormal steps; near
        # 1e310 they overflow
        rng = np.random.default_rng(86)
        ue, ie = rng.standard_normal((10, 32)) * scale, rng.standard_normal((60, 32)) * scale
        with np.errstate(over="ignore", invalid="ignore"):
            _, certain = certify(ue, ie, 5)
        assert not certain.any()

    def test_tolerance_is_eight_gamma_times_the_bound(self):
        # user (1, 0, ..., 0) makes each score exactly the item's first entry,
        # and the bound sum_k |u_k| * max |item entry| is 1
        d = 8
        gamma = d * 2.0**-53 / (1 - d * 2.0**-53)
        ue = np.eye(1, d)
        for gap, want in ((6 * gamma, False), (10 * gamma, True)):
            ie = np.zeros((4, d))
            ie[:, 0] = [1.0, 1.0 - gap, 0.5, 0.25]
            _, certain = certify(ue, ie, 2)
            assert certain.tolist() == [want]

    def test_scores_a_few_subnormal_steps_apart_are_uncertain(self):
        # scores 16 subnormal steps apart, below the absolute term of 8 * d steps
        d = 4
        ue = 2.0**-1000 * np.eye(1, d)
        ie = np.zeros((6, d))
        ie[:, 0] = np.arange(6, 0, -1) * 2.0**-70
        _, certain = certify(ue, ie, 3)
        assert certain.tolist() == [False]
        _, certain = certify(ue * 2.0**20, ie, 3)  # 2**24 steps apart
        assert certain.tolist() == [True]

    def test_bound_near_overflow_is_uncertain(self):
        # finite, well separated scores, but a bound over half the largest
        # double leaves room for a partial sum to overflow in another order
        ue = np.array([[1.5e308, 0.0]])
        ie = np.array([[1.0, 0.0], [0.5, 0.0], [0.25, 0.0], [0.125, 0.0]])
        _, certain = certify(ue, ie, 2)
        assert certain.tolist() == [False]
        _, certain = certify(ue / 2, ie, 2)
        assert certain.tolist() == [True]

    def test_too_few_rankable_items_are_uncertain(self):
        rng = np.random.default_rng(87)
        ue, ie = rng.standard_normal((3, 8)), rng.standard_normal((12, 8))
        # row 0 keeps 5 rankable items, one short of the head of kmax + 1 = 6
        _, certain = certify(ue, ie, 5, excluded=[(0, i) for i in range(7)])
        assert certain.tolist() == [False, True, True]
        _, certain = certify(ue, ie[:5], 5)  # no more items than kmax
        assert not certain.any()

    def test_non_finite_embeddings_are_uncertain(self):
        rng = np.random.default_rng(88)
        ue, ie = rng.standard_normal((4, 8)), rng.standard_normal((30, 8))
        ue[1, 0], ue[2, 5] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            _, certain = certify(ue, ie, 5)
        assert certain.tolist() == [True, False, False, True]
        ie[17, 3] = np.inf
        with np.errstate(invalid="ignore"):
            _, certain = certify(ue, ie, 5)
        assert not certain.any()

class TestEvaluateShapeGuard:
    @pytest.mark.parametrize("shape", [(60, 120), (80, 90), (60, 50)])
    def test_model_of_another_shape_is_rejected(self, drift_split, shape):
        assert (drift_split.num_users, drift_split.num_items) == (60, 90)
        model = init_xavier(*shape, 4, seed=0)
        with pytest.raises(ValueError, match=rf"{shape[0]} users x {shape[1]} items.*"
                                             r"60 users x 90 items"):
            evaluate(model, drift_split)


def test_int32_log_is_evaluated_on_int64_pair_keys():
    """users x items past 2**31: an int32-indexed split reports what the same
    split in int64 reports, not wrapped (user, item) keys."""
    rng = np.random.default_rng(41)
    num_users = num_items = 50_000
    users = rng.integers(45_000, num_users, size=300)
    items = rng.integers(0, num_items, size=300)
    split = split_of(zip(users[:200], items[:200]), zip(users[200:], items[200:]),
                     num_users, num_items)
    narrow = replace(split, **{
        part: replace(log, users=log.users.astype(np.int32), items=log.items.astype(np.int32))
        for part, log in (("train", split.train), ("validation", split.validation),
                          ("test", split.test))
    })
    assert narrow.test.users.dtype == np.int32
    model = init_xavier(num_users, num_items, 2, seed=4)
    want = evaluate(model, split, ks=(5, 20))
    got = evaluate(model, narrow, ks=(5, 20))
    assert [r["user"] for r in got.per_user] == sorted(set(users[200:].tolist()))
    assert got.to_dict() == want.to_dict()


def test_block_cap_bounds_evaluation_memory():
    """A 1000 x 4000 evaluation would hold a 32 MB score matrix if it scored
    every user at once; in 1 MiB blocks its traced peak stays under 4 MiB."""
    rng = np.random.default_rng(74)
    num_users, num_items = 1000, 4000
    model = init_xavier(num_users, num_items, 8, seed=5)
    users = np.repeat(np.arange(num_users), 10)
    items = rng.integers(0, num_items, size=users.size)
    split = split_of(zip(users[::2].tolist(), items[::2].tolist()),
                     zip(users[1::2].tolist(), items[1::2].tolist()), num_users, num_items)
    tracemalloc.start()
    try:
        report = evaluate(model, split, ks=(20, 30))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.users_evaluated == num_users
    assert peak < 4 * 2**20


def test_selection_scratch_is_below_a_block_sized_index(monkeypatch):
    """argpartition's int64 index is as large as the scores it selects from;
    selecting a 32 x 4000 block a few rows at a time keeps the selection's
    traced peak under half of a block-sized index."""
    rng = np.random.default_rng(75)
    num_users, num_items = 300, 4000
    rows = metrics.BLOCK_SCORES // num_items
    model = init_xavier(num_users, num_items, 8, seed=6)
    users = np.repeat(np.arange(num_users), 10)
    items = rng.integers(0, num_items, size=users.size)
    split = split_of(zip(users[::2].tolist(), items[::2].tolist()),
                     zip(users[1::2].tolist(), items[1::2].tolist()), num_users, num_items)
    inner, peaks = metrics._certified_head, []

    def traced(neg, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = inner(neg, *args)
        peaks.append((neg.shape[0], tracemalloc.get_traced_memory()[1] - before))
        return out

    monkeypatch.setattr(metrics, "_certified_head", traced)
    tracemalloc.start()
    try:
        report = evaluate(model, split, ks=(20, 30))
    finally:
        tracemalloc.stop()
    assert report.users_evaluated == num_users
    assert peaks[0][0] == rows
    assert max(peak for _, peak in peaks) < rows * num_items * 8 / 2


class TestMarginSurrogate:
    def test_equal_scores_two_items(self):
        model = model_with_scores([[0.3, 0.3]])
        assert margin_surrogate(model, 0, 0) == pytest.approx(0.5, rel=1e-12)

    def test_dominant_item_near_one(self):
        model = model_with_scores([[100.0, 0.0, 0.0]])
        assert margin_surrogate(model, 0, 0) == pytest.approx(1.0, rel=1e-12)

    def test_huge_gap_stable(self):
        model = model_with_scores([[0.0, 800.0]])
        phi = margin_surrogate(model, 0, 0)
        assert 0.0 <= phi < 1e-300 or phi == 0.0
        assert np.isfinite(phi)

    def test_upper_bounded_by_reciprocal_rank(self):
        """phi_u(p) <= 1 / rank(p): the surrogate never flatters the rank."""
        rng = np.random.default_rng(62)
        for _ in range(40):
            n_items = int(rng.integers(2, 30))
            model = model_with_scores([rng.standard_normal(n_items)])
            item = int(rng.integers(n_items))
            ranked = rank_items(model, 0, np.empty(0, dtype=np.int64))
            r = int(np.nonzero(ranked == item)[0][0]) + 1
            phi = margin_surrogate(model, 0, item)
            assert phi <= 1.0 / r + 1e-12

    def test_exact_value_small_case(self):
        scores = np.array([1.0, 0.5, -0.2])
        model = model_with_scores([scores])
        want = 1.0 / (1.0 + math.exp(0.5 - 1.0) + math.exp(-0.2 - 1.0))
        assert margin_surrogate(model, 0, 0) == pytest.approx(want, rel=1e-12)
