"""Negative sampler tests: validity, distributions, hardness ordering."""

import math
import tracemalloc

import numpy as np
import pytest

from driftrec import models
from driftrec.data import InteractionLog
from driftrec.models import EmbeddingModel, init_xavier
from driftrec.samplers import KINDS, NegativeSampler, SamplerSpec
from conftest import make_log, oracle_sample_batch


def forced_log():
    """One user, 3 items, train covers items 0 and 1: only 2 is negative."""
    return make_log([("a", "x", 1), ("a", "y", 2), ("b", "z", 3)])


class TestSamplerSpec:
    def test_defaults(self):
        spec = SamplerSpec()
        assert (spec.kind, spec.alpha, spec.pool, spec.m, spec.n) == ("rns", 0.75, 10, 2, 10)

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SamplerSpec(kind="hard")
        with pytest.raises(ValueError, match="pool"):
            SamplerSpec(pool=0)
        with pytest.raises(ValueError, match="1 <= m <= n"):
            SamplerSpec(m=5, n=3)
        with pytest.raises(ValueError, match="1 <= m <= n"):
            SamplerSpec(m=0)
        with pytest.raises(ValueError, match="alpha"):
            SamplerSpec(alpha=-0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha(self, alpha):
        """A NaN alpha passed the sign check and broke the popularity search."""
        with pytest.raises(ValueError, match=f"^alpha must be a finite number, got {alpha!r}$"):
            SamplerSpec(kind="pns", alpha=alpha)


class TestForcedOutcome:
    @pytest.mark.parametrize("kind", KINDS)
    def test_only_one_valid_item(self, kind):
        log = forced_log()
        model = init_xavier(log.num_users, log.num_items, 4, seed=0)
        sampler = NegativeSampler(SamplerSpec(kind=kind, pool=3, m=1, n=2), log)
        rng = np.random.default_rng(7)
        for _ in range(25):
            assert sampler.sample_batch(np.array([0]), model, rng)[0] == 2


class TestValidity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_never_returns_train_item(self, kind):
        rng = np.random.default_rng(50)
        rows = [
            (f"u{rng.integers(8)}", f"i{rng.integers(25)}", int(rng.integers(1000)))
            for _ in range(150)
        ]
        log = make_log(rows)
        model = init_xavier(log.num_users, log.num_items, 6, seed=1)
        sampler = NegativeSampler(SamplerSpec(kind=kind, pool=4, m=2, n=5), log)
        train_sets = {
            int(u): set(sampler.user_items(int(u)).tolist()) for u in np.unique(log.users)
        }
        users = log.users[rng.permutation(len(log))][:80]
        negs = sampler.sample_batch(users, model, rng)
        for u, neg in zip(users.tolist(), negs.tolist()):
            assert 0 <= neg < log.num_items
            assert neg not in train_sets[u]

    def test_dense_user_fallback(self):
        """A user holding all but one item still gets the single valid negative."""
        rows = [("a", f"i{j}", j) for j in range(49)] + [("b", "i49", 99)]
        log = make_log(rows)
        model = init_xavier(log.num_users, log.num_items, 4, seed=2)
        for kind in KINDS:
            sampler = NegativeSampler(SamplerSpec(kind=kind), log)
            rng = np.random.default_rng(3)
            assert sampler.sample_batch(np.array([0]), model, rng)[0] == 49

    def test_infeasible_user_raises(self):
        log = make_log([("a", "x", 1)])  # user 0 interacted with every item
        model = init_xavier(1, 1, 4, seed=0)
        sampler = NegativeSampler(SamplerSpec(), log)
        with pytest.raises(ValueError, match="no negative exists"):
            sampler.sample_batch(np.array([0]), model, np.random.default_rng(0))

    def test_determinism(self):
        log = forced_log()
        rows = [(f"u{j % 4}", f"i{j % 11}", j) for j in range(30)]
        log = make_log(rows)
        model = init_xavier(log.num_users, log.num_items, 4, seed=4)
        for kind in KINDS:
            sampler = NegativeSampler(SamplerSpec(kind=kind, pool=3, n=4, m=1), log)
            users = log.users[:20]
            a = sampler.sample_batch(users, model, np.random.default_rng(17))
            b = sampler.sample_batch(users, model, np.random.default_rng(17))
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_out_of_range_user_raises(self, kind):
        # negative users used to wrap in the bitset and degree lookups
        log = make_log([("a", "x", 1), ("b", "y", 2), ("c", "z", 3), ("a", "w", 4)])
        model = init_xavier(log.num_users, log.num_items, 4, seed=0)
        sampler = NegativeSampler(SamplerSpec(kind=kind, pool=2, m=1, n=2), log)
        for users in ([-1, -2, -3], [0, -1], [3], [0, 1, 2, 3]):
            with pytest.raises(IndexError, match="user index"):
                sampler.sample_batch(np.array(users), model, np.random.default_rng(0))
        negs = sampler.sample_batch(np.array([0, 1, 2]), model, np.random.default_rng(0))
        assert negs.shape == (3,)


def vocab_log(num_users, num_items, users, items):
    """InteractionLog over fixed vocabularies holding the given rows as they are."""
    users, items = (np.asarray(col, dtype=np.int64) for col in (users, items))
    return InteractionLog(
        users=users, items=items, times=np.arange(users.size, dtype=np.int64),
        user_vocab={f"u{k}": k for k in range(num_users)},
        item_vocab={f"i{k}": k for k in range(num_items)},
    )


class TestInfeasibleUsers:
    """A user is infeasible exactly when their complement of train items is empty."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_repeated_pair_leaves_the_free_item(self, kind):
        # rows (0, x), (0, y), (0, y) on a 3-item log: three rows, but item z is free
        log = vocab_log(1, 3, [0, 0, 0], [0, 1, 1])
        model = init_xavier(log.num_users, log.num_items, 4, seed=0)
        sampler = NegativeSampler(SamplerSpec(kind=kind, pool=3, m=1, n=2), log)
        rng = np.random.default_rng(21)
        for _ in range(10):
            assert sampler.sample_batch(np.array([0, 0]), model, rng).tolist() == [2, 2]

    @pytest.mark.parametrize("kind", KINDS)
    def test_first_infeasible_user_in_batch_order_is_named(self, kind):
        # users 0 and 2 hold all 5 items; users 1 and 3 have free items
        users = [0] * 5 + [1, 1] + [2] * 5 + [3]
        items = [*range(5), 0, 1, *range(5), 4]
        log = vocab_log(4, 5, users, items)
        model = init_xavier(log.num_users, log.num_items, 4, seed=0)
        sampler = NegativeSampler(SamplerSpec(kind=kind, pool=3, m=1, n=2), log)
        for batch, first in (([1, 3, 2, 1, 0, 3, 2], 2), ([3, 0, 1, 2], 0)):
            with pytest.raises(ValueError, match=f"user {first} interacted with every item"):
                sampler.sample_batch(np.array(batch), model, np.random.default_rng(22))


class TestUniformDistribution:
    def test_rns_chi_square(self):
        """4 valid candidates; each should get ~1/4 of 1e6 draws (3 sigma)."""
        log = make_log([("a", "x", 1)] + [(f"pad{j}", f"n{j}", j + 2) for j in range(4)])
        # user 0 interacted with item 0 only; items 1..4 are valid
        model = init_xavier(log.num_users, log.num_items, 4, seed=0)
        sampler = NegativeSampler(SamplerSpec(kind="rns"), log)
        rng = np.random.default_rng(600)
        draws = 10**6
        negs = sampler.sample_batch(np.zeros(draws, dtype=np.int64), model, rng)
        counts = np.bincount(negs, minlength=5)[1:]
        assert counts.sum() == draws
        p = 0.25
        sigma = np.sqrt(draws * p * (1 - p))
        for c in counts:
            assert abs(c - draws * p) <= 3 * sigma


class TestPopularity:
    def make_popularity_log(self):
        # item degrees: i0 -> 4 users, i1 -> 2, i2 -> 1; user "z" trains
        # only on i3 so i0..i2 are all valid negatives for them
        rows = (
            [(f"a{j}", "i0", j) for j in range(4)]
            + [(f"b{j}", "i1", 10 + j) for j in range(2)]
            + [("c0", "i2", 20)]
            + [("z", "i3", 30)]
        )
        return make_log(rows)

    def test_frequencies_proportional_to_degree_alpha(self):
        log = self.make_popularity_log()
        model = init_xavier(log.num_users, log.num_items, 4, seed=0)
        alpha = 0.75
        sampler = NegativeSampler(SamplerSpec(kind="pns", alpha=alpha), log)
        z = log.user_vocab["z"]
        rng = np.random.default_rng(41)
        draws = 200_000
        negs = sampler.sample_batch(np.full(draws, z, dtype=np.int64), model, rng)
        counts = np.bincount(negs, minlength=log.num_items).astype(float)
        deg = np.array([4.0, 2.0, 1.0])
        want = deg**alpha / np.sum(deg**alpha)
        got = counts[:3] / draws
        assert counts[3] == 0
        for w, g in zip(want, got):
            sigma = np.sqrt(w * (1 - w) / draws)
            assert abs(g - w) <= 4 * sigma

    def test_alpha_zero_is_uniform(self):
        log = self.make_popularity_log()
        model = init_xavier(log.num_users, log.num_items, 4, seed=0)
        sampler = NegativeSampler(SamplerSpec(kind="pns", alpha=0.0), log)
        z = log.user_vocab["z"]
        rng = np.random.default_rng(42)
        draws = 120_000
        negs = sampler.sample_batch(np.full(draws, z, dtype=np.int64), model, rng)
        counts = np.bincount(negs, minlength=log.num_items).astype(float)
        p = 1 / 3
        sigma = np.sqrt(draws * p * (1 - p))
        for c in counts[:3]:
            assert abs(c - draws * p) <= 4 * sigma


    def test_empty_train_picks_each_entry_from_its_complement(self):
        """No item has popularity, so each entry takes one uniform rng pick."""
        log = vocab_log(3, 6, [], [])
        model = init_xavier(log.num_users, log.num_items, 4, seed=0)
        sampler = NegativeSampler(SamplerSpec(kind="pns"), log)
        users = np.random.default_rng(23).integers(0, log.num_users, size=50)
        got = sampler.sample_batch(users, model, np.random.default_rng(24))
        rng = np.random.default_rng(24)
        comp = np.arange(log.num_items)
        want = [comp[rng.integers(0, comp.size)] for _ in users]
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert len(set(want)) > 1


class TestDynamic:
    def hardness_setup(self, seed=0):
        """User 0 trains on item 0; items 1..9 valid with controlled scores."""
        rows = [("a", "i0", 1)] + [(f"pad{j}", f"i{j}", j + 2) for j in range(1, 10)]
        log = make_log(rows)
        ue = np.zeros((log.num_users, 2))
        ue[0] = [1.0, 0.0]
        ie = np.zeros((log.num_items, 2))
        ie[:, 0] = np.arange(log.num_items, dtype=float)  # score(0, j) == j
        model = EmbeddingModel(ue, ie)
        return log, model

    def test_dns_picks_argmax_of_pool(self):
        log, model = self.hardness_setup()
        sampler = NegativeSampler(SamplerSpec(kind="dns", pool=9), log)
        rng = np.random.default_rng(11)
        # pool of 9 distinct-ish draws almost surely includes item 9
        negs = sampler.sample_batch(np.zeros(400, dtype=np.int64), model, rng)
        # every draw returns the max-scoring candidate of its pool
        assert negs.max() == 9
        assert np.mean(negs >= 8) > 0.8

    def test_dns_tie_prefers_smallest_index(self):
        rows = [("a", "i0", 1)] + [(f"pad{j}", f"i{j}", j + 2) for j in range(1, 6)]
        log = make_log(rows)
        model = EmbeddingModel(np.ones((log.num_users, 2)), np.zeros((log.num_items, 2)))
        # all scores equal -> smallest candidate index wins; a pool of 100
        # over 5 valid items misses item 1 with probability (4/5)^100
        sampler = NegativeSampler(SamplerSpec(kind="dns", pool=100), log)
        rng = np.random.default_rng(12)
        negs = [sampler.sample_batch(np.array([0]), model, rng)[0] for _ in range(60)]
        assert set(negs) == {1}

    def test_dns_dominates_rns_in_score(self):
        log, model = self.hardness_setup()
        rng = np.random.default_rng(13)
        draws = 10_000
        users = np.zeros(draws, dtype=np.int64)
        rns = NegativeSampler(SamplerSpec(kind="rns"), log)
        dns = NegativeSampler(SamplerSpec(kind="dns", pool=5), log)
        s_rns = model.pair_scores(users, rns.sample_batch(users, model, rng))
        s_dns = model.pair_scores(users, dns.sample_batch(users, model, rng))
        assert s_dns.mean() > s_rns.mean() + 1.0

    def test_dns_mn_window_softer_than_dns(self):
        """The M..N window lowers mean hardness vs pure dns over the same N."""
        log, model = self.hardness_setup()
        sampler = NegativeSampler(SamplerSpec(kind="dns_mn", m=2, n=4), log)
        rng = np.random.default_rng(14)
        draws = 4000
        negs = sampler.sample_batch(np.zeros(draws, dtype=np.int64), model, rng)
        dns = NegativeSampler(SamplerSpec(kind="dns", pool=4), log)
        s_mn = model.pair_scores(np.zeros(draws, dtype=np.int64), negs).mean()
        s_dns = model.pair_scores(
            np.zeros(draws, dtype=np.int64),
            dns.sample_batch(np.zeros(draws, dtype=np.int64), model, rng),
        ).mean()
        assert s_mn < s_dns

    def test_dns_mn_m_equals_n_picks_softest(self):
        """M = N degenerates to the softest candidate; mean below uniform."""
        log, model = self.hardness_setup()
        rng = np.random.default_rng(15)
        draws = 6000
        users = np.zeros(draws, dtype=np.int64)
        soft = NegativeSampler(SamplerSpec(kind="dns_mn", m=3, n=3), log)
        rns = NegativeSampler(SamplerSpec(kind="rns"), log)
        s_soft = model.pair_scores(users, soft.sample_batch(users, model, rng)).mean()
        s_rns = model.pair_scores(users, rns.sample_batch(users, model, rng)).mean()
        assert s_soft < s_rns - 0.5

    def test_dns_mn_exact_marginal_oracle(self):
        """Selected-item distribution vs brute-force enumeration of the process.

        9 valid items with distinct scores, N=3 iid uniform candidates, one
        of ranks M..N chosen uniformly: the marginal over items follows by
        enumerating all 9^3 pools x 3 ranks (each equally likely).
        """
        log, model = self.hardness_setup()
        m, n = 1, 3
        valid = list(range(1, 10))  # item j scores j for user 0
        weight = {j: 0.0 for j in valid}
        for c1 in valid:
            for c2 in valid:
                for c3 in valid:
                    ordered = sorted((c1, c2, c3), key=lambda j: (-j, j))
                    for r in range(m - 1, n):
                        weight[ordered[r]] += 1.0
        total = sum(weight.values())
        expected = {j: w / total for j, w in weight.items()}

        sampler = NegativeSampler(SamplerSpec(kind="dns_mn", m=m, n=n), log)
        rng = np.random.default_rng(16)
        draws = 120_000
        negs = sampler.sample_batch(np.zeros(draws, dtype=np.int64), model, rng)
        counts = np.bincount(negs, minlength=10)
        for j in valid:
            p = expected[j]
            sigma = np.sqrt(p * (1 - p) / draws)
            assert abs(counts[j] / draws - p) <= 4.5 * sigma, f"item {j}"


class TestBlockedScoring:
    """dns and dns-mn score their candidates in blocks of users (models.SCORE_BLOCK_BYTES)."""

    def tied_setup(self, d=16):
        """30 items whose embeddings repeat three base rows, so every user's
        scores tie exactly within each residue class of the item index."""
        rng = np.random.default_rng(31)
        rows = [(f"u{u}", f"i{(5 * u + j) % 30}", u * 10 + j) for u in range(12) for j in range(4)]
        log = make_log(rows)
        base = rng.normal(size=(3, d))
        order = sorted(log.item_vocab, key=log.item_vocab.get)
        ie = base[[int(key[1:]) % 3 for key in order]]
        return log, EmbeddingModel(rng.normal(size=(log.num_users, d)), ie)

    @pytest.mark.parametrize("spec", [SamplerSpec(kind="dns", pool=8),
                                      SamplerSpec(kind="dns_mn", m=2, n=8)], ids=["dns", "dns_mn"])
    def test_ties_across_block_boundaries_pick_as_unblocked(self, monkeypatch, spec):
        log, model = self.tied_setup()
        sampler = NegativeSampler(spec, log)
        width = spec.pool if spec.kind == "dns" else spec.n
        users = np.random.default_rng(32).integers(0, log.num_users, size=40)
        # 3 users per block: boundaries after rows 2, 5, 8, ...
        monkeypatch.setattr(models, "SCORE_BLOCK_BYTES", 3 * width * model.dim * 8)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cands = sampler._draw_uniform_valid(np.repeat(users, width), rng).reshape(-1, width)
            scores = model.pair_scores(users, cands)
            top = scores == scores.max(axis=1, keepdims=True)
            tied = np.array([np.unique(c[t]).size > 1 for c, t in zip(cands, top)])
            # exact ties in the last row of one block and the first of the next
            assert np.any(tied[2::3][: tied[3::3].size] & tied[3::3])
            got = sampler.sample_batch(users, model, np.random.default_rng(seed))
            want = oracle_sample_batch(sampler, log, users, model, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    def test_dns_peak_memory_is_below_a_full_batch_gather(self):
        """b=2048 users x 50 candidates x d=64 would gather 52 MB of candidate
        rows in one take; blocked scoring stays far below that."""
        b, pool, d = 2048, 50, 64
        rows = [(f"u{u}", f"i{(7 * u + j) % 1000}", u * 10 + j)
                for u in range(200) for j in range(5)]
        log = make_log(rows)
        model = init_xavier(log.num_users, log.num_items, d, seed=3)
        sampler = NegativeSampler(SamplerSpec(kind="dns", pool=pool), log)
        users = np.random.default_rng(33).integers(0, log.num_users, size=b)
        rng = np.random.default_rng(34)
        tracemalloc.start()
        try:
            negs = sampler.sample_batch(users, model, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert negs.shape == (b,)
        assert peak < b * pool * d * 8 / 4


class TestRedrawOnlyRejection:
    """Re-checking only redrawn entries leaves every seeded draw unchanged."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_full_recheck_oracle(self, kind, drift_split):
        train = drift_split.train
        model = init_xavier(drift_split.num_users, drift_split.num_items, 8, seed=5)
        sampler = NegativeSampler(SamplerSpec(kind=kind, pool=6, m=2, n=7), train)
        order = np.random.default_rng(8).permutation(len(train))
        for size in (512, 37, 1):
            users = train.users[order[:size]]
            got = sampler.sample_batch(users, model, np.random.default_rng(size))
            want = oracle_sample_batch(sampler, train, users, model, np.random.default_rng(size))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_near_dense_users_exhaust_rounds(self, kind):
        """Users 0 and 3 miss 3 and 2 of 300 items, so many draws take the complement."""
        rows = [("a", f"i{j}", j) for j in range(297)]
        rows += [("b", f"i{j}", 300 + j) for j in range(0, 300, 7)]
        rows += [("c", f"i{j}", 999) for j in (297, 298, 299)]
        rows += [("d", f"i{j}", 1000 + j) for j in range(2, 300)]
        log = make_log(rows)
        model = init_xavier(log.num_users, log.num_items, 4, seed=6)
        sampler = NegativeSampler(SamplerSpec(kind=kind, pool=3, m=1, n=4), log)
        users = np.array([0, 1, 3, 0, 2, 3, 0, 1] * 8)
        for seed in range(3):
            got = sampler.sample_batch(users, model, np.random.default_rng(seed))
            want = oracle_sample_batch(sampler, log, users, model, np.random.default_rng(seed))
            assert np.array_equal(got, want)
            assert set(got[users == 0].tolist()) <= {297, 298, 299}
            assert set(got[users == 3].tolist()) <= {0, 1}


class TestBitsetMembership:
    """The packed membership bitset agrees with a Python set on every pair."""

    def test_matches_python_set_on_unaligned_shape(self):
        # 7 x 13 = 91 keys, not a multiple of 8, so the last byte is partial
        num_users, num_items = 7, 13
        rng = np.random.default_rng(70)
        pairs = {(u, i) for u in (0, 2, 3) for i in range(num_items) if rng.random() < 0.4}
        pairs |= {(1, i) for i in range(num_items) if i != 5}  # all items but one
        pairs |= {(5, 0), (6, num_items - 1)}  # last user x last item
        # user 4 has no train items
        users, items = (np.array(col, dtype=np.int64) for col in zip(*sorted(pairs)))
        log = InteractionLog(
            users=users, items=items, times=np.arange(users.size, dtype=np.int64),
            user_vocab={f"u{k}": k for k in range(num_users)},
            item_vocab={f"i{k}": k for k in range(num_items)},
        )
        sampler = NegativeSampler(SamplerSpec(), log)
        assert sampler._bits.nbytes == math.ceil(num_users * num_items / 8)
        all_users = np.repeat(np.arange(num_users), num_items)
        all_items = np.tile(np.arange(num_items), num_users)
        got = sampler._interacted(all_users, all_items)
        assert got.dtype == bool
        want = [(u, i) in pairs for u, i in zip(all_users.tolist(), all_items.tolist())]
        assert got.tolist() == want
        assert not got[all_users == 4].any()
        assert got[all_users == 1].sum() == num_items - 1
        assert got[-1]
        # shuffled queries with repeats read the same bits
        perm = rng.integers(0, all_users.size, size=500)
        assert np.array_equal(sampler._interacted(all_users[perm], all_items[perm]), got[perm])


class TestUserItems:
    """Per-user item lists hold each user's train items in ascending order."""

    def test_matches_sorted_train_items(self, drift_split):
        train = drift_split.train
        sampler = NegativeSampler(SamplerSpec(), train)
        for u in range(train.num_users):
            want = sorted(train.items[train.users == u].tolist())
            assert sampler.user_items(u).tolist() == want, u

    def test_unsorted_log_and_users_without_items(self):
        rng = np.random.default_rng(71)
        num_users, num_items = 9, 17
        keys = rng.choice(num_users * num_items, size=60, replace=False)  # log order
        log = InteractionLog(
            users=keys // num_items, items=keys % num_items,
            times=np.arange(keys.size, dtype=np.int64),
            user_vocab={f"u{k}": k for k in range(num_users + 2)},  # two users with no items
            item_vocab={f"i{k}": k for k in range(num_items)},
        )
        sampler = NegativeSampler(SamplerSpec(), log)
        for u in range(num_users + 2):
            want = sorted((keys[keys // num_items == u] % num_items).tolist())
            assert sampler.user_items(u).tolist() == want, u

    def test_repeated_pair_is_listed_once(self):
        """A hand-built log that logs (user 0, item 2) twice lists item 2 once,
        as its deduplicated log does, and keeps it out of the complement."""
        log = InteractionLog(
            users=np.array([0, 0, 1, 0]), items=np.array([2, 5, 2, 2]),
            times=np.arange(4, dtype=np.int64),
            user_vocab={"a": 0, "b": 1}, item_vocab={f"i{k}": k for k in range(7)},
        )
        sampler = NegativeSampler(SamplerSpec(), log)
        assert sampler.user_items(0).tolist() == [2, 5]
        assert sampler.user_items(1).tolist() == [2]
        assert sampler._complement(0).tolist() == [0, 1, 3, 4, 6]
