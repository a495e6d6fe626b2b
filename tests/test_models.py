"""Embedding model, graph propagation, and checkpoint tests."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from driftrec import models
from driftrec.models import (
    EmbeddingModel,
    build_norm_adjacency,
    init_xavier,
    load_checkpoint,
    propagate_matrix,
    save_checkpoint,
)


def tiny_adjacency():
    """2 users, 2 items, edges (0,0), (0,1), (1,1)."""
    users = np.array([0, 0, 1], dtype=np.int64)
    items = np.array([0, 1, 1], dtype=np.int64)
    return build_norm_adjacency(users, items, 2, 2)


class TestInit:
    def test_deterministic(self):
        a = init_xavier(5, 7, 8, seed=42)
        b = init_xavier(5, 7, 8, seed=42)
        assert np.array_equal(a.user_emb, b.user_emb)
        assert np.array_equal(a.item_emb, b.item_emb)

    def test_seed_changes_values(self):
        a = init_xavier(5, 7, 8, seed=0)
        b = init_xavier(5, 7, 8, seed=1)
        assert not np.array_equal(a.user_emb, b.user_emb)

    def test_xavier_bound(self):
        d = 64
        bound = np.sqrt(6.0 / (d + d))  # ~0.2165 for d=64
        m = init_xavier(50, 80, d, seed=3)
        assert bound == pytest.approx(0.21650635094610965)
        for arr in (m.user_emb, m.item_emb):
            assert np.all(np.abs(arr) <= bound)
            assert np.abs(arr).max() > 0.9 * bound  # actually fills the range

    def test_shapes(self):
        m = init_xavier(4, 6, 3, seed=0)
        assert m.user_emb.shape == (4, 3)
        assert m.item_emb.shape == (6, 3)
        assert (m.num_users, m.num_items, m.dim) == (4, 6, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            init_xavier(0, 5, 4, seed=0)
        with pytest.raises(ValueError):
            init_xavier(5, 5, 4, seed=0, backbone="gat")
        with pytest.raises(ValueError, match="adjacency"):
            init_xavier(2, 2, 4, seed=0, backbone="lightgcn", num_prop_layers=2)

    @pytest.mark.parametrize("layers", [-1, 2.7])
    def test_bad_num_prop_layers(self, layers):
        adj = tiny_adjacency()
        with pytest.raises(ValueError, match="num_prop_layers"):
            EmbeddingModel(np.ones((2, 3)), np.ones((2, 3)), backbone="lightgcn",
                           num_prop_layers=layers, adjacency=adj)
        with pytest.raises(ValueError, match="num_prop_layers"):
            init_xavier(2, 2, 3, seed=0, backbone="lightgcn", num_prop_layers=layers,
                        adjacency=adj)

    def test_equals_two_call_draw(self):
        """The one stacked draw equals a user draw followed by an item draw."""
        for num_users, num_items, d in ((1, 1, 1), (5, 7, 8), (40, 3, 33)):
            m = init_xavier(num_users, num_items, d, seed=11)
            a = np.sqrt(6.0 / (d + d))
            rng = np.random.default_rng(11)
            want_u = rng.uniform(-a, a, size=(num_users, d))
            want_i = rng.uniform(-a, a, size=(num_items, d))
            assert m.user_emb.tobytes() == want_u.tobytes()
            assert m.item_emb.tobytes() == want_i.tobytes()


class TestParams:
    def test_views_share_the_stacked_rows(self):
        m = init_xavier(3, 4, 2, seed=1)
        assert m.params.shape == (7, 2)
        assert np.array_equal(m.params[:3], m.user_emb)
        assert np.array_equal(m.params[3:], m.item_emb)
        for view in (m.params, m.user_emb, m.item_emb):
            assert not view.flags.writeable

    def test_add_and_set(self):
        m = init_xavier(3, 4, 2, seed=1)
        before = m.params.copy()
        delta = np.arange(14.0).reshape(7, 2)
        m.add_to_params(delta)
        assert np.array_equal(m.params, before + delta)
        m.set_params(before)
        assert np.array_equal(m.params, before)


class TestScoring:
    def test_mf_score_is_dot_product(self):
        ue = np.array([[1.0, 2.0], [0.5, -1.0]])
        ie = np.array([[3.0, 0.0], [1.0, 1.0], [0.0, -2.0]])
        m = EmbeddingModel(ue, ie)
        assert m.score(0, 0) == 3.0
        assert m.score(0, 1) == 3.0
        assert m.score(1, 2) == 2.0

    def test_score_all_matches_score(self):
        m = init_xavier(6, 9, 5, seed=7)
        for u in range(6):
            row = m.score_all(u)
            assert row.shape == (9,)
            for p in range(9):
                assert row[p] == pytest.approx(m.score(u, p), abs=1e-15)

    def test_pair_scores_matches_score(self):
        m = init_xavier(6, 9, 5, seed=7)
        users = np.array([0, 3, 5, 0])
        items = np.array([8, 2, 2, 0])
        got = m.pair_scores(users, items)
        want = [m.score(u, p) for u, p in zip(users, items)]
        assert got.tolist() == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_pair_scores_2d_equals_flat_pairs(self, backbone):
        """(b, w) item blocks score exactly as the flat pairs with each user repeated w times."""
        rng = np.random.default_rng(8)
        shapes = [(2048, 10, 32)] + [
            (int(rng.integers(1, 600)), int(rng.integers(1, 25)), int(rng.integers(1, 65)))
            for _ in range(60)
        ]
        for b, w, d in shapes:
            nu, ni = int(rng.integers(1, 80)), int(rng.integers(1, 120))
            adjacency = None
            if backbone == "lightgcn":
                keys = rng.choice(nu * ni, size=min(nu * ni, 3 * (nu + ni)), replace=False)
                adjacency = build_norm_adjacency(keys // ni, keys % ni, nu, ni)
            m = init_xavier(nu, ni, d, seed=int(rng.integers(1000)), backbone=backbone,
                            num_prop_layers=2, adjacency=adjacency)
            users = rng.integers(0, nu, size=b)
            items = rng.integers(0, ni, size=(b, w))
            got = m.pair_scores(users, items)
            want = m.pair_scores(np.repeat(users, w), items.ravel()).reshape(b, w)
            assert got.shape == (b, w)
            assert np.array_equal(got, want)

    def test_lightgcn_score_consistency(self):
        m = init_xavier(2, 2, 4, seed=5, backbone="lightgcn", num_prop_layers=2,
                        adjacency=tiny_adjacency())
        for u in range(2):
            row = m.score_all(u)
            for p in range(2):
                assert row[p] == pytest.approx(m.score(u, p), abs=1e-15)

    def test_finite_outputs(self):
        m = init_xavier(10, 10, 8, seed=1, backbone="lightgcn", num_prop_layers=3,
                        adjacency=build_norm_adjacency(
                            np.array([0, 5, 9]), np.array([1, 2, 3]), 10, 10))
        assert np.all(np.isfinite(m.score_all(0)))

    def test_index_errors(self):
        m = init_xavier(3, 4, 2, seed=0)
        with pytest.raises(IndexError):
            m.score(3, 0)
        with pytest.raises(IndexError):
            m.score(0, 4)


class TestAdjacency:
    def test_hand_computed_dense(self):
        # degrees: u0=2, u1=1, i0=1, i1=2
        adj = tiny_adjacency().toarray()
        want = np.zeros((4, 4))
        want[0, 2] = want[2, 0] = 1 / np.sqrt(2 * 1)  # u0-i0
        want[0, 3] = want[3, 0] = 1 / np.sqrt(2 * 2)  # u0-i1
        want[1, 3] = want[3, 1] = 1 / np.sqrt(1 * 2)  # u1-i1
        assert adj == pytest.approx(want, abs=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        users = rng.integers(0, 10, size=30)
        items = rng.integers(0, 15, size=30)
        adj = build_norm_adjacency(users, items, 10, 15)
        assert (adj != adj.T).nnz == 0

    def test_zero_degree_nodes_zero_rows(self):
        adj = build_norm_adjacency(np.array([0]), np.array([0]), 3, 3)
        dense = adj.toarray()
        for node in (1, 2, 4, 5):  # users 1,2 and items 1,2 are isolated
            assert np.all(dense[node] == 0)
            assert np.all(dense[:, node] == 0)

    def test_spectral_radius_at_most_one(self):
        rng = np.random.default_rng(9)
        users = rng.integers(0, 12, size=60)
        items = rng.integers(0, 20, size=60)
        adj = build_norm_adjacency(users, items, 12, 20)
        x = rng.standard_normal(32)
        for _ in range(50):
            x = adj @ x
            nrm = np.linalg.norm(x)
            if nrm == 0:
                break
            x /= nrm
        assert np.linalg.norm(adj @ x) <= 1.0 + 1e-9


    @staticmethod
    def random_graphs():
        """(users, items, num_users, num_items) with repeated edges, isolated
        nodes and unaligned shapes."""
        rng = np.random.default_rng(12)
        for num_users, num_items, edges in ((1, 1, 1), (3, 3, 1), (7, 13, 40), (13, 7, 40),
                                            (50, 20, 300), (20, 90, 200)):
            users = rng.integers(0, num_users, size=edges)
            items = rng.integers(0, num_items, size=edges)
            repeat = rng.integers(0, edges, size=edges // 3 + 1)
            yield np.r_[users, users[repeat]], np.r_[items, items[repeat]], num_users, num_items

    def test_csc_entries_match_diagonal_product(self):
        for users, items, num_users, num_items in self.random_graphs():
            adj = build_norm_adjacency(users, items, num_users, num_items)
            assert adj.format == "csc" and adj.has_canonical_format
            n = num_users + num_items
            rows = np.r_[users, items + num_users]
            cols = np.r_[items + num_users, users]
            a = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
            deg = np.asarray(a.sum(axis=1)).ravel()
            inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
            d = sp.diags(inv_sqrt)
            want = (d @ a @ d).tocsr()
            got = adj.tocsr()
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))

    def test_propagation_matches_csr_copy_bitwise(self):
        rng = np.random.default_rng(13)
        for users, items, num_users, num_items in self.random_graphs():
            adj = build_norm_adjacency(users, items, num_users, num_items)
            x = rng.standard_normal((num_users + num_items, 5))
            for layers in range(4):
                got = propagate_matrix(adj, x, layers)
                want = propagate_matrix(adj.tocsr(), x, layers)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), layers


class TestPropagation:
    def test_zero_layers_identity(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        out = propagate_matrix(tiny_adjacency(), x, 0)
        assert np.array_equal(out, x) and out is not x

    def test_single_edge_two_node_average(self):
        # one user, one item, one edge: Â is the swap matrix, so the
        # 1-layer propagation of [eu; ei] is [(eu+ei)/2; (ei+eu)/2]
        adj = build_norm_adjacency(np.array([0]), np.array([0]), 1, 1)
        x = np.array([[2.0, 0.0], [0.0, 4.0]])
        out = propagate_matrix(adj, x, 1)
        want = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert out == pytest.approx(want, abs=1e-15)

    def test_isolated_node_shrinks(self):
        # isolated node keeps only its own E^0 term: base / (L+1)
        adj = build_norm_adjacency(np.array([0]), np.array([0]), 2, 1)
        x = np.array([[1.0], [3.0], [5.0]])  # u0, u1 (isolated), i0
        out = propagate_matrix(adj, x, 3)
        assert out[1, 0] == pytest.approx(3.0 / 4)

    def test_linearity(self):
        adj = tiny_adjacency()
        rng = np.random.default_rng(12)
        x, y = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        lhs = propagate_matrix(adj, 2.0 * x + y, 2)
        rhs = 2.0 * propagate_matrix(adj, x, 2) + propagate_matrix(adj, y, 2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_self_adjoint(self):
        """<Px, y> == <x, Py> — the property the backward pass relies on."""
        adj = tiny_adjacency()
        rng = np.random.default_rng(13)
        x, y = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        lhs = float(np.sum(propagate_matrix(adj, x, 3) * y))
        rhs = float(np.sum(x * propagate_matrix(adj, y, 3)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_model_propagate_splits_users_items(self):
        m = init_xavier(2, 2, 3, seed=2, backbone="lightgcn", num_prop_layers=2,
                        adjacency=tiny_adjacency())
        pu, pi = m.propagate()
        stacked = np.vstack([m.user_emb, m.item_emb])
        want = propagate_matrix(m.adjacency, stacked, 2)
        assert np.array_equal(pu, want[:2])
        assert np.array_equal(pi, want[2:])

    def test_propagate_after_update_equals_propagate_matrix(self):
        m = init_xavier(2, 2, 3, seed=2, backbone="lightgcn", num_prop_layers=2,
                        adjacency=tiny_adjacency())
        m.propagate()
        m.add_to_params(np.random.default_rng(3).standard_normal((4, 3)))
        pu, pi = m.propagate()
        want = propagate_matrix(m.adjacency, m.params, 2)
        assert np.array_equal(np.concatenate([pu, pi]), want)

    def test_mf_propagate_raises(self):
        m = init_xavier(2, 2, 3, seed=2)
        with pytest.raises(ValueError, match="lightgcn"):
            m.propagate()

    def test_cache_invalidated_by_updates(self):
        m = init_xavier(2, 2, 3, seed=2, backbone="lightgcn", num_prop_layers=2,
                        adjacency=tiny_adjacency())
        before = m.score(0, 0)
        m.add_to_params(np.concatenate([np.ones((2, 3)), np.zeros((2, 3))]))
        after = m.score(0, 0)
        assert before != after
        # scores must track the fresh embeddings, not a stale cache
        pu, pi = m.propagate()
        assert m.score(0, 0) == pytest.approx(float(pu[0] @ pi[0]), abs=1e-15)

    def test_set_params_invalidates_cache(self):
        m = init_xavier(2, 2, 3, seed=2, backbone="lightgcn", num_prop_layers=1,
                        adjacency=tiny_adjacency())
        _ = m.score(0, 0)
        m.set_params(np.zeros((2 + 2, 3)))
        assert m.score(0, 0) == 0.0

    def test_update_releases_the_propagated_rows(self):
        """No stale propagation is held while the next one is computed."""
        rng = np.random.default_rng(14)
        adjacency = build_norm_adjacency(rng.integers(200, size=2000),
                                         rng.integers(300, size=2000), 200, 300)
        m = init_xavier(200, 300, 16, seed=2, backbone="lightgcn", num_prop_layers=2,
                        adjacency=adjacency)
        delta = np.full(m.params.shape, 1e-3)
        tracemalloc.start()
        try:
            m.scoring_params()
            held = tracemalloc.get_traced_memory()[0]
            m.add_to_params(delta)
            released = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert released >= m.params.nbytes


class TestCheckpoint:
    def test_bit_exact_round_trip_mf(self, tmp_path):
        m = init_xavier(7, 11, 6, seed=20)
        m.add_to_params(np.concatenate([
            np.random.default_rng(1).standard_normal((7, 6)) * 1e-3,
            np.random.default_rng(2).standard_normal((11, 6)) * 1e-3,
        ]))
        path = str(tmp_path / "ckpt.txt")
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.user_emb, m.user_emb)
        assert np.array_equal(loaded.item_emb, m.item_emb)
        assert loaded.backbone == "mf"

    def test_bit_exact_round_trip_lightgcn(self, tmp_path):
        adj = tiny_adjacency()
        m = init_xavier(2, 2, 4, seed=21, backbone="lightgcn", num_prop_layers=3,
                        adjacency=adj)
        path = str(tmp_path / "ckpt.txt")
        save_checkpoint(m, path)
        loaded = load_checkpoint(path, adjacency=adj)
        assert np.array_equal(loaded.user_emb, m.user_emb)
        assert np.array_equal(loaded.item_emb, m.item_emb)
        assert loaded.backbone == "lightgcn"
        assert loaded.num_prop_layers == 3
        assert loaded.score(0, 1) == m.score(0, 1)

    def test_save_is_deterministic_text(self, tmp_path):
        m = init_xavier(3, 3, 2, seed=22)
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        save_checkpoint(m, p1)
        save_checkpoint(m, p2)
        assert open(p1).read() == open(p2).read()

    def checkpoint_lines(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(init_xavier(5, 60, 3, seed=23), str(path))
        return path, path.read_text().splitlines(keepends=True)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path, lines = self.checkpoint_lines(tmp_path)
        path.write_text("".join(lines[:-40]))
        with pytest.raises(ValueError, match="40 item rows missing.*truncated") as err:
            load_checkpoint(str(path))
        assert str(path) in str(err.value)

    def test_missing_user_row_rejected(self, tmp_path):
        path, lines = self.checkpoint_lines(tmp_path)
        path.write_text("".join(lines[:2] + lines[3:]))
        with pytest.raises(ValueError, match="1 user rows missing"):
            load_checkpoint(str(path))

    def test_cut_mid_record_rejected(self, tmp_path):
        path, lines = self.checkpoint_lines(tmp_path)
        path.write_text("".join(lines)[:-25])
        with pytest.raises(ValueError, match="malformed checkpoint record") as err:
            load_checkpoint(str(path))
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"m": "item", "row": 0, "v": None}, "malformed"),
            ({"m": "item", "row": 60, "v": ["0x0p+0"] * 3}, "no 'item' row 60"),
            ({"m": "item", "row": -1, "v": ["0x0p+0"] * 3}, "no 'item' row -1"),
            ({"m": "bias", "row": 0, "v": ["0x0p+0"] * 3}, "no 'bias' row 0"),
            ({"m": "user", "row": 1.0, "v": ["0x0p+0"] * 3}, "no 'user' row 1.0"),
            ({"m": "item", "row": 7, "v": ["0x0p+0"] * 3}, "duplicate item row 7"),
            ({"m": "item", "row": 59, "v": ["0x0p+0"] * 2}, "has 2 values, expected 3"),
        ],
    )
    def test_bad_record_rejected(self, tmp_path, record, message):
        path, lines = self.checkpoint_lines(tmp_path)
        if "duplicate" not in message:
            lines = lines[:-1]  # keep the row count right so only the bad record fails
        path.write_text("".join(lines) + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=message) as err:
            load_checkpoint(str(path))
        assert str(path) in str(err.value)

    def test_bad_header_rejected(self, tmp_path):
        path, lines = self.checkpoint_lines(tmp_path)
        header = json.loads(lines[0])
        path.write_text(json.dumps({**header, "d": 0}) + "\n" + "".join(lines[1:]))
        with pytest.raises(ValueError, match="bad checkpoint shape"):
            load_checkpoint(str(path))
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="malformed checkpoint header"):
            load_checkpoint(str(path))

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path, lines = self.checkpoint_lines(tmp_path)
        calls = []

        def failing_dumps(obj):
            calls.append(obj)
            if len(calls) > 10:
                raise OSError("disk full")
            return json.JSONEncoder().encode(obj)

        monkeypatch.setattr(models.json, "dumps", failing_dumps)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(init_xavier(5, 60, 3, seed=24), str(path))
        assert path.read_text().splitlines(keepends=True) == lines
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.txt"]
