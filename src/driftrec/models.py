"""Embedding backbones: plain matrix factorization and light graph propagation.

Both backbones score a (user, item) pair by a dot product of d-dimensional
embeddings. The propagation backbone additionally smooths embeddings over
the symmetrically normalized train interaction graph before scoring:
E(l+1) = A_norm @ E(l), with the final embedding the mean of all L+1 levels
and no feature transforms or nonlinearities in between. Propagated
embeddings are cached and invalidated on every parameter update, so scores
never come from stale caches.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.sparse as sp

__all__ = [
    "EmbeddingModel",
    "init_xavier",
    "build_norm_adjacency",
    "propagate_matrix",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_header",
]

BACKBONES = ("mf", "lightgcn")

CHECKPOINT_FORMAT = "driftrec-checkpoint"
CHECKPOINT_VERSION = 1


def build_norm_adjacency(
    users: np.ndarray, items: np.ndarray, num_users: int, num_items: int
) -> sp.csr_matrix:
    """Symmetrically normalized bipartite adjacency over user+item nodes.

    Nodes 0..num_users-1 are users, the rest items. Normalization is
    D^(-1/2) A D^(-1/2) with the convention that zero-degree nodes get a
    zero scaling factor instead of a division error.
    """
    n = num_users + num_items
    rows = np.concatenate([users, items + num_users])
    cols = np.concatenate([items + num_users, users])
    vals = np.ones(rows.shape[0], dtype=np.float64)
    adj = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    d = sp.diags(inv_sqrt)
    return (d @ adj @ d).tocsr()


def propagate_matrix(adj: sp.csr_matrix, x: np.ndarray, num_layers: int) -> np.ndarray:
    """Mean of adj^l @ x over l = 0..num_layers.

    The operator is linear and (for our symmetric adjacency) self-adjoint,
    so the same function maps gradients back to the base embeddings.
    """
    acc = x.copy()
    cur = x
    for _ in range(num_layers):
        cur = adj @ cur
        acc += cur
    return acc / (num_layers + 1)


class EmbeddingModel:
    """User/item embedding matrices with an optional propagation operator.

    Parameters are mutated only through :meth:`add_to_params` /
    :meth:`set_params`; the exposed matrices are read-only views so the
    propagation cache cannot silently go stale.
    """

    def __init__(
        self,
        user_emb: np.ndarray,
        item_emb: np.ndarray,
        backbone: str = "mf",
        num_prop_layers: int = 0,
        adjacency: sp.csr_matrix | None = None,
        seed: int | None = None,
    ):
        if backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {backbone!r}, expected one of {BACKBONES}")
        if user_emb.ndim != 2 or item_emb.ndim != 2 or user_emb.shape[1] != item_emb.shape[1]:
            raise ValueError("embedding matrices must be 2-D with a shared dimension")
        if backbone == "lightgcn" and adjacency is None:
            raise ValueError("lightgcn backbone needs a normalized adjacency operator")
        self._user = np.array(user_emb, dtype=np.float64)
        self._item = np.array(item_emb, dtype=np.float64)
        self.backbone = backbone
        self.num_prop_layers = int(num_prop_layers)
        self.adjacency = adjacency
        self.seed = seed
        # epoch of the validation-selected parameters, set by training.fit
        self.best_epoch: int | None = None
        self._version = 0
        self._cache_version = -1
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    # --- shape metadata -------------------------------------------------
    @property
    def num_users(self) -> int:
        return self._user.shape[0]

    @property
    def num_items(self) -> int:
        return self._item.shape[0]

    @property
    def dim(self) -> int:
        return self._user.shape[1]

    # --- parameter access ------------------------------------------------
    @property
    def user_emb(self) -> np.ndarray:
        view = self._user.view()
        view.setflags(write=False)
        return view

    @property
    def item_emb(self) -> np.ndarray:
        view = self._item.view()
        view.setflags(write=False)
        return view

    def add_to_params(self, user_delta: np.ndarray, item_delta: np.ndarray) -> None:
        self._user += user_delta
        self._item += item_delta
        self._version += 1

    def set_params(self, user_emb: np.ndarray, item_emb: np.ndarray) -> None:
        self._user = np.array(user_emb, dtype=np.float64)
        self._item = np.array(item_emb, dtype=np.float64)
        self._version += 1

    def copy(self) -> "EmbeddingModel":
        return EmbeddingModel(
            self._user,
            self._item,
            backbone=self.backbone,
            num_prop_layers=self.num_prop_layers,
            adjacency=self.adjacency,
            seed=self.seed,
        )

    # --- propagation ------------------------------------------------------
    def propagate(self) -> tuple[np.ndarray, np.ndarray]:
        """Propagated (user, item) embeddings; cached until parameters change."""
        if self.backbone != "lightgcn":
            raise ValueError("propagate() is only defined for the lightgcn backbone")
        if self._cache is None or self._cache_version != self._version:
            stacked = np.vstack([self._user, self._item])
            out = propagate_matrix(self.adjacency, stacked, self.num_prop_layers)
            self._cache = (out[: self.num_users], out[self.num_users :])
            self._cache_version = self._version
        return self._cache

    def scoring_embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        """The (user, item) matrices scores are computed from."""
        if self.backbone == "lightgcn":
            return self.propagate()
        return self._user, self._item

    # --- scoring -----------------------------------------------------------
    def score(self, u: int, p: int) -> float:
        if not (0 <= u < self.num_users and 0 <= p < self.num_items):
            raise IndexError(f"index out of range: user {u}, item {p}")
        ue, ie = self.scoring_embeddings()
        return float(ue[u] @ ie[p])

    def score_all(self, u: int) -> np.ndarray:
        """Scores of user u against every item."""
        if not 0 <= u < self.num_users:
            raise IndexError(f"user index out of range: {u}")
        ue, ie = self.scoring_embeddings()
        return ie @ ue[u]

    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Scores of the pairs (users[j], items[j]); with 2-D ``items`` of shape
        (b, w), the (b, w) scores of users[j] against each of items[j]."""
        ue, ie = self.scoring_embeddings()
        if np.ndim(items) == 2:
            return np.einsum("bd,bwd->bw", ue[users], ie[items])
        return np.einsum("ij,ij->i", ue[users], ie[items])


def init_xavier(
    num_users: int,
    num_items: int,
    d: int,
    seed: int,
    backbone: str = "mf",
    num_prop_layers: int = 0,
    adjacency: sp.csr_matrix | None = None,
) -> EmbeddingModel:
    """Xavier-uniform initialization: rows uniform on [-a, a], a = sqrt(6/(d+d))."""
    if num_users <= 0 or num_items <= 0 or d <= 0:
        raise ValueError("sizes must be positive")
    a = np.sqrt(6.0 / (d + d))
    rng = np.random.default_rng(seed)
    user_emb = rng.uniform(-a, a, size=(num_users, d))
    item_emb = rng.uniform(-a, a, size=(num_items, d))
    return EmbeddingModel(
        user_emb,
        item_emb,
        backbone=backbone,
        num_prop_layers=num_prop_layers,
        adjacency=adjacency,
        seed=seed,
    )


def save_checkpoint(model: EmbeddingModel, path: str) -> None:
    """Write a line-delimited text checkpoint with hex floats.

    Hex float literals round-trip 64-bit values exactly, so a save/load
    cycle is bit-identical. The file is written to a temporary name in the
    same directory and renamed over `path`, so a crash mid-write never
    leaves a truncated checkpoint behind.
    """
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w") as f:
            f.write(
                json.dumps(
                    {
                        "format": CHECKPOINT_FORMAT,
                        "version": CHECKPOINT_VERSION,
                        "backbone": model.backbone,
                        "num_prop_layers": model.num_prop_layers,
                        "d": model.dim,
                        "num_users": model.num_users,
                        "num_items": model.num_items,
                        "seed": model.seed,
                    }
                )
                + "\n"
            )
            for name, mat in (("user", model.user_emb), ("item", model.item_emb)):
                for row_idx in range(mat.shape[0]):
                    f.write(
                        json.dumps(
                            {"m": name, "row": row_idx, "v": [x.hex() for x in mat[row_idx]]}
                        )
                        + "\n"
                    )
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _read_header(f, path: str) -> dict:
    try:
        header = json.loads(f.readline())
    except ValueError:
        raise ValueError(f"{path}: malformed checkpoint header") from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
    shape = [header.get(key) for key in ("num_users", "num_items", "d")]
    if not all(type(n) is int and n > 0 for n in shape):
        raise ValueError(f"{path}: bad checkpoint shape {shape}")
    return header


def checkpoint_header(path: str) -> dict:
    """The validated header record of a :func:`save_checkpoint` file."""
    with open(path) as f:
        return _read_header(f, path)


def load_checkpoint(path: str, adjacency: sp.csr_matrix | None = None) -> EmbeddingModel:
    """Rebuild a model from :func:`save_checkpoint` output.

    The adjacency operator is not serialized; pass one when loading a
    propagation-backbone checkpoint. A malformed record, a vector of the
    wrong length, or a missing, duplicate or out-of-range row raises
    ValueError naming the file, so a truncated checkpoint never loads.
    """
    with open(path) as f:
        header = _read_header(f, path)
        num_users, num_items, d = (header[key] for key in ("num_users", "num_items", "d"))
        mats = {
            "user": np.empty((num_users, d), dtype=np.float64),
            "item": np.empty((num_items, d), dtype=np.float64),
        }
        seen = {name: np.zeros(mat.shape[0], dtype=bool) for name, mat in mats.items()}
        for lineno, line in enumerate(f, start=2):
            try:
                rec = json.loads(line)
                name, row, vec = rec["m"], rec["row"], rec["v"]
                values = [float.fromhex(h) for h in vec]
            except (ValueError, KeyError, TypeError):
                raise ValueError(f"{path}: line {lineno}: malformed checkpoint record") from None
            if name not in ("user", "item") or type(row) is not int or not (
                0 <= row < mats[name].shape[0]
            ):
                raise ValueError(f"{path}: line {lineno}: no {name!r} row {row!r} in the header shape")
            if seen[name][row]:
                raise ValueError(f"{path}: line {lineno}: duplicate {name} row {row}")
            if len(values) != d:
                raise ValueError(
                    f"{path}: line {lineno}: {name} row {row} has {len(values)} values, expected {d}"
                )
            mats[name][row] = values
            seen[name][row] = True
    for name, got in seen.items():
        if not got.all():
            missing = np.flatnonzero(~got)
            raise ValueError(
                f"{path}: {missing.size} {name} rows missing (first {int(missing[0])}); "
                "the checkpoint is truncated"
            )
    return EmbeddingModel(
        mats["user"],
        mats["item"],
        backbone=header["backbone"],
        num_prop_layers=header["num_prop_layers"],
        adjacency=adjacency,
        seed=header["seed"],
    )
