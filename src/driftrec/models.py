"""Embedding backbones: plain matrix factorization and light graph propagation.

Both backbones score a (user, item) pair by a dot product of d-dimensional
embeddings, held as one stacked (num_users + num_items, d) matrix: users
first, then items, the node order of the interaction graph. The
propagation backbone additionally smooths that matrix over the
symmetrically normalized train interaction graph before scoring:
E(l+1) = A_norm @ E(l), with the final embedding the mean of all L+1 levels
and no feature transforms or nonlinearities in between. Propagated
embeddings are cached and invalidated on every parameter update, so scores
never come from stale caches.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np
import scipy.sparse as sp

__all__ = [
    "EmbeddingModel",
    "check_backbone",
    "check_index",
    "init_xavier",
    "build_norm_adjacency",
    "propagate_matrix",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_header",
]

BACKBONES = ("mf", "lightgcn")

CHECKPOINT_FORMAT = "driftrec-checkpoint"
CHECKPOINT_VERSION = 2
# what reading an archive raises when the file is not an intact one:
# EOFError (empty), BadZipFile (truncated, or a failed CRC), KeyError (a
# missing member), ValueError (a text, pickled or .npy file), and OSError,
# NotImplementedError or RuntimeError (damaged zip records)
_UNREADABLE = (EOFError, KeyError, OSError, NotImplementedError, RuntimeError, ValueError,
               zipfile.BadZipFile)
# gathered candidate rows per block of users in a 2-D pair_scores call
SCORE_BLOCK_BYTES = 2**19


def check_backbone(backbone: str) -> None:
    """Raise ValueError unless ``backbone`` is one of :data:`BACKBONES`."""
    if backbone not in BACKBONES:
        raise ValueError(f"unknown backbone {backbone!r}, expected one of {BACKBONES}")


def check_index(name: str, index, size: int) -> None:
    """Raise IndexError unless every entry of `index`, an int or an int
    array, lies in [0, size); a negative index would wrap silently."""
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= size):
        raise IndexError(f"{name} index out of range [0, {size})")


def build_norm_adjacency(
    users: np.ndarray, items: np.ndarray, num_users: int, num_items: int
) -> sp.csc_matrix:
    """Symmetrically normalized bipartite adjacency over user+item nodes, in CSC.

    Nodes 0..num_users-1 are users, the rest items. Normalization is
    D^(-1/2) A D^(-1/2) with the convention that zero-degree nodes get a
    zero scaling factor instead of a division error. A repeated edge is one
    entry holding its count c, scaled in place as (D^(-1/2)[row] * c) *
    D^(-1/2)[col], the product order of D @ A @ D. The CSC product with a
    dense matrix walks columns in order, so each output row adds its terms
    in ascending column order, as the CSR product does.
    """
    n = num_users + num_items
    rows = np.concatenate([users, items + num_users])
    cols = np.concatenate([items + num_users, users])
    # duplicates summed and indices sorted by the COO -> CSC conversion
    adj = sp.csc_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))
    deg = np.bincount(rows, minlength=n).astype(np.float64)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    adj.data *= inv_sqrt[adj.indices]
    adj.data *= np.repeat(inv_sqrt, np.diff(adj.indptr))
    return adj


def propagate_matrix(adj: sp.spmatrix, x: np.ndarray, num_layers: int) -> np.ndarray:
    """Mean of adj^l @ x over l = 0..num_layers.

    The operator is linear and (for our symmetric adjacency) self-adjoint,
    so the same function maps gradients back to the base embeddings.
    """
    if num_layers == 0:
        return x.copy()
    # x + adj @ x is the float sum a copy of x and += would give, without the copy pass
    cur = adj @ x
    acc = x + cur
    for _ in range(num_layers - 1):
        cur = adj @ cur
        acc += cur
    acc /= num_layers + 1
    return acc


class EmbeddingModel:
    """User/item embeddings as one stacked matrix, with an optional propagation operator.

    Row r < num_users is user r and row num_users + i is item i, the node
    order of :func:`build_norm_adjacency`. Parameters are mutated only through
    :meth:`add_to_params` / :meth:`set_params`; the exposed matrices are
    read-only views so the propagation cache cannot silently go stale.
    """

    def __init__(
        self,
        user_emb: np.ndarray,
        item_emb: np.ndarray,
        backbone: str = "mf",
        num_prop_layers: int = 0,
        adjacency: sp.spmatrix | None = None,
        seed: int | None = None,
    ):
        check_backbone(backbone)
        if user_emb.ndim != 2 or item_emb.ndim != 2 or user_emb.shape[1] != item_emb.shape[1]:
            raise ValueError("embedding matrices must be 2-D with a shared dimension")
        if backbone == "lightgcn" and adjacency is None:
            raise ValueError("lightgcn backbone needs a normalized adjacency operator")
        layers = int(num_prop_layers)
        if layers != num_prop_layers or layers < 0:
            raise ValueError(
                f"num_prop_layers must be a non-negative integer, got {num_prop_layers!r}"
            )
        self._params = np.concatenate([user_emb, item_emb], dtype=np.float64)
        self.num_users = user_emb.shape[0]
        self.backbone = backbone
        self.num_prop_layers = layers
        self.adjacency = adjacency
        self.seed = seed
        # epoch of the validation-selected parameters, set by training.fit
        self.best_epoch: int | None = None
        self._propagated: np.ndarray | None = None

    # --- shape metadata -------------------------------------------------
    @property
    def num_items(self) -> int:
        return self._params.shape[0] - self.num_users

    @property
    def dim(self) -> int:
        return self._params.shape[1]

    # --- parameter access ------------------------------------------------
    @property
    def params(self) -> np.ndarray:
        """The stacked (num_users + num_items, d) parameters, read-only."""
        view = self._params.view()
        view.setflags(write=False)
        return view

    @property
    def user_emb(self) -> np.ndarray:
        return self.params[: self.num_users]

    @property
    def item_emb(self) -> np.ndarray:
        return self.params[self.num_users :]

    def add_to_params(self, delta: np.ndarray) -> None:
        self._params += delta
        self._propagated = None

    def set_params(self, params: np.ndarray) -> None:
        self._params = np.array(params, dtype=np.float64)
        self._propagated = None

    # --- propagation ------------------------------------------------------
    def propagate(self) -> np.ndarray:
        """The propagated stacked rows, cached until a parameter update drops them."""
        if self.backbone != "lightgcn":
            raise ValueError("propagate() is only defined for the lightgcn backbone")
        if self._propagated is None:
            self._propagated = propagate_matrix(self.adjacency, self._params, self.num_prop_layers)
        return self._propagated

    def scoring_params(self) -> np.ndarray:
        """The stacked rows scores are computed from, in the parameters' row space."""
        return self.propagate() if self.backbone == "lightgcn" else self.params

    def scoring_embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        """The (user, item) matrices scores are computed from."""
        rows = self.scoring_params()
        return rows[: self.num_users], rows[self.num_users :]

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
        (b, w), the (b, w) scores of users[j] against each of items[j].

        The 2-D case scores blocks of users, each gathering at most
        ``SCORE_BLOCK_BYTES`` of candidate rows (at least one user), so its
        transient memory is bounded rather than b * w * d * 8 bytes. Every
        score is the same d-term reduction whatever the block size.
        """
        check_index("user", users, self.num_users)
        check_index("item", items, self.num_items)
        ue, ie = self.scoring_embeddings()
        if np.ndim(items) != 2:
            return np.einsum("ij,ij->i", ue[users], ie[items])
        b, w = items.shape
        out = np.empty((b, w))
        rows = max(1, SCORE_BLOCK_BYTES // max(1, 8 * w * self.dim))
        for a in range(0, b, rows):
            block = slice(a, a + rows)
            np.einsum("bd,bwd->bw", ue[users[block]], ie[items[block]], out=out[block])
        return out


def init_xavier(
    num_users: int,
    num_items: int,
    d: int,
    seed: int,
    backbone: str = "mf",
    num_prop_layers: int = 0,
    adjacency: sp.spmatrix | None = None,
) -> EmbeddingModel:
    """Xavier-uniform initialization: rows uniform on [-a, a], a = sqrt(6/(d+d)),
    in one draw of the stacked rows (users first)."""
    if num_users <= 0 or num_items <= 0 or d <= 0:
        raise ValueError("sizes must be positive")
    a = np.sqrt(6.0 / (d + d))
    params = np.random.default_rng(seed).uniform(-a, a, size=(num_users + num_items, d))
    return EmbeddingModel(
        params[:num_users],
        params[num_users:],
        backbone=backbone,
        num_prop_layers=num_prop_layers,
        adjacency=adjacency,
        seed=seed,
    )


def save_checkpoint(model: EmbeddingModel, path: str) -> None:
    """Write the model as one uncompressed NumPy archive: ``header``, the
    JSON string of the fields below, and ``params``, the stacked float64 rows.

    Raw float64 rows make a save/load cycle bit-identical, and each member's
    fixed 1980-01-01 zip stamp makes two saves of one model byte-identical.
    The file is written to a temporary name in the same directory and
    renamed over `path`, so a crash mid-write never leaves a truncated
    checkpoint behind.
    """
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "backbone": model.backbone,
        "num_prop_layers": model.num_prop_layers,
        "d": model.dim,
        "num_users": model.num_users,
        "num_items": model.num_items,
        "seed": model.seed,
    }
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        # a file object, because np.savez appends ".npz" to a path without it
        with open(tmp_path, "wb") as f:
            np.savez(f, header=np.array(json.dumps(header)), params=model.params)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _read_checkpoint(path: str) -> tuple[dict, np.ndarray]:
    """The checked header and the unchecked params of a :func:`save_checkpoint` archive."""
    with open(path, "rb") as f:  # a missing file is an OSError of its own
        try:
            archive = np.load(f, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a single array, not an archive")
            with archive:
                header_text = str(archive["header"])
                params = archive["params"]
        except _UNREADABLE:
            raise ValueError(
                f"{path}: not a readable {CHECKPOINT_FORMAT} archive (truncated, corrupted "
                "or another format)"
            ) from None
    try:
        header = json.loads(header_text)
    except ValueError:
        raise ValueError(f"{path}: malformed checkpoint header") from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
    shape = [header.get(key) for key in ("num_users", "num_items", "d")]
    if not all(type(n) is int and n > 0 for n in shape):
        raise ValueError(f"{path}: bad checkpoint shape {shape}")
    layers = header.get("num_prop_layers")
    if type(layers) is not int or layers < 0:
        raise ValueError(f"{path}: bad num_prop_layers {layers!r}")
    if header.get("backbone") not in BACKBONES:
        raise ValueError(f"{path}: bad backbone {header.get('backbone')!r}")
    if "seed" not in header:
        raise ValueError(f"{path}: checkpoint header has no seed")
    # null is what save_checkpoint writes for a model built with no seed
    if header["seed"] is not None and type(header["seed"]) is not int:
        raise ValueError(f"{path}: bad seed {header['seed']!r}")
    return header, params


def checkpoint_header(path: str) -> dict:
    """The validated header record of a :func:`save_checkpoint` file."""
    return _read_checkpoint(path)[0]


def load_checkpoint(path: str, adjacency: sp.spmatrix | None = None) -> EmbeddingModel:
    """Rebuild a model from :func:`save_checkpoint` output.

    The adjacency operator is not serialized; pass one when loading a
    propagation-backbone checkpoint. A file that is not an intact archive
    (truncated, a failed CRC, a missing member, a text file such as a
    version 1 checkpoint, a pickle or a .npy array), a bad header, a
    ``params`` array of another dtype or shape than the header's, or a NaN
    or infinite value raises ValueError naming the file.
    """
    header, params = _read_checkpoint(path)
    num_users, num_items, d = (header[key] for key in ("num_users", "num_items", "d"))
    if params.dtype != np.float64 or params.shape != (num_users + num_items, d):
        raise ValueError(
            f"{path}: params is {params.dtype} {params.shape}, expected float64 "
            f"{(num_users + num_items, d)}"
        )
    bad = np.flatnonzero(~np.isfinite(params).all(axis=1))
    if bad.size:
        name, start = ("user", 0) if bad[0] < num_users else ("item", num_users)
        raise ValueError(f"{path}: {name} row {int(bad[0]) - start} holds a non-finite value")
    return EmbeddingModel(
        params[:num_users],
        params[num_users:],
        backbone=header["backbone"],
        num_prop_layers=header["num_prop_layers"],
        adjacency=adjacency,
        seed=header["seed"],
    )
