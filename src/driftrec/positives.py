"""Graph filtration into weight layers and positive-sample-set construction.

The weighted graph is cut into n disjoint layers by equal-width weight
thresholds; an edge in layer i enters the training multiset with i copies,
so the optimizer visits recent interactions more often while old ones stay
in play. The resulting multiset is the training distribution: pair (u, p)
with multiplicity m is drawn with probability m / |set| under uniform
iteration. Nothing is filtered out of a positive set: the split already
guarantees that no train pair is also a validation or test pair.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import InteractionLog, SplitDataset
from .decay import WeightedBipartiteGraph

__all__ = [
    "LayeredGraph",
    "PositiveSampleSet",
    "filtrate",
    "build_pss",
    "train_positives",
    "recent_k_positives",
    "check_filtration",
    "check_recent_k",
]

RANGE_MODES = ("unit_interval", "data_range")
AUDIT_CHUNK = 2**12  # audit records built at once


@dataclass(frozen=True)
class LayeredGraph:
    """Disjoint weight-layer decomposition of a weighted graph.

    ``thresholds`` holds the n+1 ascending bin edges; ``labels[e]`` is the
    1-based layer of edge e. Layer i covers [thresholds[i-1], thresholds[i])
    except the top layer, which is closed so maximal-weight edges (every
    user's most recent interaction) are not orphaned.
    """

    graph: WeightedBipartiteGraph
    n: int
    thresholds: np.ndarray
    labels: np.ndarray

    def layer_edge_indices(self, layer: int) -> np.ndarray:
        """Edge indices of one layer (1-based), in original edge order."""
        if not 1 <= layer <= self.n:
            raise IndexError(f"layer {layer} out of range 1..{self.n}")
        return np.nonzero(self.labels == layer)[0]


@dataclass(frozen=True)
class PositiveSampleSet:
    """Flat multiset of (user, item) training pairs.

    ``users``/``items`` carry duplicates; copies of one pair sit next to
    each other, layers in ascending order. ``layers``/``weights`` record
    each entry's provenance, by experiment variant:

    - layered: the edge's filtration layer and its recency weight;
    - weighted_bpr: layer 1 and the recency weight that scales its loss;
    - baseline: layer 1 and NaN;
    - recent_k: layer 0 and NaN.
    """

    users: np.ndarray
    items: np.ndarray
    layers: np.ndarray
    weights: np.ndarray
    num_users: int
    num_items: int

    def __len__(self) -> int:
        return int(self.users.shape[0])

    def pair_keys(self) -> np.ndarray:
        return self.users * np.int64(self.num_items) + self.items

    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """(first multiset index, count) of each distinct pair, pairs ascending.

        Every copy of a pair shares its layer and weight (the log keeps one
        row per pair), so the first copy speaks for all of them.
        """
        _, first, counts = np.unique(self.pair_keys(), return_index=True, return_counts=True)
        return first, counts

    def multiplicity(self) -> dict[tuple[int, int], int]:
        """Occurrence count per distinct pair."""
        first, counts = self._distinct()
        pairs = zip(self.users[first].tolist(), self.items[first].tolist())
        return dict(zip(pairs, counts.tolist()))

    def pi(self) -> dict[tuple[int, int], float]:
        """Training distribution: multiplicity normalized by the multiset size."""
        total = len(self)
        return {pair: m / total for pair, m in self.multiplicity().items()}

    def audit_chunks(self) -> Iterator[list[dict]]:
        """One record per distinct pair, (user, item) ascending, in lists of
        at most ``AUDIT_CHUNK`` records, so a dump holds one list at a time."""
        first, counts = self._distinct()
        for start in range(0, first.size, AUDIT_CHUNK):
            rows = first[start : start + AUDIT_CHUNK]
            weights = self.weights[rows]
            columns = zip(
                self.users[rows].tolist(),
                self.items[rows].tolist(),
                counts[start : start + AUDIT_CHUNK].tolist(),
                self.layers[rows].tolist(),
                np.where(np.isfinite(weights), weights, None).tolist(),
            )
            yield [
                {"user_index": u, "item_index": i, "multiplicity": m, "layer": layer, "weight": w}
                for u, i, m, layer, w in columns
            ]

    def audit_records(self) -> list[dict]:
        """Every record of :meth:`audit_chunks` in one list."""
        return [record for chunk in self.audit_chunks() for record in chunk]


def check_filtration(n: int, range_mode: str) -> None:
    """Raise ValueError unless :func:`filtrate` accepts `n` and `range_mode`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if range_mode not in RANGE_MODES:
        raise ValueError(f"unknown range_mode {range_mode!r}, expected one of {RANGE_MODES}")


def check_recent_k(k: int) -> None:
    """Raise ValueError unless :func:`recent_k_positives` accepts `k`."""
    if k < 1:
        raise ValueError("k must be >= 1")


def filtrate(
    graph: WeightedBipartiteGraph, n: int, range_mode: str = "unit_interval"
) -> LayeredGraph:
    """Split edges into n equal-width weight bins.

    ``unit_interval`` spaces thresholds over [0, 1], which is the natural
    codomain of the decay weights; ``data_range`` spaces them over
    [W_min, W_max] of the observed weights. An edge with weight w lands in
    the layer whose half-open interval contains it; the top interval is
    closed.
    """
    check_filtration(n, range_mode)
    w = graph.weights
    if range_mode == "unit_interval":
        lo, hi = 0.0, 1.0
    else:
        lo, hi = float(w.min()), float(w.max())
        if hi == lo and n > 1:
            warnings.warn(
                "degenerate data_range (all weights equal); every edge goes to the top layer",
                stacklevel=2,
            )
    thresholds = lo + (hi - lo) * np.arange(n + 1, dtype=np.float64) / n
    # searchsorted against the interior thresholds gives the half-open bin;
    # weights at or above the last interior threshold fall through to layer n,
    # which closes the top interval.
    labels = np.searchsorted(thresholds[1:-1], w, side="right").astype(np.int64) + 1
    return LayeredGraph(graph=graph, n=n, thresholds=thresholds, labels=labels)


def _edge_multiset(edges, rows: np.ndarray, layers, weights) -> PositiveSampleSet:
    """The positive set of `edges` (a graph or a log) at `rows`, a row repeating
    once per copy; `layers` and `weights` are per-edge arrays taken at `rows`
    or one scalar for every row. The one place a positive set is filled."""
    # one block for the four columns: a freed multiset leaves one chunk the next
    # build reuses, not four the heap may trim and fault back in page by page
    block = np.empty((4, rows.size), dtype=np.int64)
    columns = (*block[:3], block[3].view(np.float64))
    for source, column in zip((edges.users, edges.items, layers, weights), columns):
        if np.ndim(source):
            # rows index the edges by construction; "clip" skips the buffered bound check
            np.take(source, rows, out=column, mode="clip")
        else:
            column.fill(source)
    return PositiveSampleSet(*columns, num_users=edges.num_users, num_items=edges.num_items)


def build_pss(layered: LayeredGraph) -> PositiveSampleSet:
    """Layer-enhanced positive multiset: layer-i edges appear i times.

    Pairs are emitted layer-major with copies contiguous. With n=1 this
    degenerates to the plain train edge set, each edge with its weight. No
    pair needs filtering out: :func:`~driftrec.data.timestamp_split`
    guarantees that no train pair is also a validation or test pair.
    """
    # edge indices layer by layer, original order within a layer, edge e labels[e] times
    order = np.argsort(layered.labels, kind="stable")
    rows = np.repeat(order, layered.labels[order])
    return _edge_multiset(layered.graph, rows, layered.labels, layered.graph.weights)


def train_positives(split: SplitDataset) -> PositiveSampleSet:
    """Plain positive set: every train edge once, in train order.

    The split guarantees that no train pair is also a holdout pair, so
    nothing is filtered out.
    """
    return _edge_multiset(split.train, np.arange(len(split.train)), 1, np.nan)


def recent_k_positives(train: InteractionLog, k: int) -> PositiveSampleSet:
    """Each user's k most recent interactions, multiplicity 1.

    Users with fewer than k interactions keep all of them. Timestamp ties
    prefer the smaller item index, so the selection is deterministic.
    """
    check_recent_k(k)
    # sort by (user asc, time desc, item asc) and take the first k rows per user
    order = np.lexsort((train.items, -train.times, train.users))
    u = train.users[order]
    # rank of each row within its user block: its distance from the block's first row
    rank = np.arange(u.size) - np.searchsorted(u, u)
    return _edge_multiset(train, order[rank < k], 0, np.nan)
