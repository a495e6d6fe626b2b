"""Interaction-log ingestion and timestamp-partitioned splitting.

Raw logs are (user, item, timestamp) records with opaque string keys and
integer epoch-second timestamps. Ingestion assigns dense indices in
first-seen order, collapses duplicate (user, item) pairs keeping the latest
timestamp, and sorts chronologically. Splitting cuts the sorted log at a
global timestamp so the model is always asked to predict strictly future
interactions, and removes holdout-only (cold) users.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "RawEvent",
    "InteractionLog",
    "SplitDataset",
    "ParseError",
    "parse_log",
    "build_log",
    "timestamp_split",
    "write_split_manifest",
]


class ParseError(ValueError):
    """Malformed record in a raw interaction file."""


class RawEvent(NamedTuple):
    user_key: str
    item_key: str
    timestamp: int


@dataclass(frozen=True)
class InteractionLog:
    """Deduplicated, ID-mapped interaction list.

    ``users``, ``items`` and ``times`` are parallel int64 arrays sorted by
    (timestamp, user, item) ascending. Vocabularies map opaque keys to dense
    indices; a log sliced out of a larger one (e.g. a split member) keeps the
    full vocabularies so index spaces stay fixed.
    """

    users: np.ndarray
    items: np.ndarray
    times: np.ndarray
    user_vocab: dict[str, int] = field(repr=False)
    item_vocab: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return int(self.users.shape[0])

    @property
    def num_users(self) -> int:
        return len(self.user_vocab)

    @property
    def num_items(self) -> int:
        return len(self.item_vocab)

    def pairs(self) -> list[tuple[int, int, int]]:
        """Interactions as (user, item, timestamp) tuples, in stored order."""
        return list(zip(self.users.tolist(), self.items.tolist(), self.times.tolist()))

    def _replace_arrays(self, mask: np.ndarray) -> "InteractionLog":
        return InteractionLog(
            users=self.users[mask],
            items=self.items[mask],
            times=self.times[mask],
            user_vocab=self.user_vocab,
            item_vocab=self.item_vocab,
        )


@dataclass(frozen=True)
class SplitDataset:
    """Chronological train/validation/test partition of one log.

    ``cutting_timestamp`` separates train (strictly earlier) from the
    holdout. ``dropped_cold_user`` counts holdout interactions removed
    because their user never appears in train; ``dropped_cold_item``
    counts item-side removals when that mode is enabled.
    """

    train: InteractionLog
    validation: InteractionLog
    test: InteractionLog
    cutting_timestamp: int
    num_users: int
    num_items: int
    dropped_cold_user: int = 0
    dropped_cold_item: int = 0


def _sorted_log_arrays(users, items, times):
    """Sort by (timestamp, user, item) ascending; np.lexsort keys last-first."""
    order = np.lexsort((items, users, times))
    return users[order], items[order], times[order]


def parse_log(source, format: str = "tsv", skip_header: bool = False) -> list[RawEvent]:
    """Read raw events from a TSV/CSV byte or text stream, or a str/PathLike path.

    Each record needs at least three fields: user key, item key, integer
    timestamp. Extra fields are ignored. Malformed records raise
    :class:`ParseError` naming the 1-based line number.
    """
    if format not in ("tsv", "csv"):
        raise ValueError(f"unknown format {format!r}, expected 'tsv' or 'csv'")
    delimiter = "\t" if format == "tsv" else ","

    if isinstance(source, (str, os.PathLike)):
        stream = open(os.fspath(source), "r", newline="")
        close = True
    elif isinstance(source, bytes):
        stream = io.StringIO(source.decode("utf-8"))
        close = False
    elif isinstance(source, io.RawIOBase) or isinstance(source, io.BufferedIOBase):
        stream = io.TextIOWrapper(source, encoding="utf-8")
        close = False
    else:
        stream = source  # text file-like
        close = False

    events: list[RawEvent] = []
    try:
        reader = csv.reader(stream, delimiter=delimiter)
        for lineno, row in enumerate(reader, start=1):
            if skip_header and lineno == 1:
                continue
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue  # blank line
            if len(row) < 3:
                raise ParseError(f"line {lineno}: expected >=3 fields, got {len(row)}")
            user_key, item_key = row[0].strip(), row[1].strip()
            if not user_key or not item_key:
                raise ParseError(f"line {lineno}: empty user or item key")
            try:
                timestamp = int(row[2].strip())
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-integer timestamp {row[2]!r}"
                ) from None
            if timestamp < 0:
                raise ParseError(f"line {lineno}: negative timestamp {timestamp}")
            events.append(RawEvent(user_key, item_key, timestamp))
    finally:
        if close:
            stream.close()
    return events


def build_log(events: Iterable[RawEvent]) -> InteractionLog:
    """Assemble an :class:`InteractionLog` from raw events.

    Vocabularies are assigned in first-seen order. Duplicate (user, item)
    pairs collapse to a single interaction carrying the latest timestamp,
    since recency is what downstream weighting cares about.
    """
    user_vocab: dict[str, int] = {}
    item_vocab: dict[str, int] = {}
    latest: dict[tuple[int, int], int] = {}
    for ev in events:
        u = user_vocab.setdefault(ev.user_key, len(user_vocab))
        i = item_vocab.setdefault(ev.item_key, len(item_vocab))
        key = (u, i)
        t = int(ev.timestamp)
        prev = latest.get(key)
        if prev is None or t > prev:
            latest[key] = t
    if not latest:
        raise ValueError("empty event list")

    users = np.fromiter((k[0] for k in latest), dtype=np.int64, count=len(latest))
    items = np.fromiter((k[1] for k in latest), dtype=np.int64, count=len(latest))
    times = np.fromiter(latest.values(), dtype=np.int64, count=len(latest))
    users, items, times = _sorted_log_arrays(users, items, times)
    return InteractionLog(users, items, times, user_vocab, item_vocab)


def _cutting_timestamp(times_sorted: np.ndarray, train_fraction: float) -> int:
    """Smallest timestamp present in the log with >= fraction*N strictly-earlier entries."""
    n = times_sorted.shape[0]
    need = math.ceil(train_fraction * n - 1e-9)
    need = max(need, 1)
    uniques = np.unique(times_sorted)
    # count of entries strictly below each unique value
    below = np.searchsorted(times_sorted, uniques, side="left")
    ok = np.nonzero(below >= need)[0]
    if ok.size == 0:
        raise ValueError(
            "no valid cutting timestamp: holdout would be empty "
            "(all interactions may share one timestamp)"
        )
    return int(uniques[ok[0]])


def timestamp_split(
    log: InteractionLog,
    train_fraction: float = 0.8,
    val_fraction_of_holdout: float = 0.5,
    drop_cold_items: bool = False,
) -> SplitDataset:
    """Split a log at the global timestamp quantile.

    Train takes everything strictly before the cutting timestamp; the
    holdout (>= cut) is divided chronologically into validation then test.
    Holdout interactions of users unseen in train are dropped entirely.
    Items unseen in train keep their holdout interactions by default (they
    depress ranking metrics uniformly); pass ``drop_cold_items=True`` to
    remove them instead.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    if not (0.0 <= val_fraction_of_holdout <= 1.0):
        raise ValueError("val_fraction_of_holdout must be in [0, 1]")
    if len(log) == 0:
        raise ValueError("empty log")

    cut = _cutting_timestamp(log.times, train_fraction)
    train_mask = log.times < cut
    train = log._replace_arrays(train_mask)
    holdout = log._replace_arrays(~train_mask)
    if len(train) == 0 or len(holdout) == 0:
        raise ValueError("degenerate split: empty train or holdout")

    dropped_cold_user = 0
    dropped_cold_item = 0
    train_users = np.zeros(log.num_users, dtype=bool)
    train_users[train.users] = True
    keep = train_users[holdout.users]
    dropped_cold_user = int((~keep).sum())
    holdout = holdout._replace_arrays(keep)
    if drop_cold_items:
        train_items = np.zeros(log.num_items, dtype=bool)
        train_items[train.items] = True
        keep = train_items[holdout.items]
        dropped_cold_item = int((~keep).sum())
        holdout = holdout._replace_arrays(keep)

    n_val = int(math.floor(val_fraction_of_holdout * len(holdout) + 1e-9))
    idx = np.arange(len(holdout))
    validation = holdout._replace_arrays(idx < n_val)
    test = holdout._replace_arrays(idx >= n_val)
    return SplitDataset(
        train=train,
        validation=validation,
        test=test,
        cutting_timestamp=cut,
        num_users=log.num_users,
        num_items=log.num_items,
        dropped_cold_user=dropped_cold_user,
        dropped_cold_item=dropped_cold_item,
    )


def holdout_pair_keys(split: SplitDataset) -> np.ndarray:
    """Sorted int64 keys (user * num_items + item) of validation+test pairs."""
    n_items = split.num_items
    keys = np.concatenate(
        [
            split.validation.users * n_items + split.validation.items,
            split.test.users * n_items + split.test.items,
        ]
    )
    return np.unique(keys)


def write_split_manifest(split: SplitDataset, stream) -> None:
    """Dump the split as line-delimited records for reproducibility audits."""
    import json

    for name, part in (
        ("train", split.train),
        ("validation", split.validation),
        ("test", split.test),
    ):
        for u, i, t in zip(
            part.users.tolist(), part.items.tolist(), part.times.tolist()
        ):
            stream.write(
                json.dumps(
                    {
                        "split": name,
                        "user_index": u,
                        "item_index": i,
                        "timestamp": t,
                    }
                )
                + "\n"
            )
