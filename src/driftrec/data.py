"""Interaction-log ingestion and timestamp-partitioned splitting.

Raw logs are (user, item, timestamp) records with opaque string keys and
integer epoch-second timestamps. Parsing reads the log in one
``csv.reader`` pass into three int64 columns: each key column is mapped,
through one table per column, straight to dense indices numbered in
first-seen order of the stripped keys, and timestamps are converted and
checked. Both happen every ``PARSE_CHUNK`` records, so at most one chunk of
raw field strings is held at a time; nothing after the first chunk with a
malformed record is read. Ingestion then collapses duplicate (user, item)
pairs keeping the latest timestamp, and sorts chronologically, all on NumPy
arrays. Splitting cuts the sorted log at a global timestamp so the model is
always asked to predict strictly future interactions, and removes
holdout-only (cold) users. A split holds the invariant that no (user, item)
pair is in both train and the holdout; it raises on a log that breaks it,
which only a hand-built one can, since ingestion keeps each pair once.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RawEvents",
    "InteractionLog",
    "SplitDataset",
    "ParseError",
    "DATA_FORMATS",
    "check_format",
    "parse_log",
    "build_log",
    "latest_per_pair",
    "timestamp_split",
    "check_split_fractions",
    "write_split_manifest",
]

DATA_FORMATS = ("tsv", "csv")


class ParseError(ValueError):
    """Malformed record in a raw interaction file."""


@dataclass(frozen=True)
class RawEvents:
    """Parsed records as three read-only int64 columns, in record order.

    ``users`` and ``items`` hold each record's dense key index and
    ``timestamps`` its timestamp. The vocabularies map each stripped key to
    its index, numbered in first-seen order.
    """

    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray
    user_vocab: dict[str, int] = field(repr=False)
    item_vocab: dict[str, int] = field(repr=False)

    def __post_init__(self):
        if not self.users.shape == self.items.shape == self.timestamps.shape:
            raise ValueError("columns differ in length")
        for column in (self.users, self.items, self.timestamps):
            column.flags.writeable = False

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])


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


def _open_text(source):
    """(text stream, whether this call opened it) for every accepted source type."""
    if isinstance(source, (str, os.PathLike)):
        return open(os.fspath(source), "r", newline=""), True
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8")), False
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        return io.TextIOWrapper(source, encoding="utf-8"), False
    return source, False  # text file-like


_INT64_MAX = np.iinfo(np.int64).max
PARSE_CHUNK = 4096  # records whose raw fields parse_log holds before mapping and converting them


class _KeyIndex(dict):
    """Raw key -> dense index of the key it strips to; ``vocab`` numbers the
    stripped keys in first-seen order."""

    __slots__ = ("vocab",)

    def __init__(self):
        super().__init__()
        self.vocab: dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        index = self[raw] = self.vocab.setdefault(raw.strip(), len(self.vocab))
        return index

    def column(self, raw_keys: list[str]) -> np.ndarray:
        """The int64 indices of ``raw_keys``, new stripped keys numbered as they come."""
        return np.fromiter(map(self.__getitem__, raw_keys), dtype=np.int64, count=len(raw_keys))


def _timestamp_block(stamps: list[str]) -> np.ndarray | None:
    """int64 values of raw timestamp strings, or None unless each is an integer in [0, 2**63)."""
    try:
        block = np.fromiter(map(int, map(str.strip, stamps)), dtype=np.int64, count=len(stamps))
    except (ValueError, OverflowError):
        return None
    return None if (block < 0).any() else block


def _raise_first_bad_record(first, users, items, stamps, skipped, empty) -> None:
    """Re-check one chunk's records one by one and raise the first one's ParseError.

    ``users``, ``items`` and ``stamps`` are the key indices and raw
    timestamps of the chunk's records, which follow ``first`` records that
    passed their checks; ``empty`` is the (user, item) index of the empty
    key, -1 in a column without one. ``skipped`` holds the record numbers
    that carry no event (the header and blank records), so column position
    maps back to the 1-based record number the reader saw.
    """
    skip = set(skipped)
    linenos = itertools.islice((n for n in itertools.count(1) if n not in skip), first, None)
    for lineno, user, item, raw_time in zip(linenos, users.tolist(), items.tolist(), stamps):
        if user == empty[0] or item == empty[1]:
            raise ParseError(f"line {lineno}: empty user or item key")
        try:
            timestamp = int(raw_time.strip())
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer timestamp {raw_time!r}") from None
        if timestamp < 0:
            raise ParseError(f"line {lineno}: negative timestamp {timestamp}")
        if timestamp > _INT64_MAX:
            raise ParseError(f"line {lineno}: timestamp out of range {timestamp}")


def check_format(format: str) -> None:
    """Raise ValueError unless :func:`parse_log` reads ``format``."""
    if format not in DATA_FORMATS:
        raise ValueError(f"unknown format {format!r}, expected 'tsv' or 'csv'")


def parse_log(source, format: str = "tsv", skip_header: bool = False) -> RawEvents:
    """Read raw events from a TSV/CSV byte or text stream, or a str/PathLike path.

    Each record needs at least three fields: user key, item key, integer
    timestamp. Extra fields are ignored, keys and timestamps are stripped
    of surrounding whitespace, and blank records are skipped. One
    ``csv.reader`` pass collects the first three fields of each record;
    every ``PARSE_CHUNK`` records each key is mapped through its column's
    table to the dense index of its stripped form, a new stripped key
    taking the next index, and the timestamps are converted to int64 and
    checked (integers in [0, 2**63)) together, as are the keys (non-empty).
    The first chunk that fails a check stops the parse, and nothing after
    it is read: its records are re-checked one by one, so a malformed
    record raises :class:`ParseError` naming its 1-based record number, and
    the first malformed record in file order is the one reported. A short
    record or a reader error is raised once the records before it are
    checked.
    """
    check_format(format)
    delimiter = "\t" if format == "tsv" else ","

    users, items = _KeyIndex(), _KeyIndex()
    # the (users, items, timestamps) columns of each flushed chunk
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    flushed = 0  # records in blocks
    # raw fields of the records after the last flush
    raw_users: list[str] = []
    raw_items: list[str] = []
    stamps: list[str] = []
    skipped: list[int] = []  # record numbers of the header and blank records

    def flush() -> None:
        nonlocal flushed
        user_block, item_block = users.column(raw_users), items.column(raw_items)
        raw_users.clear()
        raw_items.clear()
        time_block = _timestamp_block(stamps)
        # every raw key that strips to nothing has the index of ""
        if time_block is None or "" in users.vocab or "" in items.vocab:
            empty = (users.vocab.get("", -1), items.vocab.get("", -1))
            _raise_first_bad_record(flushed, user_block, item_block, stamps, skipped, empty)
        blocks.append((user_block, item_block, time_block))
        flushed += len(stamps)
        stamps.clear()

    chunk = PARSE_CHUNK
    stream, close = _open_text(source)
    try:
        reader = csv.reader(stream, delimiter=delimiter)
        add_user, add_item, add_stamp = raw_users.append, raw_items.append, stamps.append
        try:
            if skip_header and next(reader, None) is not None:
                skipped.append(1)
            for row in reader:
                if len(row) >= 3:
                    add_user(row[0])
                    add_item(row[1])
                    add_stamp(row[2])
                    if len(raw_users) == chunk:
                        flush()
                elif not row or (len(row) == 1 and row[0].strip() == ""):
                    skipped.append(flushed + len(raw_users) + len(skipped) + 1)  # blank
                else:
                    lineno = flushed + len(raw_users) + len(skipped) + 1
                    flush()
                    raise ParseError(f"line {lineno}: expected >=3 fields, got {len(row)}")
        except ParseError:
            raise
        except (csv.Error, ValueError):  # ValueError covers bad UTF-8
            flush()  # a malformed record before the reader error is reported instead
            raise
    finally:
        if close:
            stream.close()

    flush()
    columns = (np.concatenate(column) for column in zip(*blocks))
    return RawEvents(*columns, users.vocab, items.vocab)


def latest_per_pair(keys: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Row indices of the latest row of each pair key, in (time, key) order.

    One ``lexsort`` on (key, time) keeps the last row of each key, in
    ascending key order; a stable sort on time keeps that order among equal
    timestamps. With keys ``user * num_items + item`` the kept rows are in
    (timestamp, user, item) order.
    """
    order = np.lexsort((times, keys))
    sorted_keys = keys[order]
    last = np.ones(order.shape[0], dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=last[:-1])
    latest = order[last]
    return latest[np.argsort(times[latest], kind="stable")]


def build_log(events: RawEvents) -> InteractionLog:
    """Deduplicate the columns :func:`parse_log` returns into an :class:`InteractionLog`.

    Indices and vocabularies are the parsed ones. Duplicate (user, item)
    pairs collapse to a single interaction carrying the latest timestamp,
    since recency is what downstream weighting cares about
    (:func:`latest_per_pair`).
    """
    if len(events) == 0:
        raise ValueError("empty event list")
    users, items, times = events.users, events.items, events.timestamps
    latest = latest_per_pair(users * np.int64(len(events.item_vocab)) + items, times)
    return InteractionLog(users[latest], items[latest], times[latest],
                          events.user_vocab, events.item_vocab)


def _cutting_timestamp(times_sorted: np.ndarray, train_fraction: float) -> int:
    """Smallest timestamp present in the log with >= fraction*N strictly-earlier entries.

    On the sorted column that is the first timestamp above the ``need``-th
    one, so one binary search finds it.
    """
    n = times_sorted.shape[0]
    need = max(math.ceil(train_fraction * n - 1e-9), 1)
    # no np.unique: without flags it takes NumPy 2.x's hash path, far slower on int64
    pos = np.searchsorted(times_sorted, times_sorted[need - 1], side="right")
    if pos == n:
        raise ValueError(
            "no valid cutting timestamp: holdout would be empty "
            "(all interactions may share one timestamp)"
        )
    return int(times_sorted[pos])


def _check_disjoint_pairs(train: InteractionLog, holdout: InteractionLog) -> None:
    """Raise ValueError naming a (user, item) pair on both sides of the cut.

    :func:`build_log` keeps each pair once, so this holds for every log it
    built; checking it here lets positive sets be built from train alone.
    """
    n_items = train.num_items
    # sorted queries: a binary search over unsorted ones is several times slower
    train_keys = np.sort(train.users * np.int64(n_items) + train.items)
    held_keys = np.sort(holdout.users * np.int64(n_items) + holdout.items)
    pos = np.searchsorted(train_keys, held_keys)
    np.minimum(pos, train_keys.size - 1, out=pos)
    both = np.flatnonzero(train_keys[pos] == held_keys)
    if both.size:
        user, item = divmod(int(held_keys[both[0]]), n_items)
        raise ValueError(
            f"pair (user {user}, item {item}) is on both sides of the cutting timestamp"
        )


def check_split_fractions(train_fraction: float, val_fraction_of_holdout: float) -> None:
    """Raise ValueError unless :func:`timestamp_split` accepts the two fractions."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    if not (0.0 <= val_fraction_of_holdout <= 1.0):
        raise ValueError("val_fraction_of_holdout must be in [0, 1]")


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
    remove them instead. Train and holdout share no (user, item) pair: a
    log with a pair on both sides of the cut raises ``ValueError`` naming
    it, so positive sets built from train need no leakage filter.
    """
    check_split_fractions(train_fraction, val_fraction_of_holdout)
    if len(log) == 0:
        raise ValueError("empty log")

    cut = _cutting_timestamp(log.times, train_fraction)
    train_mask = log.times < cut
    train = log._replace_arrays(train_mask)
    holdout = log._replace_arrays(~train_mask)
    _check_disjoint_pairs(train, holdout)

    train_users = np.zeros(log.num_users, dtype=bool)
    train_users[train.users] = True
    keep = train_users[holdout.users]
    dropped_cold_user = int((~keep).sum())
    holdout = holdout._replace_arrays(keep)
    dropped_cold_item = 0
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
