"""Interaction-log ingestion and timestamp-partitioned splitting.

Raw logs are (user, item, timestamp) records with opaque string keys and
integer epoch-second timestamps. Parsing reads the log in one ``csv.reader``
pass into three columns (user keys, item keys, int64 timestamps); no
per-record object is built. Each key column holds one shared ``str`` per
distinct stripped key, and timestamps are converted and checked every
``PARSE_CHUNK`` records, so at most one chunk of raw field strings is held
at a time. Ingestion then
assigns dense indices in first-seen order, collapses duplicate (user, item)
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
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "RawEvent",
    "RawEvents",
    "InteractionLog",
    "SplitDataset",
    "ParseError",
    "parse_log",
    "build_log",
    "latest_per_pair",
    "timestamp_split",
    "check_split_fractions",
    "write_split_manifest",
]


class ParseError(ValueError):
    """Malformed record in a raw interaction file."""


class RawEvent(NamedTuple):
    user_key: str
    item_key: str
    timestamp: int


class RawEvents(Sequence):
    """Read-only sequence of parsed records, held as three columns.

    ``user_keys`` and ``item_keys`` are lists of stripped keys and
    ``timestamps`` is a read-only int64 array, all in record order. In the
    columns :func:`parse_log` builds, the records of one stripped key share
    one ``str`` object.
    Length, iteration and indexing yield :class:`RawEvent`; a slice yields
    :class:`RawEvents`.
    """

    __slots__ = ("user_keys", "item_keys", "timestamps")

    def __init__(self, user_keys: list[str], item_keys: list[str], timestamps: np.ndarray):
        if not len(user_keys) == len(item_keys) == timestamps.shape[0]:
            raise ValueError("columns differ in length")
        timestamps.flags.writeable = False
        self.user_keys = user_keys
        self.item_keys = item_keys
        self.timestamps = timestamps

    def __len__(self) -> int:
        return len(self.user_keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RawEvents(
                self.user_keys[index], self.item_keys[index], self.timestamps[index]
            )
        return RawEvent(
            self.user_keys[index], self.item_keys[index], int(self.timestamps[index])
        )

    def __iter__(self):
        return map(RawEvent, self.user_keys, self.item_keys, self.timestamps.tolist())


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


class _StrippedKeys(dict):
    """Raw key -> stripped key, with one ``str`` object per distinct stripped key."""

    __slots__ = ()

    def __missing__(self, raw: str) -> str:
        stripped = raw.strip()
        key = self[raw] = self.setdefault(stripped, stripped)
        return key


def _timestamp_block(stamps: list[str]) -> np.ndarray | None:
    """int64 values of raw timestamp strings, or None unless each is an integer in [0, 2**63)."""
    try:
        block = np.fromiter(map(int, map(str.strip, stamps)), dtype=np.int64, count=len(stamps))
    except (ValueError, OverflowError):
        return None
    return None if (block < 0).any() else block


def _raise_first_bad_record(user_keys, item_keys, stamps, skipped) -> None:
    """Re-check the read records one by one and raise the first one's ParseError.

    ``user_keys`` and ``item_keys`` are the stripped keys of every record
    read; ``stamps`` holds the raw timestamps of the last ``len(stamps)``
    records, those of the records before them having passed their checks.
    ``skipped`` holds the record numbers that carry no event (the header
    and blank records), so column position maps back to the 1-based
    record number the reader saw.
    """
    first = len(user_keys) - len(stamps)
    skip = set(skipped)
    lineno = 0
    for k, (user, item) in enumerate(zip(user_keys, item_keys)):
        lineno += 1
        while lineno in skip:
            lineno += 1
        if not user or not item:
            raise ParseError(f"line {lineno}: empty user or item key")
        if k < first:
            continue
        raw_time = stamps[k - first]
        try:
            timestamp = int(raw_time.strip())
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer timestamp {raw_time!r}") from None
        if timestamp < 0:
            raise ParseError(f"line {lineno}: negative timestamp {timestamp}")
        if timestamp > _INT64_MAX:
            raise ParseError(f"line {lineno}: timestamp out of range {timestamp}")


def parse_log(source, format: str = "tsv", skip_header: bool = False) -> RawEvents:
    """Read raw events from a TSV/CSV byte or text stream, or a str/PathLike path.

    Each record needs at least three fields: user key, item key, integer
    timestamp. Extra fields are ignored, keys and timestamps are stripped
    of surrounding whitespace, and blank records are skipped. One
    ``csv.reader`` pass collects the first three fields of each record;
    every ``PARSE_CHUNK`` records the keys are mapped through their
    column's table of stripped keys, and the timestamps converted to int64
    and checked (integers in [0, 2**63)) together. Once a chunk fails,
    conversion stops; keys are checked non-empty over the distinct keys at
    the end. Only when a check fails are the records re-checked one by one,
    so a malformed record raises :class:`ParseError` naming its 1-based
    record number, and the first malformed record in file order is the one
    reported.
    """
    if format not in ("tsv", "csv"):
        raise ValueError(f"unknown format {format!r}, expected 'tsv' or 'csv'")
    delimiter = "\t" if format == "tsv" else ","

    users, items = _StrippedKeys(), _StrippedKeys()
    user_keys: list[str] = []
    item_keys: list[str] = []
    blocks: list[np.ndarray] = []  # converted timestamps, one chunk each
    # raw fields of the records after the last flush; after a failed chunk,
    # stamps keeps the raw timestamps of that chunk and every later one
    raw_users: list[str] = []
    raw_items: list[str] = []
    stamps: list[str] = []
    converting = True

    def flush() -> None:
        nonlocal converting
        user_keys.extend(map(users.__getitem__, raw_users))
        item_keys.extend(map(items.__getitem__, raw_items))
        raw_users.clear()
        raw_items.clear()
        if converting:
            block = _timestamp_block(stamps)
            converting = block is not None
            if converting:
                blocks.append(block)
                stamps.clear()

    chunk = PARSE_CHUNK
    skipped: list[int] = []
    # an error met while reading waits until the records before it are checked
    pending: Exception | None = None
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
                    skipped.append(len(user_keys) + len(raw_users) + len(skipped) + 1)  # blank
                else:
                    lineno = len(user_keys) + len(raw_users) + len(skipped) + 1
                    pending = ParseError(f"line {lineno}: expected >=3 fields, got {len(row)}")
                    break
        except (csv.Error, ValueError) as exc:  # ValueError covers bad UTF-8
            pending = exc
    finally:
        if close:
            stream.close()

    flush()
    if pending is not None or not converting or not (all(users.values()) and all(items.values())):
        _raise_first_bad_record(user_keys, item_keys, stamps, skipped)
        raise pending
    return RawEvents(user_keys, item_keys, np.concatenate(blocks))


def _columns(events: Iterable[RawEvent]) -> RawEvents:
    """Columns of any iterable of raw events, ``int()`` applied to each timestamp."""
    user_keys: list[str] = []
    item_keys: list[str] = []
    stamps: list[int] = []
    for ev in events:
        user_keys.append(ev.user_key)
        item_keys.append(ev.item_key)
        stamps.append(int(ev.timestamp))
    return RawEvents(user_keys, item_keys, np.array(stamps, dtype=np.int64))


def _codes(keys: list[str]) -> tuple[dict[str, int], np.ndarray]:
    """First-seen vocabulary of ``keys`` and each key's dense index, in one pass."""
    vocab = defaultdict(itertools.count().__next__)  # a new key takes the next index
    codes = np.fromiter(map(vocab.__getitem__, keys), dtype=np.int64, count=len(keys))
    return dict(vocab), codes


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


def build_log(events: Iterable[RawEvent]) -> InteractionLog:
    """Assemble an :class:`InteractionLog` from raw events.

    Takes the :class:`RawEvents` columns :func:`parse_log` returns, or any
    iterable of :class:`RawEvent` (turned into columns once). Vocabularies
    are assigned in first-seen order. Duplicate (user, item) pairs collapse
    to a single interaction carrying the latest timestamp, since recency is
    what downstream weighting cares about (:func:`latest_per_pair`).
    """
    if not isinstance(events, RawEvents):
        events = _columns(events)
    if len(events) == 0:
        raise ValueError("empty event list")
    user_vocab, users = _codes(events.user_keys)
    item_vocab, items = _codes(events.item_keys)
    times = events.timestamps

    latest = latest_per_pair(users * np.int64(len(item_vocab)) + items, times)
    users, items, times = users[latest], items[latest], times[latest]
    return InteractionLog(users, items, times, user_vocab, item_vocab)


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
    if len(train) == 0 or len(holdout) == 0:
        raise ValueError("degenerate split: empty train or holdout")
    _check_disjoint_pairs(train, holdout)

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
