"""Per-record reference ingestion: the oracle for the columnar parse_log/build_log.

This is the record-at-a-time reader and builder the columnar code replaced,
kept as written, with one addition: a timestamp above the int64 range is a
``ParseError`` naming its record, as it is in the library.
"""

from __future__ import annotations

import csv
import io
import os
from typing import NamedTuple

import numpy as np

from driftrec.data import InteractionLog, ParseError

INT64_MAX = 2**63 - 1


class Record(NamedTuple):
    user_key: str
    item_key: str
    timestamp: int


def reference_parse_log(source, format: str = "tsv", skip_header: bool = False) -> list[Record]:
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
        stream = source
        close = False

    events: list[Record] = []
    try:
        reader = csv.reader(stream, delimiter=delimiter)
        for lineno, row in enumerate(reader, start=1):
            if skip_header and lineno == 1:
                continue
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
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
            if timestamp > INT64_MAX:
                raise ParseError(f"line {lineno}: timestamp out of range {timestamp}")
            events.append(Record(user_key, item_key, timestamp))
    finally:
        if close:
            stream.close()
    return events


def reference_build_log(events) -> InteractionLog:
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
    order = np.lexsort((items, users, times))
    return InteractionLog(users[order], items[order], times[order], user_vocab, item_vocab)
