"""Ingestion and split tests: parsing contracts, quantile-cut arithmetic,
cold-user handling, and the split partition invariants."""

import io
import json

import numpy as np
import pytest

from driftrec.data import (
    ParseError,
    RawEvent,
    build_log,
    parse_log,
    timestamp_split,
    write_split_manifest,
)
from conftest import make_log


class TestParseLog:
    def test_single_tsv_record(self):
        events = parse_log(b"u1\ti9\t100\n")
        assert events == [RawEvent("u1", "i9", 100)]

    def test_empty_stream(self):
        assert parse_log(b"") == []

    def test_csv_error_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_log(b"u1,i9,100\nu1,i9,abc\n", format="csv")

    def test_too_few_fields(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_log(b"u1\ti9\n")

    def test_negative_timestamp(self):
        with pytest.raises(ParseError, match="negative"):
            parse_log(b"u1\ti9\t-5\n")

    def test_empty_key(self):
        with pytest.raises(ParseError, match="empty"):
            parse_log(b"\ti9\t100\n")

    def test_extra_fields_ignored(self):
        events = parse_log(b"u1\ti9\t100\textra\tstuff\n")
        assert events == [RawEvent("u1", "i9", 100)]

    def test_skip_header(self):
        events = parse_log(b"user\titem\tts\nu1\ti9\t100\n", skip_header=True)
        assert events == [RawEvent("u1", "i9", 100)]

    def test_blank_lines_skipped(self):
        events = parse_log(b"u1\ti9\t100\n\nu2\ti3\t200\n")
        assert len(events) == 2

    def test_path_source(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text("u1\ti9\t100\n")
        assert parse_log(str(p)) == [RawEvent("u1", "i9", 100)]

    def test_pathlike_source(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text("u1\ti9\t100\nu2\ti9\t101\n")
        assert parse_log(p) == parse_log(str(p)) == [
            RawEvent("u1", "i9", 100), RawEvent("u2", "i9", 101)
        ]

    def test_text_stream_source(self):
        assert parse_log(io.StringIO("u1\ti9\t100\n")) == [RawEvent("u1", "i9", 100)]

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            parse_log(b"", format="psv")


class TestBuildLog:
    def test_duplicate_keeps_latest(self):
        log = build_log([RawEvent("a", "x", 5), RawEvent("a", "x", 9)])
        assert log.pairs() == [(0, 0, 9)]

    def test_sorted_by_timestamp(self):
        log = build_log([RawEvent("a", "x", 5), RawEvent("b", "y", 3)])
        assert log.user_vocab == {"a": 0, "b": 1}
        assert log.pairs() == [(1, 1, 3), (0, 0, 5)]

    def test_single_event(self):
        log = build_log([RawEvent("a", "x", 5)])
        assert (log.num_users, log.num_items) == (1, 1)
        assert len(log) == 1

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty"):
            build_log([])

    def test_duplicate_out_of_order_keeps_latest(self):
        log = build_log([RawEvent("a", "x", 9), RawEvent("a", "x", 5)])
        assert log.pairs() == [(0, 0, 9)]

    def test_tie_sort_by_user_then_item(self):
        log = build_log(
            [RawEvent("b", "y", 7), RawEvent("a", "z", 7), RawEvent("a", "w", 7)]
        )
        # first-seen vocab: b->0, a->1; y->0, z->1, w->2
        # all at t=7: ordered by (user_index, item_index)
        assert log.pairs() == [(0, 0, 7), (1, 1, 7), (1, 2, 7)]


class TestTimestampSplit:
    def test_quantile_example(self, line_log):
        split = timestamp_split(line_log, 0.8, 0.5)
        assert split.cutting_timestamp == 9
        assert sorted(split.train.times.tolist()) == list(range(1, 9))
        assert split.validation.times.tolist() == [9]
        assert split.test.times.tolist() == [10]

    def test_single_timestamp_error(self):
        log = make_log([("a", "x", 5), ("b", "y", 5), ("c", "z", 5)])
        with pytest.raises(ValueError, match="cutting"):
            timestamp_split(log)

    def test_cold_user_dropped(self):
        rows = [("a", f"x{j}", j) for j in range(8)]
        rows += [("cold", "y", 100), ("a", "z", 101)]
        split = timestamp_split(make_log(rows), 0.8, 0.0)
        assert split.dropped_cold_user == 1
        held_users = set(split.validation.users.tolist()) | set(split.test.users.tolist())
        assert held_users <= set(split.train.users.tolist())

    def test_cold_item_kept_by_default(self):
        rows = [("a", f"x{j}", j) for j in range(8)]
        rows += [("a", "new_item", 100), ("a", "x0b", 101)]
        split = timestamp_split(make_log(rows), 0.8, 0.0)
        assert split.dropped_cold_item == 0
        assert len(split.test) == 2

    def test_cold_item_dropped_with_flag(self):
        rows = [("a", f"x{j}", j) for j in range(8)]
        rows += [("a", "new_item", 100), ("a", "x0", 101)]
        # (a, x0) at t=101 collapses into the earlier (a, x0): latest wins,
        # moving that pair into the holdout; new_item stays cold
        split = timestamp_split(make_log(rows), 0.8, 0.0, drop_cold_items=True)
        assert split.dropped_cold_item == 1

    def test_validation_fraction_zero(self, line_log):
        split = timestamp_split(line_log, 0.8, 0.0)
        assert len(split.validation) == 0
        assert len(split.test) == 2

    def test_partition_and_chronology_properties(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            n_users = int(rng.integers(2, 10))
            n_items = int(rng.integers(2, 12))
            n_rows = int(rng.integers(10, 60))
            rows = [
                (
                    f"u{rng.integers(n_users)}",
                    f"i{rng.integers(n_items)}",
                    int(rng.integers(0, 50)),
                )
                for _ in range(n_rows)
            ]
            log = build_log(rows_to_events(rows))
            try:
                split = timestamp_split(log, 0.8, 0.5)
            except ValueError:
                continue  # degenerate timestamp pile-up
            total = len(split.train) + len(split.validation) + len(split.test)
            assert total + split.dropped_cold_user == len(log)
            assert split.train.times.max() < split.cutting_timestamp
            holdout_times = np.r_[split.validation.times, split.test.times]
            if holdout_times.size:  # cold-user drops can empty the holdout
                assert split.train.times.max() < holdout_times.min()
                assert holdout_times.min() >= split.cutting_timestamp

    def test_no_pair_in_two_splits(self, line_log):
        split = timestamp_split(line_log, 0.8, 0.5)
        seen = set()
        for part in (split.train, split.validation, split.test):
            for u, i in zip(part.users.tolist(), part.items.tolist()):
                assert (u, i) not in seen
                seen.add((u, i))

    def test_determinism(self, line_log):
        a = timestamp_split(line_log, 0.8, 0.5)
        b = timestamp_split(line_log, 0.8, 0.5)
        assert np.array_equal(a.train.users, b.train.users)
        assert np.array_equal(a.test.times, b.test.times)
        assert a.cutting_timestamp == b.cutting_timestamp

    def test_bad_fractions(self, line_log):
        with pytest.raises(ValueError):
            timestamp_split(line_log, 0.0)
        with pytest.raises(ValueError):
            timestamp_split(line_log, 1.0)
        with pytest.raises(ValueError):
            timestamp_split(line_log, 0.8, 1.5)


def rows_to_events(rows):
    return [RawEvent(u, i, t) for u, i, t in rows]


class TestManifest:
    def test_manifest_records(self, line_log):
        split = timestamp_split(line_log, 0.8, 0.5)
        buf = io.StringIO()
        write_split_manifest(split, buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(lines) == len(split.train) + len(split.validation) + len(split.test)
        assert set(lines[0]) == {"split", "user_index", "item_index", "timestamp"}
        assert [r["split"] for r in lines].count("validation") == 1
        train_rows = [r for r in lines if r["split"] == "train"]
        assert all(r["timestamp"] < split.cutting_timestamp for r in train_rows)
