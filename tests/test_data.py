"""Ingestion and split tests: parsing contracts, quantile-cut arithmetic,
cold-user handling, and the split partition invariants."""

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from driftrec import data
from driftrec.data import (
    InteractionLog,
    ParseError,
    RawEvent,
    RawEvents,
    build_log,
    parse_log,
    timestamp_split,
    write_split_manifest,
)
from driftrec.data import _cutting_timestamp
from conftest import log_triples, make_log
from ingest_oracle import reference_build_log, reference_parse_log


class TestParseLog:
    def test_single_tsv_record(self):
        events = list(parse_log(b"u1\ti9\t100\n"))
        assert events == [RawEvent("u1", "i9", 100)]

    def test_empty_stream(self):
        assert list(parse_log(b"")) == []

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
        events = list(parse_log(b"u1\ti9\t100\textra\tstuff\n"))
        assert events == [RawEvent("u1", "i9", 100)]

    def test_skip_header(self):
        events = list(parse_log(b"user\titem\tts\nu1\ti9\t100\n", skip_header=True))
        assert events == [RawEvent("u1", "i9", 100)]

    def test_blank_lines_skipped(self):
        events = parse_log(b"u1\ti9\t100\n\nu2\ti3\t200\n")
        assert len(events) == 2

    def test_path_source(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text("u1\ti9\t100\n")
        assert list(parse_log(str(p))) == [RawEvent("u1", "i9", 100)]

    def test_pathlike_source(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text("u1\ti9\t100\nu2\ti9\t101\n")
        assert list(parse_log(p)) == list(parse_log(str(p))) == [
            RawEvent("u1", "i9", 100), RawEvent("u2", "i9", 101)
        ]

    def test_text_stream_source(self):
        assert list(parse_log(io.StringIO("u1\ti9\t100\n"))) == [RawEvent("u1", "i9", 100)]

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            parse_log(b"", format="psv")

    def test_timestamp_out_of_range(self):
        with pytest.raises(ParseError, match="line 2: timestamp out of range"):
            parse_log(b"u1\ti1\t5\nu2\ti1\t9223372036854775808\n")
        assert len(parse_log(b"u1\ti1\t9223372036854775807\n")) == 1


class TestRawEvents:
    def test_len_iteration_and_indexing(self):
        events = parse_log(b"a\tx\t5\n\nb\ty\t3\nc\tz\t1\n")
        expected = [RawEvent("a", "x", 5), RawEvent("b", "y", 3), RawEvent("c", "z", 1)]
        assert len(events) == 3
        assert list(events) == expected
        assert [events[j] for j in range(3)] == expected
        assert events[-1] == expected[-1]
        assert type(events[0].timestamp) is int
        assert list(events[1:]) == expected[1:]
        assert isinstance(events[1:], RawEvents)
        with pytest.raises(IndexError):
            events[3]

    def test_columns_and_read_only(self):
        events = parse_log(b" a \tx\t 5\n")
        assert events.user_keys == ["a"] and events.item_keys == ["x"]
        assert events.timestamps.dtype == np.int64
        assert events.timestamps.tolist() == [5]
        with pytest.raises(ValueError):
            events.timestamps[0] = 7
        with pytest.raises(TypeError):
            events[0] = RawEvent("b", "y", 1)


def _render_log(rng, delimiter, n_records, skip_header):
    """Random log text with duplicates, padding, quoting, blanks, extras and CRLF."""
    lines = ["user" + delimiter + "item" + delimiter + "ts"] if skip_header else []
    n_users, n_items = int(rng.integers(1, 8)), int(rng.integers(1, 10))
    for _ in range(n_records):
        roll = rng.random()
        if roll < 0.08:
            lines.append("")
            continue
        if roll < 0.12:
            lines.append(" " * int(rng.integers(1, 4)))
            continue
        user = f"u{rng.integers(n_users)}"
        item = f"i{rng.integers(n_items)}"
        fields = []
        for key in (user, item):
            style = rng.integers(4)
            if style == 1:
                key = "  " + key + " "
            elif style == 2:  # quoted, carrying the delimiter
                key = '"' + key + delimiter + 'q"'
            fields.append(key)
        t = int(rng.integers(0, 3000))
        style = rng.integers(6)
        fields.append(  # \x1c is whitespace to str.strip but not to int()
            [str(t), f"  {t} ", f"+{t}", f"{t:_}", f"0{t}", f"\x1c{t}\x0b"][style]
        )
        fields += ["extra", '"x' + delimiter + 'y"'][: int(rng.integers(0, 3))]
        lines.append(delimiter.join(fields))
    ends = ["\n", "\r\n"]
    return "".join(line + ends[int(rng.integers(2))] for line in lines)


MALFORMED = {
    "short": lambda d: "u0" + d + "i0",
    "empty_key": lambda d: "  " + d + "i0" + d + "5",
    "bad_timestamp": lambda d: "u0" + d + "i0" + d + "1.5",
    "negative": lambda d: "u0" + d + "i0" + d + " -3",
    "too_large": lambda d: "u0" + d + "i0" + d + str(2**63),
}


def _sources(text, tmp_path):
    """Each accepted source type, freshly opened, holding ``text``."""
    path = tmp_path / "log.txt"
    path.write_bytes(text.encode("utf-8"))
    return {
        "bytes": lambda: text.encode("utf-8"),
        "path": lambda: str(path),
        "pathlike": lambda: path,
        "binary_stream": lambda: io.BytesIO(text.encode("utf-8")),
        "text_stream": lambda: io.StringIO(text, newline=""),
    }


def _assert_same_log(got, want):
    assert np.array_equal(got.users, want.users)
    assert np.array_equal(got.items, want.items)
    assert np.array_equal(got.times, want.times)
    assert list(got.user_vocab.items()) == list(want.user_vocab.items())
    assert list(got.item_vocab.items()) == list(want.item_vocab.items())


class TestIngestEquivalence:
    """Columnar ingestion against the per-record reference in ingest_oracle."""

    def test_reader_error_waits_for_earlier_records(self):
        long_key = b"u" * 20
        old_limit = csv.field_size_limit(10)
        try:
            text = b"u1\ti1\tabc\nu2\ti2\t5\n" + long_key + b"\ti3\t6\n"
            with pytest.raises(ParseError, match="line 1: non-integer"):
                reference_parse_log(text)
            with pytest.raises(ParseError, match="line 1: non-integer"):
                parse_log(text)
            text = b"u1\ti1\t5\n" + long_key + b"\ti3\t6\n"
            with pytest.raises(csv.Error, match="field limit"):
                reference_parse_log(text)
            with pytest.raises(csv.Error, match="field limit"):
                parse_log(text)
        finally:
            csv.field_size_limit(old_limit)

    @pytest.mark.parametrize("fmt", ["tsv", "csv"])
    def test_random_logs_match_reference(self, fmt, tmp_path):
        rng = np.random.default_rng(20 if fmt == "tsv" else 21)
        delimiter = "\t" if fmt == "tsv" else ","
        for trial in range(30):
            skip_header = bool(rng.integers(2))
            text = _render_log(rng, delimiter, int(rng.integers(0, 120)), skip_header)
            for name, source in _sources(text, tmp_path).items():
                want = reference_parse_log(source(), format=fmt, skip_header=skip_header)
                got = parse_log(source(), format=fmt, skip_header=skip_header)
                assert list(got) == want, (trial, name)
            if not want:
                with pytest.raises(ValueError, match="empty"):
                    build_log(got)
                continue
            reference = reference_build_log(want)
            _assert_same_log(build_log(got), reference)
            _assert_same_log(build_log(want), reference)  # any iterable of RawEvent

    def test_duplicates_keep_latest_timestamp(self):
        rng = np.random.default_rng(22)
        events = [
            RawEvent(f"u{rng.integers(40)}", f"i{rng.integers(60)}", int(rng.integers(0, 50)))
            for _ in range(20_000)
        ]
        _assert_same_log(build_log(events), reference_build_log(events))

    @pytest.mark.parametrize("fmt", ["tsv", "csv"])
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_malformed_messages_match_reference(self, fmt, kind, tmp_path):
        rng = np.random.default_rng(sorted(MALFORMED).index(kind) + (10 if fmt == "csv" else 0))
        delimiter = "\t" if fmt == "tsv" else ","
        for trial in range(10):
            skip_header = bool(rng.integers(2))
            text = _render_log(rng, delimiter, int(rng.integers(0, 40)), skip_header)
            lines = [line + "\n" for line in text.split("\n")[:-1]]
            at = int(rng.integers(int(skip_header), len(lines) + 1))
            lines.insert(at, MALFORMED[kind](delimiter) + "\n")
            if rng.integers(2):  # a later record of another kind is not the one named
                other = sorted(MALFORMED)[int(rng.integers(len(MALFORMED)))]
                lines.insert(int(rng.integers(at + 1, len(lines) + 1)),
                             MALFORMED[other](delimiter) + "\n")
            text = "".join(lines)
            for name, source in _sources(text, tmp_path).items():
                with pytest.raises(ParseError) as want:
                    reference_parse_log(source(), format=fmt, skip_header=skip_header)
                with pytest.raises(ParseError) as got:
                    parse_log(source(), format=fmt, skip_header=skip_header)
                assert str(got.value) == str(want.value), (trial, name)


class TestIngestAcrossChunks(TestIngestEquivalence):
    """The equivalence checks with three records per timestamp chunk, so that
    most logs span many chunks, and malformed records placed around chunk edges."""

    @pytest.fixture(autouse=True)
    def three_record_chunks(self, monkeypatch):
        monkeypatch.setattr(data, "PARSE_CHUNK", 3)

    @pytest.mark.parametrize("lines, message", [
        # empty key in chunk 1, bad timestamp in chunk 3
        (["u1\ti1\t5", " \ti1\t6", "u2\ti2\t7", "u3\ti3\t8", "u1\ti2\t9", "u2\ti3\t10",
          "u1\ti1\tx"], "line 2: empty user or item key"),
        # bad timestamp as the last record of chunk 1, then more chunks
        (["u1\ti1\t5", "u2\ti2\t6", "u3\ti3\t-1", "u1\ti2\t7", "\ti1\t8", "u2\ti1\tz"],
         "line 3: negative timestamp -1"),
        # bad timestamp as the last record of chunk 2, blank lines shifting numbers
        (["u1\ti1\t5", "", "u2\ti2\t6", "u3\ti3\t7", "u1\ti2\t8", "   ", "u2\ti1\t9.5",
          "u1\ti1\t10"], "line 7: non-integer timestamp '9.5'"),
        # empty key in the chunk after a failed one is not the first bad record
        (["u1\ti1\t5", "u2\ti2\t6", "u3\ti3\t" + str(2**63), "u1\t\t7"],
         f"line 3: timestamp out of range {2**63}"),
        # short record after two converted chunks
        (["u1\ti1\t5", "u2\ti2\t6", "u3\ti3\t7", "u1\ti2\t8", "u2\ti1\t9", "u3\ti1\t10",
          "u1\ti3"], "line 7: expected >=3 fields, got 2"),
    ])
    def test_first_bad_record_around_chunk_edges(self, lines, message):
        text = "".join(line + "\n" for line in lines).encode()
        for parse in (reference_parse_log, parse_log):
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert str(exc.value) == message

    @pytest.mark.parametrize("first_chunk, message", [
        (["u1\ti1\t5", "u2\ti2\tx", "u3\ti3\t7"], "line 2: non-integer timestamp 'x'"),
        (["u1\ti1\t5", "u2\t \t6", "u3\ti3\t7"], "line 2: empty user or item key"),
    ])
    def test_nothing_after_the_failing_chunk_is_read(self, first_chunk, message):
        def lines():
            for line in first_chunk:
                yield line + "\n"
            raise AssertionError("read past the failing chunk")

        with pytest.raises(ParseError) as exc:
            parse_log(lines())
        assert str(exc.value) == message

    def test_reader_error_after_converted_chunk(self):
        old_limit = csv.field_size_limit(10)
        try:
            good = b"u1\ti1\t5\nu2\ti2\t6\nu3\ti3\t7\nu1\ti2\t8\n"
            text = good + b"u" * 20 + b"\ti3\t9\n"
            for parse in (reference_parse_log, parse_log):
                with pytest.raises(csv.Error, match="field limit"):
                    parse(text)
            text = b"u1\ti1\t5\nu2\ti2\t6\nu3\ti3\tx\n" + text
            for parse in (reference_parse_log, parse_log):
                with pytest.raises(ParseError, match="^line 3: non-integer timestamp 'x'$"):
                    parse(text)
        finally:
            csv.field_size_limit(old_limit)


class TestParseMemory:
    def test_bytes_per_record(self, tmp_path):
        rng = np.random.default_rng(23)
        n = 60_000
        users, items = rng.integers(600, size=n), rng.integers(1200, size=n)
        times = rng.integers(10**9, 10**9 + 10**7, size=n)
        path = tmp_path / "log.tsv"
        path.write_text("".join(f"user{u}\titem{i}\t{t}\n" for u, i, t in zip(
            users.tolist(), items.tolist(), times.tolist())))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            events = parse_log(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(events) == n
        assert np.array_equal(events.timestamps, times)
        # one list entry per key column, one int64, and the distinct keys
        assert (held - before) / n < 40
        # plus one chunk of raw fields and the timestamp chunks before they are joined
        assert (peak - before) / n < 80


class TestBuildLog:
    def test_duplicate_keeps_latest(self):
        log = build_log([RawEvent("a", "x", 5), RawEvent("a", "x", 9)])
        assert log_triples(log) == [(0, 0, 9)]

    def test_sorted_by_timestamp(self):
        log = build_log([RawEvent("a", "x", 5), RawEvent("b", "y", 3)])
        assert log.user_vocab == {"a": 0, "b": 1}
        assert log_triples(log) == [(1, 1, 3), (0, 0, 5)]

    def test_single_event(self):
        log = build_log([RawEvent("a", "x", 5)])
        assert (log.num_users, log.num_items) == (1, 1)
        assert len(log) == 1

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty"):
            build_log([])

    def test_duplicate_out_of_order_keeps_latest(self):
        log = build_log([RawEvent("a", "x", 9), RawEvent("a", "x", 5)])
        assert log_triples(log) == [(0, 0, 9)]

    def test_tie_sort_by_user_then_item(self):
        log = build_log(
            [RawEvent("b", "y", 7), RawEvent("a", "z", 7), RawEvent("a", "w", 7)]
        )
        # first-seen vocab: b->0, a->1; y->0, z->1, w->2
        # all at t=7: ordered by (user_index, item_index)
        assert log_triples(log) == [(0, 0, 7), (1, 1, 7), (1, 2, 7)]


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

    def test_pair_on_both_sides_of_cut_raises(self):
        # (user 1, item 2) at t=3 in train and again at t=9 in the holdout;
        # build_log would have kept only the later row
        log = InteractionLog(
            users=np.array([0, 1, 0, 2, 0, 1], dtype=np.int64),
            items=np.array([0, 2, 1, 0, 3, 2], dtype=np.int64),
            times=np.array([1, 3, 4, 5, 8, 9], dtype=np.int64),
            user_vocab={"a": 0, "b": 1, "c": 2},
            item_vocab={"w": 0, "x": 1, "y": 2, "z": 3},
        )
        with pytest.raises(ValueError, match=r"pair \(user 1, item 2\) is on both sides"):
            timestamp_split(log, 0.6, 0.5)
        # the same log without the repeated pair splits
        split = timestamp_split(log._replace_arrays(np.arange(len(log)) != 1), 0.6, 0.5)
        assert split.cutting_timestamp == 8

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


def reference_cutting_timestamp(times_sorted, train_fraction):
    """The cut by distinct timestamps: the first with >= need entries below it."""
    need = max(math.ceil(train_fraction * times_sorted.shape[0] - 1e-9), 1)
    uniques = np.unique(times_sorted)
    below = np.searchsorted(times_sorted, uniques, side="left")
    ok = np.nonzero(below >= need)[0]
    return None if ok.size == 0 else int(uniques[ok[0]])


class TestCuttingTimestamp:
    """The binary-search cut agrees with the distinct-timestamp reference."""

    def check(self, times, fraction):
        times = np.sort(np.asarray(times, dtype=np.int64))
        want = reference_cutting_timestamp(times, fraction)
        if want is None:
            with pytest.raises(ValueError, match="no valid cutting timestamp"):
                _cutting_timestamp(times, fraction)
        else:
            assert _cutting_timestamp(times, fraction) == want

    def test_random_columns(self):
        rng = np.random.default_rng(72)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            span = int(rng.choice([2, 5, 50, 10**9]))  # 2 and 5: heavy ties
            times = rng.integers(0, span, size=n)
            self.check(times, float(rng.uniform(0.01, 0.99)))

    def test_fraction_times_n_near_an_integer(self):
        rng = np.random.default_rng(73)
        for n in (3, 10, 49, 100, 1000):
            times = rng.integers(0, 6, size=n)
            for k in range(1, n):
                base = k / n
                for fraction in (base, base - 5e-10, base + 5e-10, base - 2e-9, base + 2e-9):
                    if 0.0 < fraction < 1.0:
                        self.check(times, fraction)

    def test_single_row_has_no_cut(self):
        for fraction in (0.01, 0.5, 0.99):
            self.check([7], fraction)

    def test_all_equal_timestamps_raise(self):
        for n in (2, 3, 40):
            for fraction in (0.1, 0.5, 0.9):
                self.check(np.full(n, 11), fraction)

    def test_ties_at_the_need_th_entry(self):
        # need = 4: the 4th entry is a 5, so the cut skips every 5
        assert _cutting_timestamp(np.array([1, 2, 5, 5, 5, 5, 8, 9]), 0.5) == 8


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
