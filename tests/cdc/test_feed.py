"""Change-feed contract: codec, sequencing, durability, backend parity."""

import json
import sys
import threading

import pytest

import repro.cdc.feed as feed_module
from repro.api import MemoryResultStore, ResolutionClient
from repro.cdc import (
    ChangeConsumer,
    ConstraintChanged,
    FeedError,
    JsonlChangeFeed,
    MemoryChangeFeed,
    SqliteChangeFeed,
    TupleAdded,
    TupleRetracted,
    decode_event,
    encode_event,
    feed_status,
    open_change_feed,
)
from repro.cdc.feed import FeedRecord, encode_envelope

from tests.cdc._helpers import cdc_run_config, make_feed

EVENTS = [
    TupleAdded(entity="e1", row={"a": 1, "b": "x", "c": None}),
    TupleRetracted(entity="e1", row={"a": 1, "b": "x", "c": None}),
    ConstraintChanged(constraints="# currency constraints\n"),
]


class TestCodec:
    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: e.kind)
    def test_round_trip(self, event):
        encoded = encode_event(event)
        assert decode_event(encoded) == event
        # Canonical: re-encoding the decoded event is byte-stable.
        assert encode_event(decode_event(encoded)) == encoded

    def test_canonical_is_key_order_independent(self):
        a = encode_event(TupleAdded(entity="e", row={"x": 1, "y": 2}))
        b = encode_event(TupleAdded(entity="e", row={"y": 2, "x": 1}))
        assert a == b

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            json.dumps(["a", "list"]),
            json.dumps({"kind": "no_such_kind"}),
            json.dumps({"kind": "tuple_added", "row": {"a": 1}}),
            json.dumps({"kind": "tuple_added", "entity": "", "row": {}}),
            json.dumps({"kind": "tuple_added", "entity": "e", "row": "nope"}),
            json.dumps({"kind": "tuple_added", "entity": "e", "row": {}, "junk": 1}),
            json.dumps({"kind": "constraint_changed", "constraints": 42}),
        ],
    )
    def test_malformed_events_are_rejected(self, text):
        with pytest.raises(FeedError):
            decode_event(text)

    def test_envelope_round_trips_through_jsonl(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as feed:
            for event in EVENTS:
                feed.append(event)
            records = list(feed.events())
        lines = path.read_text().splitlines()
        assert lines == [encode_envelope(record) for record in records]


def _open_backend(name, tmp_path):
    if name == "memory":
        return MemoryChangeFeed()
    if name == "jsonl":
        return JsonlChangeFeed(tmp_path / "feed.jsonl")
    return SqliteChangeFeed(tmp_path / "feed.db")


BACKENDS = ["memory", "jsonl", "sqlite"]


class TestBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sequences_start_at_one_and_increase(self, backend, tmp_path):
        with _open_backend(backend, tmp_path) as feed:
            assert len(feed) == 0 and feed.last_sequence() == 0
            sequences = [feed.append(event) for event in EVENTS]
            assert sequences == [1, 2, 3]
            assert feed.last_sequence() == 3 and len(feed) == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_events_after_position(self, backend, tmp_path):
        with _open_backend(backend, tmp_path) as feed:
            for event in EVENTS:
                feed.append(event)
            tail = list(feed.events(after=1))
            assert [record.seq for record in tail] == [2, 3]
            assert [record.event for record in tail] == EVENTS[1:]
            assert list(feed.events(after=3)) == []

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_durable_backends_persist_across_reopen(self, backend, tmp_path):
        with _open_backend(backend, tmp_path) as feed:
            for event in EVENTS:
                feed.append(event)
        with _open_backend(backend, tmp_path) as reopened:
            assert reopened.last_sequence() == 3
            assert [record.event for record in reopened.events()] == EVENTS
            # Appends continue the persisted sequence, never reuse it.
            assert reopened.append(EVENTS[0]) == 4

    def test_jsonl_rejects_corrupt_sequence(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as feed:
            feed.append(EVENTS[0])
            good = path.read_text()
        path.write_text(good + good)  # duplicate seq 1
        with pytest.raises(FeedError):
            with JsonlChangeFeed(path) as feed:
                list(feed.events())


class TestOpenChangeFeed:
    def test_dispatch(self, tmp_path):
        assert isinstance(open_change_feed(":memory:"), MemoryChangeFeed)
        jsonl = open_change_feed(tmp_path / "feed.jsonl")
        assert isinstance(jsonl, JsonlChangeFeed)
        jsonl.close()
        sqlite = open_change_feed(tmp_path / "feed.db")
        assert isinstance(sqlite, SqliteChangeFeed)
        sqlite.close()

    def test_feed_passthrough(self):
        feed = MemoryChangeFeed()
        assert open_change_feed(feed) is feed

    def test_jsonl_and_sqlite_store_identical_streams(self, tmp_path):
        with JsonlChangeFeed(tmp_path / "a.jsonl") as a, SqliteChangeFeed(
            tmp_path / "b.db"
        ) as b:
            for event in EVENTS:
                assert a.append(event) == b.append(event)
            assert [(r.seq, r.event) for r in a.events()] == [
                (r.seq, r.event) for r in b.events()
            ]


def _envelope_line(seq, event, ts=1.5):
    return encode_envelope(FeedRecord(seq=seq, ts=ts, event=event)) + "\n"


def _added(value):
    return TupleAdded(entity="e1", row={"a": value})


@pytest.fixture
def decodes(monkeypatch):
    """Count JSONL record decodes (the hook the repository benchmark counts)."""
    count = [0]
    original = feed_module._decode_envelope

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(feed_module, "_decode_envelope", counted)
    return count


def _decoded_by(decodes, call):
    before = decodes[0]
    result = call()
    return decodes[0] - before, result


class TestJsonlHandles:
    """Several handles on one JSONL file see each other's appends."""

    def test_last_sequence_sees_appends_through_another_handle(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as writer:
            writer.append(EVENTS[0])
            with JsonlChangeFeed(path) as reader:
                writer.append(EVENTS[1])
                writer.append(EVENTS[2])
                assert reader.last_sequence() == 3
                status = feed_status(reader, 1, now=0.0)
                assert (status["last_sequence"], status["behind"]) == (3, 2)
                assert [record.seq for record in reader.events()] == [1, 2, 3]

    def test_consumer_status_reads_lag_through_its_own_handle(
        self, tmp_path, cdc_nba_dataset, nba_events
    ):
        path = tmp_path / "feed.jsonl"
        with make_feed(path, nba_events[:4]) as producer:
            with ResolutionClient(cdc_run_config(MemoryResultStore())) as client:
                with ChangeConsumer(
                    str(path), client, cdc_nba_dataset.schema
                ) as consumer:
                    assert consumer.consume().applied == 4
                    producer.append(nba_events[4])
                    producer.append(nba_events[5])
                    status = consumer.status()
                    assert (status["last_sequence"], status["behind"]) == (6, 2)
                    assert consumer.consume().applied == 2
                    assert consumer.status()["behind"] == 0

    def test_append_through_second_handle_continues_the_chain(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as writer, JsonlChangeFeed(path) as other:
            writer.append(EVENTS[0])
            writer.append(EVENTS[1])
            writer.append(EVENTS[2])
            assert other.append(EVENTS[0]) == 4
            assert writer.append(EVENTS[1]) == 5
        with JsonlChangeFeed(path) as reopened:
            assert [record.seq for record in reopened.events()] == [1, 2, 3, 4, 5]

    def test_append_ends_an_unterminated_final_line(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text(_envelope_line(1, EVENTS[0]).rstrip("\n"))
        with JsonlChangeFeed(path) as feed:
            assert feed.last_sequence() == 1
            assert feed.append(EVENTS[1]) == 2
        assert path.read_text().endswith("\n")
        with JsonlChangeFeed(path) as reopened:
            assert [record.event for record in reopened.events()] == EVENTS[:2]

    def test_concurrent_appends_through_separate_handles(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        handles = [JsonlChangeFeed(path) for _ in range(4)]
        assigned = []

        def append_many(feed):
            for value in range(25):
                assigned.append(feed.append(_added(value)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=append_many, args=(feed,)) for feed in handles
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            for feed in handles:
                feed.close()
        assert sorted(assigned) == list(range(1, 101))
        with JsonlChangeFeed(path) as reopened:
            assert [record.seq for record in reopened.events()] == list(range(1, 101))


class TestJsonlIndex:
    """A poll decodes only the lines past its cursor, under every check."""

    def test_poll_decodes_only_new_records(self, tmp_path, decodes):
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as producer, JsonlChangeFeed(path) as reader:
            for value in range(20):
                producer.append(_added(value))
            # The first read indexes what the reader has not seen yet ...
            assert _decoded_by(decodes, lambda: list(reader.events(after=20))) == (20, [])
            # ... and a poll with nothing new decodes nothing.
            assert _decoded_by(decodes, lambda: list(reader.events(after=20))) == (0, [])
            for value in range(3):
                producer.append(_added(value))
            count, records = _decoded_by(decodes, lambda: list(reader.events(after=20)))
            assert count == 3 and [record.seq for record in records] == [21, 22, 23]
            # A lagging position is found through the index, not by a rescan.
            count, records = _decoded_by(decodes, lambda: list(reader.events(after=18)))
            assert count == 5 and records[0].seq == 19

    def test_producer_does_not_decode_its_own_appends(self, tmp_path, decodes):
        with JsonlChangeFeed(tmp_path / "feed.jsonl") as producer:
            count, _ = _decoded_by(
                decodes, lambda: [producer.append(_added(v)) for v in range(10)]
            )
            assert count == 0
            assert producer.last_sequence() == 10

    def test_feed_status_keeps_polls_incremental(self, tmp_path, decodes):
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as producer, JsonlChangeFeed(path) as reader:
            for value in range(10):
                producer.append(_added(value))
            list(reader.events())
            for value in range(4):
                producer.append(_added(value))
            assert feed_status(reader, 10, now=0.0)["behind"] == 4
            for value in range(2):
                producer.append(_added(value))
            count, records = _decoded_by(decodes, lambda: list(reader.events(after=10)))
            assert count == 6 and len(records) == 6

    def test_chunked_consume_and_cursor_resume_stay_incremental(
        self, tmp_path, cdc_nba_dataset, nba_events, decodes
    ):
        path, cursor = tmp_path / "feed.jsonl", str(tmp_path / "cursor.json")
        schema = cdc_nba_dataset.schema
        with make_feed(path, nba_events[:10]) as producer:
            with ResolutionClient(cdc_run_config(MemoryResultStore())) as client:
                with ChangeConsumer(str(path), client, schema, cursor=cursor) as consumer:
                    consumer.consume()
                    for event in nba_events[10:13]:
                        producer.append(event)
                    # Each step decodes the pending records, never the file.
                    for pending in (3, 2, 1):
                        count, report = _decoded_by(
                            decodes, lambda: consumer.consume(max_events=1)
                        )
                        assert (count, report.applied) == (pending, 1)
                with ChangeConsumer(str(path), client, schema, cursor=cursor) as resumed:
                    assert resumed.position == 13
                    for event in nba_events[13:16]:
                        producer.append(event)
                    count, report = _decoded_by(decodes, resumed.consume)
                    assert (count, report.applied) == (3, 3)

    REWRITES = {
        "same_length": [(1, 4), (2, 5), (3, 6)],
        "renumbered": [(4, 1), (5, 2), (6, 3), (7, 4)],
        "longer": [(s, 100 + s) for s in range(1, 6)],
        "truncated": [(1, 7)],
    }

    @pytest.mark.parametrize("rewrite", sorted(REWRITES))
    def test_file_rewritten_under_a_reader_is_rescanned(self, tmp_path, rewrite):
        path = tmp_path / "feed.jsonl"
        path.write_text("".join(_envelope_line(s, _added(s)) for s in (1, 2, 3)))
        # One reader per position, so each read meets the index unrepaired.
        readers = {after: JsonlChangeFeed(path) for after in (0, 1, 3)}
        lines = self.REWRITES[rewrite]
        path.write_text("".join(_envelope_line(s, _added(v)) for s, v in lines))
        expected = [(seq, _added(value)) for seq, value in lines]
        for after, reader in readers.items():
            with reader:
                got = [(r.seq, r.event) for r in reader.events(after=after)]
                assert got == [pair for pair in expected if pair[0] > after]
                assert reader.last_sequence() == lines[-1][0]

    def test_non_monotonic_line_past_the_indexed_end_is_rejected(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as feed:
            feed.append(EVENTS[0])
            feed.append(EVENTS[1])
            with path.open("a") as handle:
                handle.write(_envelope_line(2, EVENTS[2]))
            with pytest.raises(FeedError, match=r":3: sequence 2 is not monotonic"):
                list(feed.events(after=2))
            with pytest.raises(FeedError, match="not monotonic"):
                feed.last_sequence()

    @pytest.mark.parametrize(
        "content, message",
        [
            (_envelope_line(2**63, EVENTS[0]).encode(), ":1: sequence .* is out of range"),
            (b"\xff\xfe\n", ":1: envelope is not valid UTF-8"),
        ],
        ids=["seq-out-of-range", "not-utf8"],
    )
    def test_malformed_line_is_rejected_at_open(self, tmp_path, content, message):
        path = tmp_path / "feed.jsonl"
        path.write_bytes(content)
        with pytest.raises(FeedError, match=message):
            JsonlChangeFeed(path)

    def test_torn_tail_is_read_in_full_once_its_newline_lands(
        self, tmp_path, decodes
    ):
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as feed:
            feed.append(EVENTS[0])
            line = _envelope_line(2, EVENTS[1])
            with path.open("a") as handle:
                handle.write(line[:20])
            with pytest.raises(FeedError, match=":2: envelope is not valid JSON"):
                list(feed.events(after=1))
            with path.open("a") as handle:
                handle.write(line[20:-1])
            # Complete but unterminated: read, yet not indexed — read again.
            for _ in range(2):
                count, records = _decoded_by(decodes, lambda: list(feed.events(after=1)))
                assert count == 1 and [r.event for r in records] == [EVENTS[1]]
            with path.open("a") as handle:
                handle.write("\n")
            assert _decoded_by(decodes, lambda: list(feed.events(after=1)))[0] == 1
            assert _decoded_by(decodes, lambda: list(feed.events(after=2))) == (0, [])
            assert feed.append(EVENTS[2]) == 3
        with JsonlChangeFeed(path) as reopened:
            assert [r.event for r in reopened.events()] == EVENTS
