"""The shared framed/checksummed record codec and the torn-tail rule."""

from __future__ import annotations

import os
import struct

import pytest

from repro.durability.wal import (
    MAGIC,
    EngineWal,
    LogFile,
    decision_row,
    frame_record,
    scan_frames,
)
from repro.durability.snapshot import load_latest_snapshot, write_snapshot
from repro.errors import RecoveryError


class TestScanFrames:
    def test_roundtrip(self):
        payloads = [b"alpha", b"", b"x" * 1000]
        buf = MAGIC + b"".join(frame_record(p) for p in payloads)
        got, offsets, valid_end, clean = scan_frames(buf)
        assert got == payloads
        assert clean
        assert valid_end == len(buf)
        assert offsets[0] == len(MAGIC)
        assert sorted(offsets) == offsets

    def test_bad_magic(self):
        with pytest.raises(RecoveryError, match="magic"):
            scan_frames(b"NOTAWAL!" + frame_record(b"x"))

    def test_torn_header(self):
        buf = MAGIC + frame_record(b"ok") + b"\x05\x00"
        payloads, _, valid_end, clean = scan_frames(buf)
        assert payloads == [b"ok"]
        assert not clean
        assert valid_end == len(MAGIC) + len(frame_record(b"ok"))

    def test_torn_payload(self):
        whole = frame_record(b"0123456789")
        buf = MAGIC + frame_record(b"ok") + whole[:-3]
        payloads, _, _, clean = scan_frames(buf)
        assert payloads == [b"ok"]
        assert not clean

    def test_corrupt_checksum(self):
        frame = bytearray(frame_record(b"payload"))
        frame[-1] ^= 0xFF
        payloads, _, _, clean = scan_frames(MAGIC + bytes(frame))
        assert payloads == []
        assert not clean

    def test_corruption_mid_log_drops_suffix(self):
        good = frame_record(b"a")
        bad = bytearray(frame_record(b"b"))
        bad[struct.calcsize("<II")] ^= 0x01  # flip a payload byte
        tail = frame_record(b"c")
        payloads, _, _, clean = scan_frames(
            MAGIC + good + bytes(bad) + tail
        )
        # Everything from the first bad byte on is gone, even intact
        # frames after it: the log is a prefix, not a sieve.
        assert payloads == [b"a"]
        assert not clean


class TestLogFile:
    def test_append_reopen_replay(self, tmp_path):
        path = str(tmp_path / "log.wal")
        log = LogFile(path)
        offsets = [log.append(p) for p in (b"one", b"two", b"three")]
        log.sync()
        log.close()
        reopened = LogFile(path)
        assert reopened.payloads == [b"one", b"two", b"three"]
        assert reopened.offsets == offsets
        assert not reopened.truncated

    def test_tell_survives_close(self, tmp_path):
        """Regression: the serve CLI reads ``health()`` (which calls
        ``log.tell()``) for its shutdown line *after* the WAL is closed;
        a closed log must report its final durable offset, not raise."""
        log = LogFile(str(tmp_path / "log.wal"))
        log.append(b"one")
        end = log.tell()
        log.close()
        assert log.closed
        assert log.tell() == end

    def test_reopen_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "log.wal")
        log = LogFile(path)
        log.append(b"keep")
        log.sync()
        end = log.tell()
        log.close()
        with open(path, "ab") as fh:
            fh.write(frame_record(b"lost")[:-2])
        reopened = LogFile(path)
        assert reopened.truncated
        assert reopened.payloads == [b"keep"]
        assert os.path.getsize(path) == end
        # The reopened log appends cleanly after the truncation point.
        reopened.append(b"next")
        reopened.sync()
        reopened.close()
        final = LogFile(path)
        assert final.payloads == [b"keep", b"next"]
        assert not final.truncated


def perform(tick: int, txn: str) -> dict:
    """A whole ``perform`` record, fields in the on-disk order."""
    return {"t": "perform", "tick": tick, "txn": txn, "attempt": 0,
            "step": 0, "entity": "x", "kind": "write", "before": 0,
            "after": 1}


def commit(tick: int, txn: str) -> dict:
    return {"t": "commit", "tick": tick, "txn": txn, "attempt": 0,
            "result": None}


class TestDecisionRow:
    """A row is equal to another exactly when their records are equal as
    dicts: fields are read by name, and a record whose key set is not
    its type's is refused rather than compared."""

    def test_fields_are_read_by_name(self):
        record = perform(3, "a")
        reordered = dict(reversed(list(record.items())))
        assert decision_row(reordered) == decision_row(record)
        assert decision_row(record) == (
            "perform", 3, "a", 0, 0, "x", "write", 0, 1
        )

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda r: r.pop("tick"), id="missing"),
        pytest.param(lambda r: r.update(latency=1), id="unknown"),
    ])
    def test_a_record_off_its_key_set_is_refused(self, edit):
        record = perform(3, "a")
        edit(record)
        with pytest.raises(RecoveryError, match="'perform' decision logs"):
            decision_row(record)

    def test_rows_held_together_share_their_strings(self):
        strings: dict = {}
        first = decision_row(perform(1, "".join(["t", "17"])), strings)
        second = decision_row(commit(2, "".join(["t", "17"])), strings)
        assert first[2] == second[2] == "t17"
        assert first[2] is second[2]


class TestEngineWalVerify:
    def test_verify_matches_then_flips_to_append(self, tmp_path):
        wal = EngineWal(str(tmp_path))
        wal.append(perform(1, "a"))
        wal.append(commit(2, "a"))
        wal.sync()
        wal.begin_verify(
            [decision_row(perform(1, "a")), decision_row(commit(2, "a"))]
        )
        assert wal.verifying
        wal.append(perform(1, "a"))
        assert wal.verifying
        wal.append(commit(2, "a"))
        assert not wal.verifying  # drained: round-up to append mode
        wal.finish_verify()
        assert wal.verified == 2

    def test_verify_mismatch_raises(self, tmp_path):
        wal = EngineWal(str(tmp_path))
        wal.begin_verify([decision_row(perform(1, "a"))])
        with pytest.raises(RecoveryError, match="diverged"):
            wal.append(perform(1, "b"))

    def test_verify_leftover_raises(self, tmp_path):
        wal = EngineWal(str(tmp_path))
        wal.begin_verify([decision_row(perform(1, "a"))])
        with pytest.raises(RecoveryError, match="unconsumed"):
            wal.finish_verify()

    def test_verify_extra_decision_raises(self, tmp_path):
        wal = EngineWal(str(tmp_path))
        wal.begin_verify([decision_row(perform(1, "a"))])
        wal._pending.clear()
        wal.verifying = True
        with pytest.raises(RecoveryError, match="extra"):
            wal.append(commit(9, "z"))

    def test_log_genesis_is_once_only(self, tmp_path):
        wal = EngineWal(str(tmp_path))
        wal.log_genesis(seed=1, note="first")
        wal.log_genesis(seed=2, note="second")
        wal.close()
        reopened = EngineWal(str(tmp_path))
        records = list(reopened.log.records())
        assert len(records) == 1
        assert records[0]["seed"] == 1


class TestSnapshots:
    def test_latest_intact_snapshot_wins(self, tmp_path):
        d = str(tmp_path)
        write_snapshot(d, tick=10, wal_offset=100, state={"n": 10})
        write_snapshot(d, tick=20, wal_offset=200, state={"n": 20})
        snap = load_latest_snapshot(d)
        assert snap["tick"] == 20
        assert snap["state"] == {"n": 20}

    def test_snapshot_beyond_durable_log_is_skipped(self, tmp_path):
        d = str(tmp_path)
        write_snapshot(d, tick=10, wal_offset=100, state={"n": 10})
        write_snapshot(d, tick=20, wal_offset=200, state={"n": 20})
        snap = load_latest_snapshot(d, max_wal_offset=150)
        assert snap["tick"] == 10

    def test_corrupt_snapshot_falls_back(self, tmp_path):
        d = str(tmp_path)
        write_snapshot(d, tick=10, wal_offset=100, state={"n": 10})
        write_snapshot(d, tick=20, wal_offset=200, state={"n": 20})
        latest = sorted(
            name for name in os.listdir(d) if name.startswith("snap-")
        )[-1]
        path = os.path.join(d, latest)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        snap = load_latest_snapshot(d)
        assert snap["tick"] == 10

    def test_retention_keeps_last_three(self, tmp_path):
        d = str(tmp_path)
        for tick in (1, 2, 3, 4, 5):
            write_snapshot(d, tick=tick, wal_offset=tick, state={})
        names = sorted(
            name for name in os.listdir(d) if name.startswith("snap-")
        )
        assert len(names) == 3
        assert load_latest_snapshot(d)["tick"] == 5
