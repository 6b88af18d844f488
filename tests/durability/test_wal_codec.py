"""The shared framed/checksummed record codec and the torn-tail rule."""

from __future__ import annotations

import os
import struct

import pytest

from repro.api import ProgramSpec
from repro.durability import recover
from repro.durability.wal import (
    LOG_NAME,
    MAGIC,
    EngineWal,
    LogFile,
    decode_record,
    encode_record,
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


def _serve(directory: str, count: int = 4) -> None:
    """``count`` programs on one entity, each submitted once the one
    before it has committed: each pump slice's check frame follows the
    ``add`` frame of the one program it ran."""
    import asyncio

    from repro.api import ProgramSpec, Submission
    from repro.service import ServiceConfig, TransactionService

    async def go():
        service = TransactionService(
            ServiceConfig(nest_depth=0, wal_dir=directory)
        )
        for i in range(count):
            await service.submit(Submission(program=ProgramSpec(
                f"p{i}", (("add", "x", i + 1), ("read", "x")),
            )))
            await service.drain()
        service.wal.close()

    asyncio.run(go())


def _frames(directory: str) -> list[dict]:
    log = LogFile(os.path.join(directory, LOG_NAME))
    records = [decode_record(payload) for payload in log.payloads]
    log.close()
    return records


def _rewrite(directory: str, records: list[dict]) -> None:
    with open(os.path.join(directory, LOG_NAME), "wb") as fh:
        fh.write(MAGIC + b"".join(
            frame_record(encode_record(record)) for record in records
        ))


class TestEngineWalVerify:
    """Recovery verifies a replay against the log's check frames: at
    each one's tick, the digest of the decisions re-derived since the
    previous one and the commit count must be the logged ones."""

    def test_verify_matches_then_flips_to_append(self, tmp_path):
        """The log holds inputs and one check frame per pump slice;
        replay matches them all, and the recovered engine's own check
        frames extend the same log."""
        d = str(tmp_path)
        _serve(d)
        kinds = [record["t"] for record in _frames(d)]
        assert kinds == ["genesis"] + ["add", "check"] * 4
        report = recover(d)
        assert report.replayed == 4
        assert report.engine.commit_order == ["p0", "p1", "p2", "p3"]
        engine = report.engine
        engine.add_program(ProgramSpec("p4", (("read", "x"),)).compile())
        report.wal.append({"t": "add", "name": "p4",
                           "arrival": engine.txns["p4"].arrival_tick,
                           "spec": ProgramSpec("p4", (("read", "x"),))
                           .to_dict(), "entities": []})
        engine.advance()
        report.wal.sync()
        report.wal.close()
        again = recover(d)
        assert again.replayed == 5
        assert again.engine.commit_order == ["p0", "p1", "p2", "p3", "p4"]
        again.wal.close()

    def test_verify_mismatch_raises(self, tmp_path):
        """One tampered ``add`` spec: replay re-derives other decisions
        in that program's slice, and the error names the tick of the
        check frame that ends it."""
        d = str(tmp_path)
        _serve(d)
        records = _frames(d)
        index = next(
            i for i, record in enumerate(records)
            if record["t"] == "add" and record["name"] == "p2"
        )
        records[index]["spec"]["ops"][0][2] = 7
        tick = records[index + 1]["tick"]
        _rewrite(d, records)
        with pytest.raises(
            RecoveryError,
            match=f"diverged from the write-ahead log at the check frame "
                  f"of tick {tick}:",
        ):
            recover(d)

    def test_verify_leftover_raises(self, tmp_path):
        """A check frame past the end of the run: replay makes no
        decision before its tick."""
        d = str(tmp_path)
        _serve(d)
        records = _frames(d)
        last = dict(records[-1], tick=records[-1]["tick"] + 10)
        _rewrite(d, records + [last])
        with pytest.raises(RecoveryError, match="replayed None"):
            recover(d)

    def test_verify_extra_decision_raises(self, tmp_path):
        """Replay commits more than the check frame counted."""
        d = str(tmp_path)
        _serve(d)
        records = _frames(d)
        records[-1]["commits"] -= 1
        _rewrite(d, records)
        with pytest.raises(RecoveryError, match=r"logged \(\d+, 3, '[0-9a-f]+'\), replayed \(\d+, 4, "):
            recover(d)

    def test_digest_reads_fields_by_name(self, tmp_path):
        """A decision's fields enter the digest by name, in the order
        :data:`WAL_RECORDS` gives, and the fields it does not name stay
        out."""
        fields = {"txn": "a", "attempt": 0, "result": 3}
        checks = []
        for extra in ({}, {"latency": 9, "waits": 2}):
            wal = EngineWal(str(tmp_path / str(len(checks))))
            wal.on_decision(
                "txn.commit", 4, dict(reversed([*fields.items(),
                                                *extra.items()])),
            )
            checks.append(wal.check())
            assert wal.check() is None  # a fresh digest
            wal.close()
        assert checks[0] == checks[1]
        assert checks[0][:2] == (4, 1)

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
