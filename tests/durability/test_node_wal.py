"""Distributed node WALs on the shared framed codec: replay, torn-tail
truncation, and state equivalence with the live node."""

from __future__ import annotations

import os

from repro.distributed import DistributedRuntime, Network
from repro.distributed.faults import CrashEvent, FaultPlan
from repro.distributed.node import DataNode
from repro.durability.wal import LogFile, frame_record
from repro.engine import TwoPhaseLockingScheduler
from repro.workloads import BankingConfig, BankingWorkload


def _run_cluster(wal_dir: str):
    bank = BankingWorkload(BankingConfig(families=3, transfers=4, seed=7))
    plan = FaultPlan(crashes=(CrashEvent("node1", at=8.0, duration=6.0),))
    runtime = DistributedRuntime(
        bank.programs, bank.accounts, TwoPhaseLockingScheduler(),
        nodes=3, seed=2, faults=plan, wal_dir=wal_dir,
    )
    result = runtime.run()
    assert result.commits == len(bank.programs)
    return bank, runtime


def _replayed(bank, path: str, name: str = "replayed") -> DataNode:
    return DataNode(
        name, Network(seed=0), "sequencer", {}, {}, {},
        wal_path=path, catalog={p.name: p for p in bank.programs},
    )


class TestNodeWalReplay:
    def test_replay_rebuilds_durable_state(self, tmp_path):
        d = str(tmp_path)
        bank, runtime = _run_cluster(d)
        for live in runtime.nodes:
            path = os.path.join(d, f"{live.name}.wal")
            assert os.path.exists(path)
            node = _replayed(bank, path)
            assert node._psn == live._psn
            assert set(node._performed_unacked) == set(
                live._performed_unacked
            )
            assert node._undo_applied == live._undo_applied

    def test_replayed_transactions_are_reconstructed(self, tmp_path):
        """The in-flight tail carries real transaction objects: a fresh
        program fast-forwarded through the logged results, with the
        scalar step state the retransmit payload needs."""
        d = str(tmp_path)
        bank, runtime = _run_cluster(d)
        # Find any node with logged performed records.
        for live in runtime.nodes:
            node = _replayed(bank, os.path.join(d, f"{live.name}.wal"))
            records = list(node._wal.records())
            performed = [r for r in records if r["t"] == "performed"]
            if not performed:
                continue
            for uid, payload in node._performed_unacked.items():
                txn = payload["txn"]
                assert txn.name == payload["name"]
                assert txn.steps_taken == payload["steps"]
                assert txn.finished == payload["finished"]
            return
        raise AssertionError("no node logged a performed record")

    def test_corrupt_tail_is_truncated(self, tmp_path):
        d = str(tmp_path)
        bank, runtime = _run_cluster(d)
        live = runtime.nodes[1]
        path = os.path.join(d, "node1.wal")
        intact = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(frame_record(b"half a record")[:-4])
        node = _replayed(bank, path)
        assert node._wal.truncated
        assert os.path.getsize(path) == intact
        # The intact prefix replayed exactly as before the corruption.
        assert node._psn == live._psn
        assert set(node._performed_unacked) == set(live._performed_unacked)
        assert node._undo_applied == live._undo_applied

    def test_corrupt_tail_flipped_byte(self, tmp_path):
        """A bit flip inside the last record (not just a short write)
        fails the checksum and truncates exactly that record."""
        d = str(tmp_path)
        bank, _ = _run_cluster(d)
        path = os.path.join(d, "node1.wal")
        log = LogFile(path)
        n_records = len(log.payloads)
        last = log.offsets[-1]
        log.close()
        blob = bytearray(open(path, "rb").read())
        blob[last + 9] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        node = _replayed(bank, path)
        assert node._wal.truncated
        assert len(node._wal.payloads) == n_records - 1

    def test_fresh_epoch_after_reopen(self, tmp_path):
        """A reopened log starts a later crash epoch than any logged
        record, so new uids cannot collide with logged ones."""
        d = str(tmp_path)
        bank, _ = _run_cluster(d)
        path = os.path.join(d, "node1.wal")
        node = _replayed(bank, path)
        logged = [
            r["epoch"] for r in node._wal.records()
            if r["t"] == "performed"
        ]
        if logged:
            assert node._crash_epoch > max(logged)

    def test_cluster_with_wal_matches_cluster_without(self, tmp_path):
        """Attaching node WALs must not change the simulation: the logs
        observe the protocol, they do not participate in it."""
        bank = BankingWorkload(BankingConfig(families=3, transfers=4, seed=7))
        plan = FaultPlan(
            crashes=(CrashEvent("node1", at=8.0, duration=6.0),)
        )

        def run(wal_dir):
            runtime = DistributedRuntime(
                bank.programs, bank.accounts, TwoPhaseLockingScheduler(),
                nodes=3, seed=2, faults=plan, wal_dir=wal_dir,
            )
            return runtime.run()

        with_wal = run(str(tmp_path / "wal"))
        without = run(None)
        assert with_wal.commits == without.commits
        assert [r.step for r in with_wal.execution.records] == \
            [r.step for r in without.execution.records]
