"""Black-box classification over the external-history fixture corpus.

Each fixture is a hand-written portable history (no engine involved) and
the expected verdicts below are hand-derived from the definitions — so
these tests check the checker, not the checker against itself.
"""

from __future__ import annotations

import os

import pytest

from repro.audit import CRITERIA, audit_history, load_history
from repro.errors import SpecificationError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: fixture name -> {transaction -> (multilevel, serializable, si)}
EXPECTED = {
    # Sequential run: every criterion holds.
    "clean-serial": {
        "t1": (True, True, True),
        "t2": (True, True, True),
    },
    # Classic write skew: SI admits it, serializability does not; no
    # nest is declared so the multilevel axis degenerates to
    # serializability.
    "write-skew": {
        "t1": (False, False, True),
        "t2": (False, False, True),
    },
    # Lost update: both axes reject the cycle; first-committer-wins
    # indicts only the later committer.
    "lost-update": {
        "t1": (False, False, True),
        "t2": (False, False, False),
    },
    # The paper's shape: sibling updaters crossing at declared level-2
    # breakpoints — multilevel-correct but neither serializable nor SI
    # (both write both entities while concurrent; the later committer
    # t1 is the one SI rejects).
    "mixed-level-ok": {
        "t1": (True, False, False),
        "t2": (True, False, True),
    },
    # The same interleaving with no declared breakpoints is not a
    # specified multilevel interleaving: the closure goes cyclic.
    "mixed-level-bad": {
        "t1": (False, False, False),
        "t2": (False, False, True),
    },
    # A rogue pair must not indict the innocent bystander committed
    # strictly after them.
    "rogue-txn": {
        "t1": (False, False, True),
        "t2": (False, False, False),
        "t3": (True, True, True),
    },
    # The rogue pair again (t1/t2 read x, then both update it), but the
    # bystander lies on a 3-cycle through them: t1 writes y before t3
    # reads it, and t3 reads z before t2 writes it.  All three share a
    # strongly connected component, so serializability indicts t3 too;
    # removing the rogue pair's own cycle first would have cleared it.
    # The multilevel axis still blames by removal: its witness names
    # only t1 and t2, and t3 alone is correctable.  t3 writes nothing,
    # so first committer wins has nothing against it.
    "cycle-bystander": {
        "t1": (False, False, True),
        "t2": (False, False, False),
        "t3": (True, False, True),
    },
}


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, f"{name}.json")


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_verdicts(name):
    history = load_history(fixture_path(name))
    report = audit_history(history)
    expected = EXPECTED[name]
    assert set(report.transactions) == set(expected)
    for txn, (mla, ser, si) in expected.items():
        assert report.verdicts[txn]["multilevel"] is mla, (name, txn)
        assert report.verdicts[txn]["serializable"] is ser, (name, txn)
        assert report.verdicts[txn]["snapshot_isolation"] is si, (name, txn)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_witnesses_back_every_failure(name):
    report = audit_history(load_history(fixture_path(name)))
    for criterion in CRITERIA:
        if report.violating(criterion):
            assert report.witnesses.get(criterion), (
                f"{name}: {criterion} fails without a witness"
            )
        else:
            assert criterion not in report.witnesses


def test_write_skew_witness_is_a_cycle():
    report = audit_history(load_history(fixture_path("write-skew")))
    assert any("->" in w for w in report.witnesses["serializable"])


def test_lost_update_names_first_committer_wins():
    report = audit_history(load_history(fixture_path("lost-update")))
    assert any(
        "first committer wins" in w
        for w in report.witnesses["snapshot_isolation"]
    )


def test_report_shape():
    report = audit_history(load_history(fixture_path("clean-serial")))
    data = report.to_dict()
    assert data["ok"] == {c: True for c in CRITERIA}
    assert set(data["verdicts"]) == {"t1", "t2"}
    assert report.passes("multilevel")
    with pytest.raises(SpecificationError, match="unknown criterion"):
        report.passes("linearizable")


def test_unknown_conflict_model_rejected():
    history = load_history(fixture_path("clean-serial"))
    with pytest.raises(SpecificationError, match="conflict model"):
        audit_history(history, conflicts="bogus")


def test_empty_history_is_vacuously_clean():
    from repro.audit import History

    report = audit_history(History(commit_order=(), steps=()))
    assert report.transactions == ()
    assert report.ok == {c: True for c in CRITERIA}


def test_all_conflict_model_is_stricter():
    """Under ``conflicts='all'`` two reads conflict too — the write-skew
    reads alone already order the transactions both ways."""
    history = load_history(fixture_path("write-skew"))
    report = audit_history(history, conflicts="all")
    assert report.violating("serializable") == ["t1", "t2"]
