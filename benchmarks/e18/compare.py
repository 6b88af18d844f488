#!/usr/bin/env python3
"""Compare two E18 suite result files: ``compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change.  For every
(workload, end-to-end metric) prints both medians, the ratio B/A and a
verdict:

``worse``         B's median is worse than A's by more than the bound
``better``        B's median is better than A's by more than the bound
``within-bound``  neither
``unresolved``    the run-to-run spread (the wider IQR of the two sets,
                  as a share of A's median) exceeds the bound and the two
                  sets' values overlap, so the medians cannot be told
                  apart at this bound

Exits non-zero on any ``worse`` or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import sys

#: Per-layer metrics in these units are timings; all others are counts
#: of the deterministic traced run and repeat exactly on one commit.
TIMED_UNITS = {"us", "ms", "%"}


def verdict(base: dict, change: dict) -> str:
    """Judged on ``worsening``: the relative change of the median in the
    metric's bad direction."""
    a, b = base["median"], change["median"]
    sign = 1.0 if base["better"] == "lower" else -1.0
    worsening = sign * (b - a) / abs(a) if a else 0.0
    bound = base["bound"]
    spread = max(base["iqr"], change["iqr"]) / abs(a) if a else 0.0
    overlap = (
        min(change["values"]) <= max(base["values"])
        and min(base["values"]) <= max(change["values"])
    )
    if spread > bound and overlap:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within-bound"


def compare(base: dict, change: dict) -> int:
    bad = 0
    for label, record in (("A", base), ("B", change)):
        print(f"{label}: {record['fingerprint']}")
    if base["quick"] or change["quick"]:
        print("note: a --quick result is for checking, not for timing")
    print(f"\n{'workload':14s} {'metric':24s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for name, entry in base["workloads"].items():
        other = change["workloads"].get(name)
        if other is None:
            print(f"{name:14s} missing from B")
            bad += 1
            continue
        for metric, row in entry["end_to_end"].items():
            if metric not in other["end_to_end"]:
                print(f"{name:14s} {metric:24s} missing from B")
                bad += 1
                continue
            now = other["end_to_end"][metric]
            word = verdict(row, now)
            ratio = now["median"] / row["median"] if row["median"] else float("nan")
            print(f"{name:14s} {metric:24s} {row['median']:12.5g} "
                  f"{now['median']:12.5g} {ratio:7.3f} {row['bound']:6.2f}  "
                  f"{word} (base {row['median']:.5g} {row['unit']})")
            bad += word == "worse"
        rose = other["failed_share"] > entry["failed_share"]
        print(f"{name:14s} {'failed_share':24s} {entry['failed_share']:12.5g} "
              f"{other['failed_share']:12.5g} {'':7s} {0:6.2f}  "
              f"{'worse' if rose else 'within-bound'}")
        bad += rose
        units = base.get("per_layer_units", {})
        drift = [
            key for key, value in entry.get("per_layer", {}).items()
            if units.get(key) not in TIMED_UNITS
            and other.get("per_layer", {}).get(key) != value
        ]
        if drift:
            print(f"{name:14s} traced counts differ: {', '.join(sorted(drift))}")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return compare(*records)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
