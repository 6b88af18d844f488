"""The whole E18 suite: interleaved repeats of every workload, then the
traced runs, one table and one result file.

Values are medians over repeats because single runs on a shared host
are not trustworthy (README, "Noise"); repeats are interleaved
round-robin across workloads so slow drift of the host hits every
workload alike instead of one of them.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import time

import procs


def calibration_loop_s() -> float:
    """The informational noise record (``calib_s``): one fixed
    pure-Python loop, wall-clocked.  Not a metric and not the calibrator
    (``calibrate.py``) — it shows what an uncorrected timing would have
    seen around each repeat."""
    start = time.perf_counter()
    x = 0
    for i in range(3_000_000):
        x += i * i % 7
    return time.perf_counter() - start


def fingerprint(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=procs.ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "REPRO_CLOSURE_BACKEND": os.environ.get("REPRO_CLOSURE_BACKEND", "auto"),
        "git_sha": sha,
        "seed": seed,
        "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def summary(values: list[float]) -> dict:
    iqr = 0.0
    if len(values) >= 2:
        quartiles = statistics.quantiles(values, n=4)
        iqr = quartiles[2] - quartiles[0]
    return {
        "values": values,
        "median": statistics.median(values),
        "min": min(values),
        "iqr": iqr,
        "n": len(values),
    }


def run(args, workloads: list[str], spec: dict, end_to_end, traced,
        print_run) -> int:
    """``end_to_end`` / ``traced`` / ``print_run`` are the entry
    script's functions (it runs as ``__main__``, so it passes them in)."""
    repeats = 1 if args.quick else args.repeats
    scale = 0.1 if args.quick else 1.0
    print(f"e18 suite: seed {args.seed}, {repeats} repeat(s), "
          f"{'quick (1/10 size, timing bounds off)' if args.quick else 'full size'}")
    record = {
        "fingerprint": fingerprint(args.seed),
        "quick": args.quick,
        "repeats": repeats,
        "per_layer_units": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": {
            name: {"runs": [], "calib_s": [], "failures": [], "attempted": 0}
            for name in workloads
        },
    }
    for repeat in range(repeats):
        for name in workloads:
            entry = record["workloads"][name]
            before = calibration_loop_s()
            result = end_to_end(name, args.seed, scale)
            entry["calib_s"].append([before, calibration_loop_s()])
            entry["runs"].append(
                {key: result[key] for key in ("metrics", "raw", "info")}
            )
            entry["failures"].extend(result["failures"])
            entry["attempted"] += result["attempted"]
            print(f"[repeat {repeat + 1}/{repeats}]", end=" ")
            print_run(name, 0, result)
    for name in workloads:
        result = traced(name, args.seed, scale)
        entry = record["workloads"][name]
        entry["per_layer"] = result["metrics"]
        entry["traced_info"] = result["info"]
        entry["failures"].extend(result["failures"])
        print_run(name, 1, result)

    print("\ne18 end-to-end metrics (median over repeats; calibrated — see README)")
    print(f"{'workload':14s} {'metric':24s} {'median':>12s} {'min':>12s} "
          f"{'IQR':>10s} {'n':>2s}  unit")
    for name in workloads:
        entry = record["workloads"][name]
        entry["end_to_end"] = {}
        for metric in spec["end_to_end"]:
            row = summary([r["metrics"][metric["name"]] for r in entry["runs"]])
            row.update(unit=metric["unit"], better=metric["better"],
                       bound=metric["bound"])
            entry["end_to_end"][metric["name"]] = row
            print(f"{name:14s} {metric['name']:24s} {row['median']:12.5g} "
                  f"{row['min']:12.5g} {row['iqr']:10.3g} {row['n']:2d}  "
                  f"{metric['unit']}")
        entry["failed_share"] = len(entry["failures"]) / max(entry["attempted"], 1)
        print(f"{name:14s} {'failed_share':24s} {entry['failed_share']:12.5g}")
    failed = sum(len(record["workloads"][n]["failures"]) for n in workloads)
    out = args.out or os.path.join(procs.OUT, f"result-seed{args.seed}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {os.path.relpath(out, os.getcwd())}; "
          f"{failed} correctness failure(s)")
    return 1 if failed else 0
