#!/usr/bin/env python3
"""Fail when simulation throughput regresses versus the committed baseline.

Usage: check-perf-regression.py FRESH_BENCH_JSON [BASELINE_BENCH_JSON]
                                [--min-ratio R]

Compares the fresh ``perf`` artifact's instruction-weighted MIPS against
the committed ``BENCH_simdsim.json`` trajectory and exits non-zero when
the fresh number falls below ``R`` (default 0.8) times the baseline.
It also exits non-zero, before comparing anything, when the two
artifacts were recorded at different worker-pool sizes (``jobs``): on a
small host the pool size alone moves per-cell time by more than the gate.

The comparison runs over the *intersection* of cell labels, so a quick
(fig4-only) fresh run gates correctly against a full committed baseline.
Schema-tolerant reader: version-2 artifacts carry a setup-excluded
``simulate_ms`` per cell and are compared on core MIPS; when either side
is a version-1 artifact (wall time only), both sides fall back to
wall-clock MIPS so the two numbers measure the same thing.
"""

import json
import os
import sys

DEFAULT_MIN_RATIO = float(os.environ.get("PERF_REGRESSION_MIN_RATIO", "0.8"))


def load_cells(path: str) -> tuple:
    """``(jobs|None, label -> {instrs, wall_ms, simulate_ms|None})`` of one
    artifact."""
    with open(path) as f:
        doc = json.load(f)
    cells = doc.get("cells")
    if not cells:
        sys.exit(f"{path}: no 'cells' section — run the perf bench first")
    return doc.get("jobs"), {
        c["label"]: {
            "instrs": c["instrs"],
            "wall_ms": c["wall_ms"],
            "simulate_ms": c.get("simulate_ms"),
        }
        for c in cells
    }


def weighted_mips(cells: dict, labels, key: str) -> float:
    instrs = sum(cells[l]["instrs"] for l in labels)
    ms = sum(cells[l][key] for l in labels)
    return instrs / (ms / 1e3) / 1e6 if ms > 0 else 0.0


def main() -> int:
    min_ratio = DEFAULT_MIN_RATIO
    paths = []
    args = iter(sys.argv[1:])
    for arg in args:
        if arg == "--min-ratio":
            value = next(args, None) or sys.exit("--min-ratio needs a value")
            min_ratio = float(value)
        else:
            paths.append(arg)
    if not paths:
        sys.exit(__doc__)
    fresh_path = paths[0]
    baseline_path = paths[1] if len(paths) > 1 else "BENCH_simdsim.json"
    fresh_jobs, fresh = load_cells(fresh_path)
    base_jobs, baseline = load_cells(baseline_path)
    if fresh_jobs != base_jobs:
        print(
            f"[perf] {fresh_path} ran at jobs {fresh_jobs} but "
            f"{baseline_path} at jobs {base_jobs}: not like for like; "
            f"rerun with --jobs {base_jobs}"
        )
        return 1

    shared = sorted(set(fresh) & set(baseline))
    if not shared:
        sys.exit(
            f"no cell labels shared between {fresh_path} and "
            f"{baseline_path} — nothing to compare"
        )

    # Core MIPS (setup-excluded) only when both artifacts carry it;
    # otherwise wall MIPS on both sides, so like compares with like.
    v2 = all(
        cells[l]["simulate_ms"] is not None
        for cells in (fresh, baseline)
        for l in shared
    )
    key, metric = ("simulate_ms", "core") if v2 else ("wall_ms", "wall")
    fresh_mips = weighted_mips(fresh, shared, key)
    base_mips = weighted_mips(baseline, shared, key)
    if base_mips <= 0:
        sys.exit(f"{baseline_path}: baseline {metric} MIPS is zero")

    ratio = fresh_mips / base_mips
    status = "ok" if ratio >= min_ratio else "REGRESSION"
    print(
        f"[perf] {metric} MIPS over {len(shared)} shared cells: "
        f"fresh {fresh_mips:8.2f}  baseline {base_mips:8.2f}  "
        f"ratio {ratio:5.2f} (min {min_ratio:.2f})  {status}"
    )
    if ratio < min_ratio:
        print(
            f"throughput fell below {min_ratio}x the committed baseline "
            f"({baseline_path})"
        )
        return 1
    print("perf regression check ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
