#!/usr/bin/env python3
"""Checks that two sets of gated-bench outputs agree on every non-timing value.

    python3 bench/compare_reports.py OLD_DIR NEW_DIR

Each directory holds what one build's benches wrote for the same flags:
solver.json, cluster.json, chaos.json and serve.json (from --json) and
fault.csv and overload.csv (from --csv); missing files are skipped. A JSON
file is either in the report schema ({"bench", "params", "arms", "results",
"gates"}, bench/report.hpp) or in the schema the benches wrote before it; the
old keys are mapped onto their report names below. Wall-clock values are not
compared. A non-timing key only one of the two files has is a mismatch
(MISSING from the new file, NEW in it), so a committed record that lacks an
arm fails against a fresh run. The CSVs must match cell for cell. Exit status
1 on any mismatch.
"""
import csv
import json
import sys
from pathlib import Path

TIMING = ("decide_ms", "speedup", "req_per_s")


def flatten_report(doc):
    flat = {f"params/{k}": v for k, v in doc["params"].items()}
    for arm in doc["arms"]:
        name = next(iter(arm.values()))
        flat.update({f"arms/{name}/{k}": v for k, v in arm.items()})
    flat.update({f"results/{k}": v for k, v in doc["results"].items()})
    return flat


def flatten_old(doc):
    """Maps the pre-report schema onto report keys."""
    flat = {}
    arms = doc.pop("configs", None) or doc.pop("arms", [])
    for arm in arms:
        give_ups = arm.pop("warm_give_ups", {})
        arm.update({f"give_ups_{k}": v for k, v in give_ups.items()})
        flat.update({f"arms/{arm['name']}/{k}": v for k, v in arm.items()})
    if "pivot_reduction_vs_cold" in doc:  # solver
        flat["results/pivot_reduction_vs_cold"] = doc.pop(
            "pivot_reduction_vs_cold")["warm-serial"]
    for key in ("hot_path", "admit_to_launch_tau", "burst_drill"):  # serve
        doc.setdefault(key, {})
    for k, v in doc.pop("hot_path").items():
        flat[f"results/hot_path_{k}"] = v
    for k, v in doc.pop("admit_to_launch_tau").items():
        flat[f"arms/BIRP/a2l_{k}_tau"] = v
    for k, v in doc.pop("burst_drill").items():
        flat[f"arms/{k.split('_')[0]}-burst/goodput_per_s"] = v
    # The chaos availability bound is now the bound of its gate.
    doc.pop("availability_gate_percent", None)
    for key in ("bench", "benchmark"):
        doc.pop(key, None)
    results = ("warm_factor_pivots_per_pivot", "speedup_16c_vs_mono",
               "goodput_gap_vs_mono", "bit_identical_across_threads",
               "post_recovery_goodput_ratio")
    for k, v in doc.items():
        flat[f"results/{k}" if k in results else f"params/{k}"] = v
    return flat


def load(path):
    doc = json.loads(path.read_text())
    return flatten_report(doc) if "gates" in doc else flatten_old(doc)


def same(a, b):
    if isinstance(a, (int, float)) and not isinstance(a, bool) and \
            isinstance(b, (int, float)) and not isinstance(b, bool):
        # Old files printed 6 significant digits or 6 decimals.
        return abs(a - b) <= max(1e-5 * max(abs(a), abs(b)), 1e-6)
    return a == b


def main(old_dir, new_dir):
    failures = 0
    for name in ("solver", "cluster", "chaos", "serve"):
        old_path, new_path = old_dir / f"{name}.json", new_dir / f"{name}.json"
        if not (old_path.exists() and new_path.exists()):
            continue
        old, new = load(old_path), load(new_path)
        checked = 0
        for key, value in old.items():
            if any(t in key for t in TIMING):
                continue
            checked += 1
            if key not in new:
                print(f"{name}: MISSING {key} (old {value})")
                failures += 1
            elif not same(value, new[key]):
                print(f"{name}: DIFFERS {key}: old {value} new {new[key]}")
                failures += 1
        added = sorted(k for k in new
                       if k not in old and not any(t in k for t in TIMING))
        for key in added:
            print(f"{name}: NEW {key} (new {new[key]})")
        failures += len(added)
        print(f"{name}.json: {checked} non-timing values compared, "
              f"{len(added)} new keys")
    for name in ("fault", "overload"):
        old_path, new_path = old_dir / f"{name}.csv", new_dir / f"{name}.csv"
        if not (old_path.exists() and new_path.exists()):
            continue
        old_rows = list(csv.reader(old_path.open()))
        new_rows = list(csv.reader(new_path.open()))
        equal = old_rows == new_rows
        failures += not equal
        print(f"{name}.csv: {len(old_rows)} rows x {len(old_rows[0])} columns "
              f"{'identical' if equal else 'DIFFER'}")
    print("OK" if failures == 0 else f"{failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1]), Path(sys.argv[2])))
