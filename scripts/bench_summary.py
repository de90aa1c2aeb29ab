#!/usr/bin/env python3
"""Summarise saved benchmark runs of a parent and a change as BENCH_<label>.json.

    python3 scripts/bench_summary.py LABEL RUN [RUN ...]

Each RUN is a file holding the stdout of one ``perfbench/run.py`` run; its
last line is the run's JSON report.  The file name says which side ran, on
which workload and with which seed: ``parent-<workload>-<seed>.json`` or
``change-<workload>-<seed>.json``.  For every workload and every end-to-end
metric of BENCHMARK.json the summary gives each side's median, quartiles and
quartile spread, computed by ``summary`` of ``perfbench/reference.py``, the
relative change of the medians, and the number of seeds run on both
sides in which the change did better (ties count for neither).  It also
counts the failed operations and the runs whose outputs were not correct.
The summary is written to BENCH_<label>.json at the root of the repository.
"""

import argparse
import importlib.util
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

_spec = importlib.util.spec_from_file_location("reference", ROOT / "perfbench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def parse_name(path):
    """(side, workload, seed) from ``<side>-<workload>-<seed>.<ext>``."""
    side, _, rest = Path(path).stem.partition("-")
    workload, _, seed = rest.rpartition("-")
    if side not in SIDES or not workload or not seed.isdigit():
        raise ValueError(f"{path}: expected a name like parent-<workload>-<seed>.json")
    return side, workload, int(seed)


def read_report(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty run output")
    return json.loads(lines[-1])


def summarise(label, paths):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = defaultdict(dict)  # (workload, side) -> {seed: report}
    for path in paths:
        side, workload, seed = parse_name(path)
        runs[workload, side][seed] = read_report(path)

    workloads = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = {side: runs.get((workload, side), {}) for side in SIDES}
        if not any(sides.values()):
            continue
        paired = sorted(set(sides["parent"]) & set(sides["change"]))
        entry = {
            "seeds": {side: sorted(sides[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for r in sides[side].values()) for side in SIDES},
            "attempted": {side: sum(r["attempted"] for r in sides[side].values())
                          for side in SIDES},
            "incorrect_runs": {side: sum(not r["correct"] for r in sides[side].values())
                               for side in SIDES},
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: {seed: r["metrics"][name]["value"]
                             for seed, r in sides[side].items()} for side in SIDES}
            row = {"unit": metric["unit"], "better": metric["better"]}
            for side in SIDES:
                if len(values[side]) == 1:
                    raise ValueError(f"{workload}: one {side} run has no quartiles")
                if values[side]:
                    row[side] = {"n": len(values[side]),
                                 **reference.summary(list(values[side].values()))}
            if values["parent"] and values["change"]:
                before, after = row["parent"]["median"], row["change"]["median"]
                row["median_change_pct"] = 100.0 * (after - before) / before if before else None
                wins = sum((values["change"][s] < values["parent"][s]) if lower
                           else (values["change"][s] > values["parent"][s]) for s in paired)
                row["pairs_change_better"] = wins
                row["pairs"] = len(paired)
            entry["metrics"][name] = row
        workloads[workload] = entry

    unknown = {w for w, _ in runs} - set(workloads)
    if unknown:
        raise ValueError(f"runs of unknown workloads: {sorted(unknown)}")
    return {"label": label, "command": spec["command"], "run_seconds": spec["run_seconds"],
            "workloads": workloads}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("runs", nargs="+", metavar="RUN", help="saved run output")
    args = parser.parse_args()
    try:
        summary = summarise(args.label, args.runs)
    except (OSError, ValueError, KeyError) as exc:
        sys.exit(f"bench_summary: {exc}")
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
