"""Reference figures: run the benchmark over several seeds and summarise.

    python3 perfbench/reference.py --seeds 1-10
    python3 perfbench/reference.py --seeds 1-5 --workloads long-series --trace

Runs ``run.py`` once per (seed, workload), workloads interleaved, with the
run length from BENCHMARK.json.  For every metric and workload it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound, plus the
share of failed operations.  With ``--trace`` each seed also gets a traced
run, which alternates untraced and traced rounds, and the tracing overhead it
measured (traced minus untraced ``wall_s``) is shown.
Everything is written to ``perfbench/out/reference.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds, trace):
    """The run's report, and with ``trace`` the tracing overhead in seconds."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"run failed: {' '.join(command[1:])}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    overhead = next((float(line.split()[2]) for line in done.stderr.splitlines()
                     if line.startswith("tracing overhead ")), None)
    return report, overhead


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", action="store_true", help="add a traced run per seed")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            report, _ = run(workload, seed, seconds, 0)
            entry = {"seed": seed, "report": report}
            if args.trace:
                traced, overhead = run(workload, seed, seconds, 1)
                entry.update(traced=traced, tracing_overhead_s=overhead)
            runs[workload].append(entry)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in report["metrics"].items()),
                  file=sys.stderr, flush=True)

    import numpy
    result = {
        "machine": f"{platform.machine()}, {platform.processor() or 'cpu'}, "
                   f"{len(os.sched_getaffinity(0))} cores available",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, entries in runs.items():
        reports = [e["report"] for e in entries]
        out = {"runs": entries, "metrics": {}}
        out["failed_share"] = sorted({r["failed"] / r["attempted"] for r in reports})
        for name in reports[0]["metrics"]:
            s = summary([r["metrics"][name]["value"] for r in reports])
            out["metrics"][name] = s
            print(f"| {workload} | {name} | {s['median']:.6g} | {s['q1']:.6g} | "
                  f"{s['q3']:.6g} | {s['spread']:.4f} | {bounds.get(name)} |")
        if args.trace:
            out["tracing_overhead_s"] = summary([e["tracing_overhead_s"] for e in entries])
            out["per_layer"] = {
                name: summary([e["traced"]["metrics"][name]["value"] for e in entries])
                for name in entries[0]["traced"]["metrics"]
                if all(e["traced"]["metrics"][name]["value"] is not None for e in entries)
            }
            print(f"| {workload} | tracing overhead (s) | "
                  f"{out['tracing_overhead_s']['median']:.4g} | | | | |")
        print(f"| {workload} | failed share | {out['failed_share']} | | | | |")
        result["workloads"][workload] = out
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "reference.json").write_text(json.dumps(result, indent=1) + "\n",
                                                 encoding="utf-8")


if __name__ == "__main__":
    main()
