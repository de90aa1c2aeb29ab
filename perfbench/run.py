"""fracgrey benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload paper-search --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; fracgrey is imported from its ``src/``.
Every worker is a fresh single-threaded interpreter (BLAS and OpenMP pools
limited to one thread) that builds the workload's inputs.  After one untimed
warm-up worker, the run alternates a worker that stops once its inputs are
ready with a worker that also runs and checks one round of the workload's
operations, for up to ``--seconds`` of measured time in whole rounds.

On a shared machine the speed of a core changes both ways by 20 % and more,
in spells from seconds to minutes, so a run's raw times move with the spell
it meets.  A round worker therefore also times the fixed kernel of
``calibrate.py`` before every operation and after the last.  ``wall_s`` is
the time of one round at the kernel's reference speed: the sum over the
round's operations of the mean, over the run's rounds, of the operation's
time divided by the mean of the kernel times nearest to it (the two around
it and one more on either side), times ``calibrate.REFERENCE_S``.  The raw
round time goes to stderr.  ``setup_s`` is the median set-up time of all the
timed workers.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` it holds the per-layer metrics (medians over the traced
rounds), and the run alternates untraced and traced round workers instead,
so that the tracing overhead (traced minus untraced ``wall_s``) is measured
in one stretch of time and goes to stderr.  A per-layer metric whose wrapped
name has gone from fracgrey has value null.  A readable summary goes to
stderr.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("paper-search", "long-series", "paper-table")

# A run must end within 180 s; the workers get what is left of this.
RUN_LIMIT_S = 170.0

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "best_mape_pct": "%"}


class BenchmarkError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in THREAD_VARIABLES})
    return env


def run_worker(args, deadline):
    """Start a worker, wait for it, return (spawn time, its JSON result)."""
    command = [sys.executable, str(HERE / "worker.py")] + args
    spawned = time.monotonic()
    try:
        done = subprocess.run(command, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker did not finish in time: {' '.join(args)}") from exc
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with {done.returncode}: {' '.join(args)}")
    return spawned, json.loads(lines[-1])


def raw_round_s(rounds):
    """One round's time on the clock: the sum of each operation's median time."""
    return sum(statistics.median(op) for op in zip(*(r["times"] for r in rounds)))


def round_s(rounds):
    """One round's time at the kernel's reference speed (see the module doc)."""
    ratios = []
    for r in rounds:
        k = r["kernel_s"]
        # The kernel times nearest to each call: the two around it and one
        # more on either side, where there is one.
        ratios.append([t / statistics.fmean(k[max(0, i - 1):i + 3])
                       for i, t in enumerate(r["times"])])
    return calibrate.REFERENCE_S * sum(statistics.fmean(op) for op in zip(*ratios))


def measured_s(result):
    """Time a round worker spent in operations and kernel timings."""
    return sum(result["times"]) + sum(result["kernel_s"])


def measure(workload, seed, seconds, trace, rundir, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    setups, imports, rounds, traced = [], [], [], []

    def start(*args):
        spawned, result = run_worker(
            common + ["--dir", str(rundir / str(len(setups)))] + list(args), deadline)
        setups.append(result["ready"] - spawned)
        imports.append(result["import_s"])
        return result

    run_worker(common + ["--dir", str(rundir / "warm-up"), "--setup-only"], deadline)
    while True:
        if trace:
            traced.append(start("--trace", "1"))
        else:
            start("--setup-only")
        rounds.append(start("--trace", "0"))
        # Stop before a round pair that would end past --seconds.
        done = sum(measured_s(r) for r in rounds + traced)
        last = measured_s(rounds[-1]) + (measured_s(traced[-1]) if trace else 0.0)
        if done + last > seconds:
            break
    if not trace:
        start("--setup-only")

    first = rounds[0]
    for failure in first["failures"]:
        print(failure, file=sys.stderr)
    errors = [e for r in rounds + traced for e in r["errors"]]
    if any(r["digest"] != first["digest"] for r in rounds + traced):
        errors.append("a round's outputs differ from the first round's")
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    wall_s = round_s(rounds)
    print(f"{len(rounds)} rounds, operation times {[r['times'] for r in rounds]} s; "
          f"set-up samples {setups}\nkernel times {[r['kernel_s'] for r in rounds]} s\n"
          f"raw round time {raw_round_s(rounds)!r} s", file=sys.stderr)
    if trace:
        layers = {name: _median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        values = {"import.s": statistics.median(imports), **layers}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.METRICS}
        traced_s = round_s(traced)
        print(f"{len(traced)} traced rounds of {[sum(r['times']) for r in traced]} s\n"
              f"untraced wall_s {wall_s!r} s\ntraced wall_s {traced_s!r} s\n"
              f"tracing overhead {traced_s - wall_s!r} s "
              f"({(traced_s - wall_s) / wall_s:+.1%}); the tracer's own time, taken out "
              f"of the self times, {statistics.median(r['tracer_s'] for r in traced)!r} s",
              file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
            "best_mape_pct": statistics.fmean(first["errors_pct"]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds + traced),
        "failed": sum(r["failed"] for r in rounds + traced),
        "metrics": metrics,
    }


def _median(values):
    return None if None in values else statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time to measure; whole rounds are run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "fracgrey" / "__init__.py").is_file():
        sys.exit(f"no fracgrey sources under {ROOT / 'src'}: run from a checkout of the repository")

    rundir = OUT / f"run-{os.getpid()}"
    try:
        report = measure(args.workload, args.seed, args.seconds, args.trace, rundir, deadline)
    except BenchmarkError as exc:
        sys.exit(f"benchmark failed: {exc}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(report))
    if not report["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
