"""One round of a workload in one fresh interpreter; started by run.py.

The worker imports fracgrey from ``src/`` of the checkout, builds the
workload's inputs, and stamps the monotonic clock when they are ready, so the
parent can time set-up from before the interpreter started.  With
``--setup-only`` it stops there.  Otherwise it runs one round of the
workload's operations, times each, times the reference kernel of
``calibrate.py`` before the first and after each, checks the operations, and
prints one JSON line as the last line of stdout.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import calibrate
import workloads

clock = time.monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_round(workload, fracgrey, trace, spans_path):
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer(tracing.span_cost())
        tracer.install(fracgrey)

    calibrate.kernel()
    ops, times, kernel_s = [], [], [calibrate.timed()]
    for op in workload.operations():
        start = time.perf_counter()
        ops.append(workloads.run_cli(fracgrey.cli, op))
        times.append(time.perf_counter() - start)
        kernel_s.append(calibrate.timed())

    checked = workloads.check(workload, ops)
    result = {
        "times": times,
        "kernel_s": kernel_s,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "failures": [f"failed ({op.code}): fracgrey {' '.join(op.argv)}\n{op.stderr}{op.error}"
                     for op in ops if op.failed],
        "errors": checked.errors,
        "errors_pct": checked.errors_pct,
        # Every round of a run must give the same outputs.
        "digest": hashlib.sha256(json.dumps(checked.canonical).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["tracer_s"] = tracer.own_s()
        tracer.write_spans(spans_path)
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="directory for inputs and outputs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = clock()
    import fracgrey
    import fracgrey.cli
    import_s = clock() - start
    if not Path(fracgrey.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"fracgrey was imported from {fracgrey.__file__}, not from the checkout")

    workdir = Path(args.dir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, fracgrey)
    result = {"ready": clock(), "import_s": import_s}
    if not args.setup_only:
        spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.csv.gz"
        result.update(run_round(workload, fracgrey, args.trace, spans))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
