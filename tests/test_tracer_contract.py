"""The benchmark's tracer still finds every fracgrey name it wraps.

``perfbench/tracing.py`` wraps fracgrey's public functions, the evaluator
class and ``numpy.random.default_rng`` by name; a per-layer metric whose name
has gone, or whose counts a plan never reaches, reads null.  Each case runs
the CLI calls of one benchmark workload, small, under a tracer of its own and
checks that no metric is null: a plan that leaves a metric null must not be
covered by another plan's counts.  The tracer patches numpy and module
globals, so every plan runs in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
src, perfbench, plans = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import fracgrey
import fracgrey.cli
import tracing

tracer = tracing.Tracer()
tracer.install(fracgrey)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [fracgrey.cli.main(argv) for argv in json.loads(plans)]
print(json.dumps({"codes": codes, "metrics": tracer.metrics()}))
"""

SEARCH = ("order-search", "--dataset", "wuhan", "--step", "0.1", "--repeats", "1")

# The workloads of BENCHMARK.json, each as a list of CLI calls; {csv} and
# {out} name files in the test's directory.
PLANS = {
    "paper-table": [["benchmark", "--dataset", "wuhan", "--repeats", "1", "--out", "{out}"]],
    "paper-search": [[*SEARCH, "--estimator", "adcso"], [*SEARCH, "--estimator", "pso"]],
    "long-series": [
        ["order-search", "--csv", "{csv}", "--step", "0.25", "--repeats", "1",
         "--estimator", "adcso"],
        ["order-search", "--csv", "{csv}", "--step", "0.25", "--estimator", "lsm"],
        ["forecast", "--csv", "{csv}", "--horizon", "3", "--step", "0.25",
         "--estimator", "lsm"],
        ["fit", "--csv", "{csv}", "--estimator", "lsm", "--r", "0.5", "--out", "{out}.json"],
    ],
}


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_traced_cli_plans_leave_no_metric_null(tmp_path, workload):
    csv = tmp_path / "series.csv"
    csv.write_text("label,value\n" + "".join(f"{k},{100.0 * 1.05 ** k + k % 3}\n"
                                             for k in range(1, 21)), encoding="utf-8")
    plans = [[arg.format(csv=csv, out=tmp_path / "out") for arg in argv]
             for argv in PLANS[workload]]
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"),
         json.dumps(plans)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * len(plans)
    assert [name for name, value in result["metrics"].items() if value is None] == []
