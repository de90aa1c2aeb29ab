"""The benchmark's tracer still finds every fracgrey name it wraps.

``perfbench/tracing.py`` wraps fracgrey's public functions, the evaluator
class and ``numpy.random.default_rng`` by name; a per-layer metric whose name
has gone reads null.  This runs small CLI plans under the tracer and checks
that no metric is null.  The tracer patches numpy and module globals, so the
plans run in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
src, perfbench, out = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import fracgrey
import fracgrey.cli
import tracing

tracer = tracing.Tracer()
tracer.install(fracgrey)
plans = [
    ["benchmark", "--dataset", "wuhan", "--repeats", "1", "--out", out],
    ["order-search", "--dataset", "wuhan", "--step", "0.1", "--repeats", "1"],
    ["forecast", "--dataset", "wuhan", "--estimator", "lsm", "--step", "0.1"],
    ["fit", "--dataset", "wuhan", "--estimator", "lsm", "--r", "0.5"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [fracgrey.cli.main(argv) for argv in plans]
print(json.dumps({"codes": codes, "metrics": tracer.metrics()}))
"""


def test_traced_cli_plans_leave_no_metric_null(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path / "bench")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    assert [name for name, value in result["metrics"].items() if value is None] == []
