"""The benchmark's workloads: inputs, one round of operations, and checks.

Every operation goes through fracgrey's CLI entry point, called in process as
``cli.main(argv)`` with stdout and stderr captured.  A round is the same list
of operations every time, so every run attempts whole rounds and the share of
failed operations does not depend on the run length or the seed.

Checks compare fracgrey's outputs with the plain-Python oracle in
``oracle.py`` or with properties the method must have; none compares with a
saved copy of an earlier output.
"""

import contextlib
import io
import json
import math
import random
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import oracle

# Relative tolerance between fracgrey and the oracle.  Both agree to about
# 1e-13 on every input used here; 1e-9 leaves room for a change of formula.
REL_TOL = 1e-9

# A swarm may not lose to least squares (or to the generating parameters) by
# more than this many percentage points.
SWARM_SLACK = 0.1

ORDER_BANDS = {"wuhan": (0.16, 0.26), "zhejiang": (0.01, 0.11)}


@dataclass
class Op:
    """One CLI invocation and what it left behind.

    ``may_fail`` marks a call that is known to fail today; any other call that
    fails makes the round incorrect.
    """

    argv: list
    may_fail: bool = False
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str = ""

    @property
    def failed(self):
        return self.code != 0


def run_cli(cli, op) -> Op:
    """Call ``cli.main(op.argv)`` in process; an escaping exception is a failure."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            op.code = cli.main(op.argv)
    except Exception:  # the operation's failure is counted, the run goes on
        op.error = traceback.format_exc()
    op.stdout, op.stderr = out.getvalue(), err.getvalue()
    return op


@dataclass
class Checked:
    """What the checks of one round found."""

    errors: list = field(default_factory=list)
    errors_pct: list = field(default_factory=list)  # reported in-sample errors
    canonical: list = field(default_factory=list)  # outputs that must repeat

    def expect(self, condition, message):
        if not condition:
            self.errors.append(message)
        return condition

    def close(self, got, want, what, scale=None):
        """``got`` equals ``want`` to REL_TOL relative to ``scale`` (default ``want``)."""
        scale = abs(want) if scale is None else abs(scale)
        ok = math.isfinite(got) and abs(got - want) <= REL_TOL * scale
        return self.expect(ok, f"{what}: got {got!r}, expected {want!r}")


def check(workload, ops):
    """The workload's checks, plus an error for every call that failed unexpectedly."""
    chk = workload.check(ops)
    for op in ops:
        chk.expect(not op.failed or op.may_fail,
                   f"unexpected failure ({op.code}): fracgrey {' '.join(op.argv)}")
    return chk


def _write_csv(path, values, first_label=1):
    lines = ["label,value"] + [
        f"{first_label + i},{v!r}" for i, v in enumerate(values)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_order_search(text):
    """(grid, curve, best_r, best_error, a, b) from `order-search` stdout."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "r,mean_error":
        raise ValueError("missing r,mean_error header")
    rows = [line.split(",") for line in lines[1:-3]]
    grid = [float(r) for r, _ in rows]
    curve = [float(e) for _, e in rows]
    best_line, a_line, b_line = lines[-3:]
    head, _, rest = best_line.partition(" (mean error ")
    best_r = float(head.removeprefix("best r: "))
    best_error = float(rest.removesuffix("%)"))
    a = float(a_line.removeprefix("a: "))
    b = float(b_line.removeprefix("b: "))
    return grid, curve, best_r, best_error, a, b


def _check_search(chk, op, values, what):
    """Checks every order search must pass; returns the parsed output or None."""
    try:
        grid, curve, best_r, best_error, a, b = _parse_order_search(op.stdout)
    except ValueError as exc:
        chk.expect(False, f"{what}: unreadable output ({exc})")
        return None
    i = min(range(len(curve)), key=curve.__getitem__)
    chk.expect(grid[i] == best_r and curve[i] == best_error,
               f"{what}: best row {best_r}, {best_error} is not the curve minimum")
    # With one repeat the reported mean error is the best run's fitness, so it
    # must be the oracle's error at the returned (r, a, b).
    chk.close(best_error, oracle.model_mape(values, best_r, a, b), f"{what}: error at (r, a, b)")
    chk.expect(all(math.isfinite(e) and e > 0 for e in curve), f"{what}: bad curve value")
    chk.errors_pct.append(best_error)
    chk.canonical.append(op.stdout)
    return grid, curve, best_r, best_error, a, b


class PaperSearch:
    """Order search at step 0.01 on both embedded datasets, adcso and pso."""

    name = "paper-search"

    def __init__(self, seed, workdir, fracgrey):
        self.seed = seed
        self.values = {
            name: fracgrey.get_dataset(name).series.values.tolist()
            for name in ORDER_BANDS
        }

    def operations(self):
        return [
            Op(["order-search", "--dataset", name, "--step", "0.01", "--repeats", "1",
                "--estimator", estimator, "--seed", str(self.seed)])
            for name in ORDER_BANDS for estimator in ("adcso", "pso")
        ]

    def check(self, ops):
        chk = Checked()
        for op in ops:
            if op.failed:
                continue
            name, estimator = op.argv[2], op.argv[8]
            what = f"order-search {name} {estimator}"
            found = _check_search(chk, op, self.values[name], what)
            if found:
                lo, hi = ORDER_BANDS[name]
                chk.expect(lo <= found[2] <= hi, f"{what}: order {found[2]} outside [{lo}, {hi}]")
        return chk


# Exact a = 0 series: constant, so at r = 1 the fit is X(k) = x1 + b k with
# a = 0.  They do not depend on the seed.
CONSTANT_SERIES = ((5.0, 4), (2.5, 10), (1200.0, 30))


class LongSeries:
    """A seeded synthetic 100-point series through order-search, forecast, fit."""

    name = "long-series"
    length = 100
    step = 0.05
    horizon = 5
    noise = 0.02

    def __init__(self, seed, workdir, fracgrey):
        rnd = random.Random(seed)
        # The generating order lies on the search grid, so the search can
        # reach the generating parameters exactly.  For r below 0.35 or a
        # below -0.02 the least-squares fit of the noisy series can miss by
        # half a point, which would make the reported error depend on the seed.
        self.r = round(self.step * rnd.randint(7, 16), 12)
        self.a = rnd.uniform(-0.02, -0.01)
        x1 = rnd.uniform(50.0, 150.0)
        self.b = x1 * rnd.uniform(0.2, 0.4)
        clean = oracle.model_values(x1, self.r, self.a, self.b, self.length)
        # Multiplicative noise of fixed size and alternating sign (the seed
        # picks the first sign): no smooth fit can absorb it, so the error
        # each search reaches is close to ``noise`` whatever the seed.
        sign = rnd.choice((-1.0, 1.0))
        self.values = [v * (1.0 + self.noise * sign * (-1) ** k) for k, v in enumerate(clean)]
        if min(self.values) <= 0:
            raise ValueError("synthetic series is not positive")
        self.csv = Path(workdir) / "series.csv"
        _write_csv(self.csv, self.values)
        self.fit_out = Path(workdir) / "fit.json"
        self.constants = []
        for i, (value, n) in enumerate(CONSTANT_SERIES):
            path = Path(workdir) / f"constant{i}.csv"
            _write_csv(path, [value] * n)
            self.constants.append((path, [value] * n, Path(workdir) / f"constant{i}.json"))
        self.seed = seed

    def operations(self):
        csv, step = str(self.csv), str(self.step)
        ops = [
            Op(["order-search", "--csv", csv, "--step", step, "--repeats", "1",
                "--estimator", "adcso", "--seed", str(self.seed)]),
            Op(["order-search", "--csv", csv, "--step", step, "--estimator", "lsm"]),
            Op(["forecast", "--csv", csv, "--horizon", str(self.horizon), "--step", step,
                "--estimator", "lsm"]),
            Op(["fit", "--csv", csv, "--estimator", "lsm", "--r", str(self.r),
                "--out", str(self.fit_out)]),
        ]
        # The a = 0 fits exit 3 today (GreyParams rejects |a| < A_EPSILON).
        ops += [
            Op(["fit", "--csv", str(path), "--estimator", "lsm", "--r", "1", "--out", str(out)],
               may_fail=True)
            for path, _, out in self.constants
        ]
        return ops

    def check(self, ops):
        chk = Checked()
        swarm, lsm, fc, fit, *fits = ops
        if not swarm.failed:
            found = _check_search(chk, swarm, self.values, "adcso search")
            if found:
                limit = oracle.model_mape(self.values, self.r, self.a, self.b) + SWARM_SLACK
                chk.expect(found[3] <= limit,
                           f"adcso search: error {found[3]} above generating error + slack {limit}")
        best = None
        if not lsm.failed:
            found = _check_search(chk, lsm, self.values, "lsm search")
            if found:
                grid, curve, best_r, _, a, b = found
                for r, e in zip(grid, curve):
                    fa, fb = oracle.lsm_fit(self.values, r)
                    chk.close(e, oracle.model_mape(self.values, r, fa, fb), f"lsm search r={r}")
                fa, fb = oracle.lsm_fit(self.values, best_r)
                chk.close(a, fa, "lsm search a")
                chk.close(b, fb, "lsm search b")
                best = (best_r, a, b)
        if not fc.failed:
            self._check_forecast(chk, fc, best)
        if not fit.failed:
            self._check_fit(chk, fit)
        for op, (_, values, out) in zip(fits, self.constants):
            if op.failed:
                continue
            fitted = json.loads(Path(out).read_text(encoding="utf-8"))["fitted"]
            chk.expect(len(fitted) == len(values) and all(
                abs(f - v) <= REL_TOL * v for f, v in zip(fitted, values)),
                f"a = 0 fit of {values[0]} x {len(values)}: fitted values differ")
            chk.canonical.append(op.stdout)
        return chk

    def _check_fit(self, chk, op):
        report = json.loads(self.fit_out.read_text(encoding="utf-8"))
        fa, fb = oracle.lsm_fit(self.values, self.r)
        chk.close(report["a"], fa, "lsm fit a")
        chk.close(report["b"], fb, "lsm fit b")
        chk.close(report["mape_pct"], oracle.model_mape(self.values, self.r, fa, fb), "lsm fit error")
        want = oracle.model_values(self.values[0], self.r, fa, fb, self.length)
        chk.expect(len(report["fitted"]) == self.length, "lsm fit: wrong number of values")
        for k, (got, w) in enumerate(zip(report["fitted"], want)):
            chk.close(got, w, f"lsm fit value {k}")
        chk.canonical.append(op.stdout)

    def _check_forecast(self, chk, op, best):
        # stderr: "# series: r=R a=A b=B estimator=lsm"
        fields = dict(f.split("=", 1) for f in op.stderr.split() if "=" in f)
        r, a, b = (float(fields[k]) for k in ("r", "a", "b"))
        chk.expect(best is None or (r, a, b) == best,
                   f"forecast: parameters {(r, a, b)} differ from the lsm search {best}")
        rows = [line.split(",") for line in op.stdout.strip().splitlines()[1:]]
        n = self.length
        want = oracle.model_values(self.values[0], r, a, b, n + self.horizon)[n:]
        chk.expect([int(label) for label, _ in rows] == list(range(n + 1, n + self.horizon + 1)),
                   "forecast: wrong labels")
        for (label, got), w in zip(rows, want):
            chk.close(float(got), w, f"forecast label {label}")
        chk.canonical.append(op.stdout)


class PaperTable:
    """`fracgrey benchmark` with ten repeats on both datasets: the paper's tables."""

    name = "paper-table"
    repeats = 10

    def __init__(self, seed, workdir, fracgrey):
        self.seed = seed
        self.values = {
            name: fracgrey.get_dataset(name).series.values.tolist()
            for name in ORDER_BANDS
        }
        self.out = {name: Path(workdir) / name for name in ORDER_BANDS}

    def operations(self):
        return [
            Op(["benchmark", "--dataset", name, "--repeats", str(self.repeats),
                "--seed", str(self.seed), "--out", str(self.out[name])])
            for name in ORDER_BANDS
        ]

    def check(self, ops):
        chk = Checked()
        for op in ops:
            if not op.failed:
                self._check_dataset(chk, op.argv[2])
                chk.canonical.append(op.stdout)
        return chk

    def _check_dataset(self, chk, name):
        out, values = self.out[name], self.values[name]
        records = json.loads((out / "results.json").read_text(encoding="utf-8"))
        chk.expect(len(records) == 9, f"{name}: {len(records)} result records, want 9")
        lsm = {}
        for rec in records:
            what = f"{name} {rec['estimator']} r={rec['r']}"
            if rec["estimator"] == "lsm":
                a, b = oracle.lsm_fit(values, rec["r"])
                chk.close(rec["mean_error_pct"], oracle.model_mape(values, rec["r"], a, b), what)
                lsm[rec["r"]] = rec["mean_error_pct"]
        for rec in records:
            if rec["estimator"] == "lsm":
                continue
            what = f"{name} {rec['estimator']} r={rec['r']}"
            chk.expect(rec["mean_error_pct"] <= lsm[rec["r"]] + SWARM_SLACK,
                       f"{what}: {rec['mean_error_pct']} loses to lsm {lsm[rec['r']]}")
            finals = []
            for i in range(rec["repeats"]):
                path = out / "traces" / f"{name}_{rec['estimator']}_r{rec['r']}_seed{rec['seed'] + i}.csv"
                lines = path.read_text(encoding="utf-8").splitlines()
                trace = [float(line.split(",")[1]) for line in lines[1:]]
                chk.expect(all(x >= y for x, y in zip(trace, trace[1:])),
                           f"{path.name}: trace increases")
                finals.append(trace[-1])
                chk.canonical.append(lines)
            chk.close(rec["mean_error_pct"], math.fsum(finals) / len(finals), f"{what}: mean of traces")
            if len(finals) > 1:
                chk.close(rec["stddev"], statistics.pstdev(finals), f"{what}: stddev of traces",
                          scale=rec["mean_error_pct"])
        for rec in records:
            chk.errors_pct.append(rec["mean_error_pct"])
            chk.canonical.append({k: v for k, v in rec.items() if k != "elapsed_ms"})
        table = (out / "table.txt").read_text(encoding="utf-8")
        for rec in records:
            chk.expect(f"{rec['mean_error_pct']:.2f}" in table,
                       f"{name}: table.txt lacks {rec['mean_error_pct']:.2f}")


WORKLOADS = {w.name: w for w in (PaperSearch, LongSeries, PaperTable)}
