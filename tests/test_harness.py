import json

import numpy as np
import pytest

from conftest import exact_difference_series, exact_response_series, oracle_reduce
from fracgrey import (
    DATASETS,
    WUHAN,
    ZHEJIANG,
    DataError,
    SingularDesignError,
    SwarmConfig,
    UsageError,
    load_csv,
    render_table,
    run_benchmark,
)
from fracgrey.benchmark import write_trace_csv
from fracgrey.cli import main
from fracgrey.config import pso_config_from_file, swarm_config_from_file
from fracgrey.greymodel import MAX_HORIZON
from fracgrey.optim import MAX_RUNS

# Fields of every benchmark results.json record.
RECORD_FIELDS = {"dataset", "estimator", "r", "mean_error_pct", "stddev",
                 "repeats", "seed", "elapsed_ms"}


# --- embedded data -----------------------------------------------------------

def test_wuhan_matches_published_table():
    np.testing.assert_array_equal(WUHAN.series.labels, np.arange(2011, 2016))
    np.testing.assert_array_equal(
        WUHAN.series.values, [714700.0, 765000.0, 860412.0, 1005200.0, 1061400.0]
    )
    assert WUHAN.source


def test_zhejiang_matches_published_table():
    np.testing.assert_array_equal(ZHEJIANG.series.labels, np.arange(2007, 2014))
    np.testing.assert_array_equal(
        ZHEJIANG.series.values,
        [3210300.0, 3272300.0, 3152300.0, 3279100.0, 3411200.0, 3474600.0, 3606700.0],
    )


def test_dataset_registry():
    assert set(DATASETS) == {"wuhan", "zhejiang"}


# --- CSV ingestion -----------------------------------------------------------

def test_load_csv_round_trips_wuhan(write_csv):
    rows = [f"{lab},{float(val)!r}" for lab, val in zip(WUHAN.series.labels, WUHAN.series.values)]
    series = load_csv(write_csv("wuhan.csv", rows))
    np.testing.assert_array_equal(series.labels, WUHAN.series.labels)
    np.testing.assert_array_equal(series.values, WUHAN.series.values)


def test_load_csv_empty_file(write_csv):
    with pytest.raises(DataError):
        load_csv(write_csv("empty.csv", [], header=None))


def test_load_csv_header_only(write_csv):
    with pytest.raises(DataError, match="no data rows"):
        load_csv(write_csv("header.csv", []))


def test_load_csv_bad_value_names_line(write_csv):
    path = write_csv("bad.csv", ["2011,1.0", "2012,abc"])
    with pytest.raises(DataError, match="line 3"):
        load_csv(path)


def test_load_csv_bad_header(write_csv):
    with pytest.raises(DataError, match="line 1"):
        load_csv(write_csv("hdr.csv", ["2011,1.0"], header="year;value"))


def test_load_csv_wrong_column_count(write_csv):
    with pytest.raises(DataError, match="line 2"):
        load_csv(write_csv("cols.csv", ["2011,1.0,extra"]))


def test_load_csv_non_positive_value(write_csv):
    with pytest.raises(DataError):
        load_csv(write_csv("neg.csv", ["2011,1.0", "2012,-2.0"]))


def test_load_csv_non_monotone_labels(write_csv):
    with pytest.raises(DataError):
        load_csv(write_csv("mono.csv", ["2011,1.0", "2011,2.0"]))


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "nope.csv")


# --- run-configuration files ---------------------------------------------------

REFERENCE_CSO_CONFIG = """\
# population settings
N = 40
M = 30
SRD = 0.2
mr = 0.2
c = 1.05
w = 0.6
Iter_max = 300
"""


def test_swarm_config_file_round_trip(tmp_path):
    path = tmp_path / "cso.cfg"
    path.write_text(REFERENCE_CSO_CONFIG)
    cfg = swarm_config_from_file(path, seed=7)
    assert cfg == SwarmConfig(seed=7)


def test_pso_config_file(tmp_path):
    path = tmp_path / "pso.cfg"
    path.write_text("N = 40\nc1 = 1.5\nc2 = 1.5\nw = 0.7\nIter_max = 300\n")
    cfg = pso_config_from_file(path, seed=3)
    assert (cfg.n_particles, cfg.c1, cfg.c2, cfg.w, cfg.iter_max) == (40, 1.5, 1.5, 0.7, 300)
    assert cfg.seed == 3


def test_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("N = 40\nturbo = yes\n")
    with pytest.raises(UsageError, match="turbo"):
        swarm_config_from_file(path)


def test_config_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("N = forty\n")
    with pytest.raises(UsageError):
        swarm_config_from_file(path)


def test_config_missing_equals(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("N 40\n")
    with pytest.raises(UsageError):
        swarm_config_from_file(path)


def test_config_override_acceleration(tmp_path):
    # the commonly quoted alternative base acceleration stays configurable
    path = tmp_path / "c2.cfg"
    path.write_text("c = 2.05\nSPC = false\nCDC = 1\n")
    cfg = swarm_config_from_file(path)
    assert cfg.c0 == 2.05 and cfg.spc is False and cfg.cdc == 1


# --- benchmark ----------------------------------------------------------------

SMALL_SWARM = SwarmConfig(n_agents=8, smp=5, iter_max=40)


@pytest.fixture(scope="module")
def small_benchmark():
    return run_benchmark(WUHAN, repeats=2, seed=0, swarm_cfg=SMALL_SWARM)


def test_benchmark_has_nine_cells(small_benchmark):
    assert len(small_benchmark.cells) == 9
    assert {c.estimator for c in small_benchmark.cells} == {"lsm", "pso", "adcso"}
    assert {c.r for c in small_benchmark.cells} == {0.25, 0.5, 0.75}


def test_benchmark_lsm_cells_deterministic(small_benchmark):
    for r, expected in [(0.25, 1.57), (0.5, 1.36), (0.75, 1.47)]:
        cell = small_benchmark.cell("lsm", r)
        assert cell.stddev == 0.0
        assert cell.mean_error_pct == pytest.approx(expected, abs=0.3)


def test_benchmark_rendered_numbers_match_records(small_benchmark):
    table = render_table(small_benchmark)
    lines = table.splitlines()
    for estimator in ("LSM", "PSO", "ADCSO"):
        row = next(l for l in lines if l.startswith(estimator))
        rendered = row.split()[1:]
        expected = [f"{small_benchmark.cell(estimator.lower(), r).mean_error_pct:.2f}"
                    for r in (0.25, 0.5, 0.75)]
        assert rendered == expected


def test_benchmark_results_file_round_trip(small_benchmark, tmp_path):
    from fracgrey import write_results_json

    path = tmp_path / "results.json"
    write_results_json(small_benchmark, path)
    records = json.loads(path.read_text())
    assert len(records) == 9
    assert all(set(rec) == RECORD_FIELDS for rec in records)
    by_key = {(rec["estimator"], rec["r"]): rec for rec in records}
    for cell in small_benchmark.cells:
        rec = by_key[(cell.estimator, cell.r)]
        assert rec["mean_error_pct"] == cell.mean_error_pct
        assert rec["stddev"] == cell.stddev
        assert rec["dataset"] == "wuhan"
        assert rec["elapsed_ms"] >= 0


def test_trace_csv_schema(small_benchmark, tmp_path):
    cell = small_benchmark.cell("adcso", 0.5)
    path = tmp_path / "trace.csv"
    write_trace_csv(cell.traces[0], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,best_fitness"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == SMALL_SWARM.iter_max + 1
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_benchmark_repeats_validation():
    with pytest.raises(ValueError):
        run_benchmark(WUHAN, repeats=0)


# --- CLI ------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_fit_lsm(capsys):
    code, out, _ = run_cli(capsys, "fit", "--dataset", "wuhan", "--r", "0.25",
                           "--estimator", "lsm")
    assert code == 0
    mape = float(next(l for l in out.splitlines() if l.startswith("MAPE_pct:")).split()[1])
    assert mape == pytest.approx(1.57, abs=0.3)
    assert "2011" in out and "714700" in out


def test_cli_fit_seeded_runs_are_byte_identical(capsys, tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("N = 10\nM = 6\nIter_max = 50\n")
    args = ("fit", "--dataset", "wuhan", "--r", "0.25", "--estimator", "adcso",
            "--seed", "1", "--config", str(cfg))
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_fit_rejects_zero_order(capsys):
    code, _, err = run_cli(capsys, "fit", "--dataset", "wuhan", "--r", "0")
    assert code == 1
    assert "order" in err


def test_cli_fit_requires_one_input(capsys, write_csv):
    code, _, _ = run_cli(capsys, "fit", "--r", "0.5")
    assert code == 1
    path = write_csv("x.csv", ["2011,1.0"])
    code, _, _ = run_cli(capsys, "fit", "--r", "0.5", "--dataset", "wuhan",
                         "--csv", path)
    assert code == 1


def test_cli_fit_missing_csv(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fit", "--csv", str(tmp_path / "gone.csv"),
                           "--r", "0.5")
    assert code == 2


def test_cli_fit_malformed_csv(capsys, write_csv):
    path = write_csv("bad.csv", ["2011,10.0", "2012,abc"])
    code, _, err = run_cli(capsys, "fit", "--csv", path, "--r", "0.5")
    assert code == 2
    assert "line 3" in err


def test_cli_fit_writes_json_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "fit", "--dataset", "zhejiang", "--r", "0.5",
                           "--estimator", "lsm", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["dataset"] == "zhejiang"
    assert payload["mape_pct"] == pytest.approx(3.0196, abs=0.3)
    assert len(payload["fitted"]) == 7
    stdout_mape = float(next(l for l in out.splitlines()
                             if l.startswith("MAPE_pct:")).split()[1])
    assert stdout_mape == pytest.approx(payload["mape_pct"], abs=5e-5)


def test_cli_numerical_error_exit_code(capsys, monkeypatch):
    import fracgrey.cli as cli_module

    def boom(*args, **kwargs):
        raise SingularDesignError("forced failure")

    monkeypatch.setattr(cli_module, "estimate", boom)
    code, _, err = run_cli(capsys, "fit", "--dataset", "wuhan", "--r", "0.5")
    assert code == 3
    assert "numerical error" in err


def test_cli_order_search_lsm_exact(capsys, write_csv, tmp_path):
    series = exact_response_series(0.5, 0.05, 8.0, 10.0, 9)
    path = write_csv("gen.csv", [f"{lab},{float(val)!r}" for lab, val in
                                 zip(series.labels, series.values)])
    out_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "order-search", "--csv", path,
                           "--estimator", "lsm", "--step", "0.25",
                           "--out", str(out_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,mean_error"
    curve = [line.split(",") for line in lines[1:5]]
    assert [row[0] for row in curve] == ["0.25", "0.5", "0.75", "1.0"]
    assert any(line.startswith("best r: 0.5") for line in lines)
    file_lines = out_path.read_text().splitlines()
    assert file_lines[0] == "r,mean_error"
    assert file_lines[1:] == lines[1:5]


def test_cli_order_search_step_validation(capsys):
    code, _, _ = run_cli(capsys, "order-search", "--dataset", "wuhan",
                         "--step", "0.7")
    assert code == 1


def test_cli_order_search_step_size_limit(capsys):
    code, out, err = run_cli(capsys, "order-search", "--dataset", "wuhan",
                             "--step", "1e-9")
    assert code == 1
    assert err.startswith("usage error:") and "limit is 1000" in err
    assert out == ""


@pytest.mark.parametrize("command", [("fit", "--r", "0.5"), ("order-search", "--step", "0.5")])
@pytest.mark.parametrize("estimator", ["lsm", "pso", "adcso"])
def test_cli_short_series_rejected_by_every_estimator(capsys, write_csv, command, estimator):
    path = write_csv("short.csv", ["2011,1.0", "2012,2.0", "2013,3.0"])
    code, out, err = run_cli(capsys, *command, "--csv", path, "--estimator", estimator)
    assert code == 2
    assert "too short" in err
    assert out == ""


def test_cli_fit_zero_development_coefficient(capsys, write_csv, tmp_path):
    path = write_csv("flat.csv", ["2011,5", "2012,5", "2013,5", "2014,5"])
    out_path = tmp_path / "flat.json"
    code, _, _ = run_cli(capsys, "fit", "--csv", path, "--estimator", "lsm",
                         "--r", "1", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert abs(payload["a"]) < 1e-12
    np.testing.assert_allclose(payload["fitted"], [5.0] * 4, rtol=1e-9)
    assert payload["mape_pct"] < 1e-9


def test_cli_order_search_repeats_validation(capsys):
    code, _, _ = run_cli(capsys, "order-search", "--dataset", "wuhan",
                         "--repeats", "0")
    assert code == 1


def test_cli_benchmark(capsys, tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("N = 8\nM = 5\nIter_max = 40\n")
    out_dir = tmp_path / "bench"
    code, out, _ = run_cli(capsys, "benchmark", "--dataset", "wuhan",
                           "--repeats", "2", "--seed", "0",
                           "--config", str(cfg), "--out", str(out_dir))
    assert code == 0
    for name in ("LSM", "PSO", "ADCSO"):
        assert name in out
    records = json.loads((out_dir / "results.json").read_text())
    assert len(records) == 9
    assert (out_dir / "table.txt").read_text().strip() in out
    traces = sorted((out_dir / "traces").glob("*.csv"))
    assert len(traces) == 12  # 2 stochastic estimators x 3 orders x 2 repeats
    for path in traces:
        rows = path.read_text().splitlines()
        assert rows[0] == "iteration,best_fitness"
        fitness = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(fitness, fitness[1:]))


def test_cli_benchmark_requires_dataset(capsys):
    code, _, _ = run_cli(capsys, "benchmark")
    assert code == 1


def test_cli_forecast_continues_generator(capsys, write_csv):
    r, a, b, x1, n = 0.5, 0.002, 1.0, 10.0, 8
    series = exact_difference_series(r, a, b, x1, n)
    path = write_csv("gen.csv", [f"{lab},{float(val)!r}" for lab, val in
                                 zip(series.labels, series.values)])
    code, out, err = run_cli(capsys, "forecast", "--csv", path,
                             "--estimator", "lsm", "--step", "0.25",
                             "--horizon", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label,value"
    predicted = np.array([float(line.split(",")[1]) for line in lines[1:]])
    labels = [int(line.split(",")[0]) for line in lines[1:]]
    assert labels == [2008, 2009, 2010]

    X = np.empty(n + 3)
    X[0] = x1
    for k in range(1, n + 3):
        X[k] = ((1.0 - a / 2.0) * X[k - 1] + b) / (1.0 + a / 2.0)
    expected = oracle_reduce(X, r)[n:]
    np.testing.assert_allclose(predicted, expected, rtol=1e-6)


def test_cli_forecast_next_period_for_wuhan(capsys):
    code, out, _ = run_cli(capsys, "forecast", "--dataset", "wuhan",
                           "--estimator", "lsm", "--step", "0.05",
                           "--horizon", "1")
    assert code == 0
    label, value = out.splitlines()[1].split(",")
    assert label == "2016"
    assert float(value) > 0


def test_cli_forecast_horizon_zero(capsys):
    code, _, _ = run_cli(capsys, "forecast", "--dataset", "wuhan",
                         "--horizon", "0", "--estimator", "lsm")
    assert code == 1


def _no_search(*args, **kwargs):
    raise AssertionError("the plan should be rejected before any search runs")


def _forbid_search(monkeypatch):
    """Make every swarm run and every least-squares fit fail, wherever it starts."""
    for target in ("fracgrey.optim._run", "fracgrey.optim.lsm_fit",
                   "fracgrey.benchmark.lsm_fit"):
        monkeypatch.setattr(target, _no_search)


@pytest.mark.parametrize("horizon", [str(MAX_HORIZON + 1), "1000000000000"])
def test_cli_forecast_horizon_limit(capsys, monkeypatch, horizon):
    monkeypatch.setattr("fracgrey.cli.order_search", _no_search)
    code, out, err = run_cli(capsys, "forecast", "--dataset", "wuhan",
                             "--horizon", horizon)
    assert code == 1
    assert err.startswith("usage error:") and f"[1, {MAX_HORIZON}]" in err
    assert out == ""


def test_cli_forecast_at_horizon_limit(capsys):
    code, out, _ = run_cli(capsys, "forecast", "--dataset", "wuhan", "--estimator", "lsm",
                           "--step", "0.25", "--horizon", str(MAX_HORIZON))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == MAX_HORIZON + 1
    assert lines[-1].startswith(f"{2015 + MAX_HORIZON},")


@pytest.mark.parametrize("argv", [
    ("order-search", "--step", "0.5", "--repeats", "100000000000"),
    ("order-search", "--step", "0.001", "--repeats", "11", "--estimator", "pso"),
    ("forecast", "--step", "0.5", "--repeats", "100000000000"),
    ("forecast", "--step", "0.01", "--repeats", str(MAX_RUNS // 100 + 1)),
    ("benchmark", "--repeats", str(MAX_RUNS // 6 + 1)),
])
def test_cli_plan_over_run_limit_rejected(capsys, monkeypatch, argv):
    _forbid_search(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--dataset", "wuhan")
    assert code == 1
    assert err.startswith("usage error:") and f"limit is {MAX_RUNS}" in err
    assert out == ""


@pytest.mark.parametrize("argv,message", [
    (("fit", "--r", "0.5", "--seed", "-1"), "seed must be non-negative"),
    (("order-search", "--seed", "-1"), "seed must be non-negative"),
    (("benchmark", "--seed", "-1"), "seed must be non-negative"),
    (("order-search", "--repeats", "0"), "repeats must be at least 1"),
    (("forecast", "--repeats", "0"), "repeats must be at least 1"),
    (("benchmark", "--repeats", "0"), "repeats must be at least 1"),
    (("order-search", "--step", "0.7"), "grid step must lie in (0, 0.5], got 0.7"),
    (("forecast", "--step", "1e-9"),
     "grid step 1e-09 gives 999999999 orders; the limit is 1000 (step >= 0.001)"),
    (("fit", "--r", "0"), "fractional order must lie in (0, 2.0], got 0.0"),
    (("fit", "--r", "nan", "--estimator", "adcso"), "fractional order must be finite, got nan"),
    (("order-search", "--step", "0.001", "--repeats", "11", "--estimator", "lsm"),
     f"the plan asks for 11000 seeded swarm runs; the limit is {MAX_RUNS}"),
])
def test_cli_argument_rejected_by_library(capsys, monkeypatch, argv, message):
    _forbid_search(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--dataset", "wuhan")
    assert code == 1
    assert err == f"usage error: {message}\n"
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("content,argv,code,prefix", [
    (b"label,value\n2011,\xff\n", ("--csv",), 2, "data error: "),
    (b"label,value\n2011," + b"1" * 200_000 + b"\n", ("--csv",), 2, "data error: "),
    (b"N = 10\n\xff\n", ("--dataset", "wuhan", "--estimator", "adcso", "--config"),
     1, "usage error: "),
], ids=["csv-not-utf8", "csv-field-too-large", "config-not-utf8"])
def test_cli_unreadable_input_file(capsys, tmp_path, content, argv, code, prefix):
    path = tmp_path / "input"
    path.write_bytes(content)
    got, out, err = run_cli(capsys, "fit", "--r", "0.5", *argv, str(path))
    assert got == code
    assert err.startswith(prefix + str(path))
    assert "Traceback" not in err and out == ""


def test_benchmark_run_limit():
    with pytest.raises(ValueError, match=f"limit is {MAX_RUNS}"):
        run_benchmark(WUHAN, repeats=MAX_RUNS // 6 + 1)


FIT = ("fit", "--r", "0.25", "--estimator")


@pytest.mark.parametrize("argv,setting", [
    ((*FIT, "adcso"), "Iter_max = 1000000000000"),
    ((*FIT, "adcso"), "N = 1000000000"),
    ((*FIT, "adcso"), "M = 1000000000"),
    ((*FIT, "pso"), "N = 1000000000"),
    (("order-search", "--step", "0.001", "--repeats", "10"), "Iter_max = 1001"),
    (("forecast", "--step", "0.5", "--estimator", "pso"), "N = 1000000000"),
    (("benchmark", "--repeats", "1"), "M = 1000000000"),
])
def test_cli_config_over_plan_limit_rejected(capsys, monkeypatch, tmp_path, argv, setting):
    _forbid_search(monkeypatch)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(setting + "\n")
    code, out, err = run_cli(capsys, *argv, "--dataset", "wuhan", "--config", str(cfg))
    assert code == 1
    assert err.startswith("usage error:") and "the limit is" in err
    assert out == ""


@pytest.mark.parametrize("estimator,setting", [("adcso", "SRD = nan"), ("pso", "w = inf")])
def test_cli_config_non_finite_setting_rejected(capsys, monkeypatch, tmp_path,
                                                estimator, setting):
    monkeypatch.setattr("fracgrey.cli.estimate", _no_search)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(setting + "\n")
    code, out, err = run_cli(capsys, *FIT, estimator, "--dataset", "wuhan",
                             "--config", str(cfg))
    assert code == 1
    assert err.startswith("usage error:") and "must be finite" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("estimator,setting,message", [
    ("adcso", "c = nan", "c must be finite"),
    ("adcso", "M = 0", "M must be at least 1"),
    ("pso", "N = 0", "N must be at least 1"),
])
def test_cli_config_error_names_the_key(capsys, monkeypatch, tmp_path,
                                        estimator, setting, message):
    monkeypatch.setattr("fracgrey.cli.estimate", _no_search)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(setting + "\n")
    code, out, err = run_cli(capsys, *FIT, estimator, "--dataset", "wuhan",
                             "--config", str(cfg))
    assert code == 1
    assert err.startswith("usage error:") and f"c.cfg: {message}" in err
    assert out == ""


def test_cli_config_unknown_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, _ = run_cli(capsys, "fit", "--dataset", "wuhan", "--r", "0.5",
                         "--estimator", "adcso", "--config", str(cfg))
    assert code == 1


def test_cli_config_cdc_above_search_dimension(capsys, tmp_path):
    cfg = tmp_path / "cdc.cfg"
    cfg.write_text("CDC = 3\n")
    code, out, err = run_cli(capsys, "fit", "--dataset", "wuhan", "--r", "0.25",
                             "--estimator", "adcso", "--config", str(cfg))
    assert code == 1
    assert err.startswith("usage error:") and "CDC = 3" in err
    assert "Traceback" not in err and out == ""


def test_cli_config_with_lsm_rejected(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("N = 10\n")
    code, _, _ = run_cli(capsys, "fit", "--dataset", "wuhan", "--r", "0.5",
                         "--estimator", "lsm", "--config", str(cfg))
    assert code == 1


def test_cli_unknown_estimator(capsys):
    code, _, _ = run_cli(capsys, "fit", "--dataset", "wuhan", "--r", "0.5",
                         "--estimator", "annealing")
    assert code == 1
