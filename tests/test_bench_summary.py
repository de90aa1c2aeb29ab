import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def _run(tmp_path, side, workload, seed, wall_s, failed=0):
    metrics = {"setup_s": 0.5, "wall_s": wall_s, "peak_rss_mb": 40.0, "best_mape_pct": 1.1}
    report = {"correct": True, "attempted": 10, "failed": failed,
              "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    path = tmp_path / f"{side}-{workload}-{seed}.json"
    path.write_text("some log line\n" + json.dumps(report) + "\n", encoding="utf-8")
    return path


def test_medians_quartiles_and_pairs(tmp_path):
    paths = [_run(tmp_path, "parent", "paper-search", s, w)
             for s, w in [(1, 9.0), (2, 10.0), (3, 11.0), (4, 12.0), (5, 13.0)]]
    paths += [_run(tmp_path, "change", "paper-search", s, w, failed=s == 5)
              for s, w in [(1, 4.0), (2, 5.0), (3, 11.0), (4, 6.0), (5, 7.0)]]
    summary = bench_summary.summarise("demo", paths)
    entry = summary["workloads"]["paper-search"]
    wall = entry["metrics"]["wall_s"]
    # The quartiles are perfbench/reference.py's (the exclusive method).
    assert wall["parent"] == {"n": 5, "median": 11.0, "q1": 9.5, "q3": 12.5,
                              "spread": pytest.approx(3.0 / 11.0)}
    assert wall["change"]["median"] == 6.0
    assert wall["median_change_pct"] == pytest.approx(-100.0 * 5 / 11)
    assert (wall["pairs_change_better"], wall["pairs"]) == (4, 5)  # the tie counts for neither
    assert entry["metrics"]["peak_rss_mb"]["pairs_change_better"] == 0
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["attempted"] == {"parent": 50, "change": 50}
    assert list(summary["workloads"]) == ["paper-search"]


def test_one_side_summarised_alone(tmp_path):
    paths = [_run(tmp_path, "parent", "long-series", s, 2.5) for s in (3, 4)]
    wall = bench_summary.summarise("one", paths)["workloads"]["long-series"]["metrics"]["wall_s"]
    assert wall["parent"] == {"n": 2, "median": 2.5, "q1": 2.5, "q3": 2.5, "spread": 0.0}
    assert "change" not in wall and "pairs" not in wall


def test_single_run_rejected(tmp_path):
    with pytest.raises(ValueError, match="no quartiles"):
        bench_summary.summarise("one", [_run(tmp_path, "change", "long-series", 3, 2.5)])


@pytest.mark.parametrize("name", ["base-paper-search-1.json", "parent-paper-search-x.json",
                                  "parent-1.json"])
def test_bad_file_names_rejected(tmp_path, name):
    path = tmp_path / name
    path.write_text("{}\n", encoding="utf-8")
    with pytest.raises(ValueError):
        bench_summary.summarise("bad", [path])


def test_unknown_workload_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown workloads"):
        bench_summary.summarise("bad", [_run(tmp_path, "parent", "no-such-load", 1, 1.0)])
