"""The ``scripts/bench_report.py`` command line and its replay report."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_report.py"


@pytest.fixture(scope="module")
def bench_report():
    spec = importlib.util.spec_from_file_location("bench_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(digest="abc", seconds=2.0, deterministic=True):
    return {
        "counters_digest": digest,
        "deterministic": deterministic,
        "matrix_seconds": seconds,
        "systems": {"BL": {"median_leaf_seconds": seconds / 4}},
    }


def test_unknown_benchmark_is_an_argparse_error(bench_report, capsys):
    with pytest.raises(SystemExit) as excinfo:
        bench_report.main(["--benchmark", "no-such-benchmark", "--output", "-"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_replay_entries_compare_against_the_first(bench_report):
    report = bench_report.merge_replay_entry(None, "before", _entry(seconds=2.0), smoke=False)
    report = bench_report.merge_replay_entry(report, "after", _entry(seconds=1.0), smoke=False)
    before, after = report["entries"]
    assert (before["label"], after["label"]) == ("before", "after")
    assert before["bit_identical"] and after["bit_identical"]
    assert after["speedup_vs_first"] == {"matrix": 2.0, "BL": 2.0}


def test_replay_entry_with_other_counters_is_not_bit_identical(bench_report):
    report = bench_report.merge_replay_entry(None, "before", _entry(), smoke=False)
    report = bench_report.merge_replay_entry(report, "after", _entry(digest="xyz"), smoke=False)
    assert not report["entries"][1]["bit_identical"]
    report = bench_report.merge_replay_entry(report, "after", _entry(deterministic=False), smoke=False)
    assert len(report["entries"]) == 2
    assert not report["entries"][1]["bit_identical"]
