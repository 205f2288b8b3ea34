"""Self-tests of the benchmark: oracles, tamper detection, trace counts.

    python3 -m pytest -q bench

Independent of the repository's own test suite; the CLI runs below use
small versions of the census and deep workloads.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run

HALL_1_TO_17 = [1, 1, 4, 8, 5, 22, 42, 40, 120, 265, 286, 764, 1729, 2198,
                5168, 12144, 17034]


def test_hall_recursion_reproduces_subgroup_counts():
    assert oracles.hall_counts(17) == HALL_1_TO_17
    tf = oracles.hall_counts(24, torsion_free=True)
    assert [tf[n - 1] for n in (6, 12, 18, 24)] == [5, 60, 1105, 27120]
    assert sum(tf[n - 1] for n in (6, 12, 18, 24)) == 28290


def test_a002005_reproduces_rooted_cubic_maps():
    assert [oracles.rooted_cubic_maps(k) for k in range(1, 7)] == \
        [4, 32, 336, 4096, 54912, 786432]
    assert oracles.tf_counts_table().splitlines()[-1].split() == ["24", "191", "4096"]


def _pass(tmp_path, workload, traced=False):
    (tmp_path / "spans").mkdir(exist_ok=True)
    runner = run.Runner(tmp_path)
    tally = run.Tally()
    try:
        result = run.run_pass(runner, workload, tally, traced=traced)
    finally:
        runner.close()
    return result, tally


def _rewrite(path, edit):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    work = tmp_path_factory.mktemp("census")
    _, tally = _pass(work, run.Census())
    assert (tally.attempted, tally.failed) == (21, 0), tally.errors
    return work


def test_census_lift_total_off_by_one_is_rejected(census, tmp_path):
    shutil.copy(census / "full.jsonl", tmp_path / "full.jsonl")

    def bump(records):
        records[0]["lift_one_to_one"] += 1
    _rewrite(tmp_path / "full.jsonl", bump)
    errors = oracles.check_catalog(run._records(tmp_path / "full.jsonl"))
    assert errors and "3412" in errors[0]
    lifted = run._records(census / "k12_lifts.jsonl")
    lifted[3]["lift_two_to_one"] -= 1
    assert oracles.check_stratum(12, run._records(census / "k12.jsonl"), lifted)


def test_census_missing_tf_class_is_rejected(census):
    records = run._records(census / "tf18.jsonl")
    assert oracles.check_tf_stratum(18, records) == []
    errors = oracles.check_tf_stratum(18, records[1:])
    assert len(errors) == 2        # class count and the A002005 sum


def test_deep_missing_class_is_rejected(tmp_path):
    _, tally = _pass(tmp_path, run.Deep(max_index=9))
    assert (tally.attempted, tally.failed) == (18, 0), tally.errors
    _rewrite(tmp_path / "deep9.jsonl", lambda records: records.pop(5))
    errors = oracles.check_deep(9, run._records(tmp_path / "deep9.jsonl"))
    assert any("Hall gives 120" in e for e in errors)
    assert any("13 classes, want 14" in e for e in errors)


def test_audit_outputs_are_checked_exactly():
    assert oracles.check_report("totals", oracles.TOTALS_TABLE) == []
    assert oracles.check_report("totals", oracles.TOTALS_TABLE.replace("3411", "3412"))
    assert oracles.check_report("k24", "loops\nstratum total 2961\n")
    assert oracles.check_verify("verified 3228 records and 1000 matrix samples\n") == []
    assert oracles.check_verify("verified 3227 records and 1000 matrix samples\n")


def test_dot_check_counts_edges(census):
    record = next(r for r in run._records(census / "full.jsonl")
                  if r["id"] == "4,1,1-A")
    dot = subprocess.run(
        [sys.executable, "-m", "modk3.cli", "export-dot", "--in",
         str(census / "full.jsonl"), "--id", "4,1,1-A"],
        env=dict(os.environ, PYTHONPATH=str(run.ROOT / "src")),
        capture_output=True, text=True).stdout
    assert oracles.check_dot(record, dot) == []
    dropped = "".join(line for line in dot.splitlines(keepends=True)
                      if 'label="1"' not in line)
    assert oracles.check_dot(record, dropped)


def test_trace_counts_repeat_exactly(tmp_path):
    workload = run.Census(strata=(6, 12, 18))
    layers = []
    for attempt in ("a", "b"):
        work = tmp_path / attempt
        work.mkdir()
        result, tally = _pass(work, workload, traced=True)
        assert tally.failed == 0, tally.errors
        startups = [t["imported_at"] - t["started"] for t in result["traces"]]
        layers.append(run.layer_metrics(result["traces"], startups))
    first, second = layers
    assert workload.trace_checks(first) == []
    assert first["generate.leaves"] == 5 + 60 + 1105
    assert first["catalog.validations_per_record"] == 1.0
    counts = {k: v for k, v in first.items() if k.endswith(".calls")
              or isinstance(v, int)}
    assert counts == {k: second[k] for k in counts}


def test_result_metrics_are_the_ones_benchmark_json_lists():
    passes = [{"wall_s": 2.0 + i, "cpu_s": 1.0, "peak_rss_mb": 20.0,
               "stages": {"enumerate": 1.0}} for i in range(3)]
    metrics, extra = run.end_to_end([0.1, 0.2, 0.3], passes, run.Tally())
    assert [(k, u) for k, (_, u) in metrics.items()] == \
        run.benchmark_metrics("end_to_end")
    assert metrics["wall_s"][0] == 3.0 and metrics["setup_s"][0] == 0.2
    assert extra["error_rate"][0] == 0.0


def test_run_without_sources_fails_without_a_result(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
