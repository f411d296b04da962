import csv
import json

import pytest

from defragsim.metrics import (
    JOB_COLUMNS, SERIES_COLUMNS, SOLVER_COLUMNS, export_run, nearest_rank,
    run_tag, summarize, write_json,
)
from defragsim.simulate import run_simulation
from tests.test_simulate import SMALL_TOPO, small_trace


@pytest.fixture(scope="module")
def result():
    return run_simulation(SMALL_TOPO, small_trace(seed=0), "defrag-perfect",
                          solver_time_limit=5.0)


def test_nearest_rank_basics():
    values = [1.0, 2.0, 3.0, 4.0]
    assert nearest_rank(values, 50) == 2.0
    assert nearest_rank(values, 100) == 4.0
    assert nearest_rank(values, 1) == 1.0
    assert nearest_rank([7.0], 99) == 7.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_summarize_fields(result):
    summary = summarize(result, load=0.9)
    assert summary.algorithm == "defrag-perfect"
    assert summary.load == 0.9
    assert summary.num_jobs == len(result.records)
    assert 1.0 <= summary.p50_slowdown <= summary.p99_slowdown
    assert summary.p99_slowdown <= summary.max_slowdown
    assert summary.total_migrations == sum(
        r.migrations for r in result.records)
    assert summary.defrag_events == len(result.defrag_events)
    assert summary.event_log_hash == result.event_log_hash


def test_run_tag_format():
    assert run_tag("ecmp", 0.9, 3) == "ecmp_load0.9_seed3"
    assert run_tag("perfect", 0.75, 10) == "perfect_load0.75_seed10"


def test_export_run_writes_all_files(result, tmp_path):
    summary = export_run(result, 0.9, tmp_path)
    tag = run_tag(result.algorithm, 0.9, result.seed)
    jobs_path = tmp_path / f"jobs_{tag}.csv"
    series_path = tmp_path / f"series_{tag}.csv"
    solver_path = tmp_path / f"solver_{tag}.csv"
    assert jobs_path.exists() and series_path.exists() \
        and solver_path.exists()

    with open(jobs_path, newline="") as f:
        header = next(csv.reader(f))
    assert tuple(header) == JOB_COLUMNS

    with open(series_path, newline="") as f:
        header = next(csv.reader(f))
    assert tuple(header) == SERIES_COLUMNS

    with open(solver_path, newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == SOLVER_COLUMNS
    assert len(rows) - 1 == summary.defrag_events


def test_job_table_round_trip(result, tmp_path):
    export_run(result, 0.9, tmp_path)
    tag = run_tag(result.algorithm, 0.9, result.seed)
    with open(tmp_path / f"jobs_{tag}.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(result.records)
    by_id = {r.job_id: r for r in result.records}
    for row in rows:
        record = by_id[int(row["job_id"])]
        assert row["model"] == record.model
        assert int(row["num_workers"]) == record.num_workers
        assert float(row["slowdown"]) == pytest.approx(record.slowdown,
                                                       abs=1e-6)
        assert int(row["migrations"]) == record.migrations


def test_write_summary_json(result, tmp_path):
    summary = summarize(result, 0.9)
    path = tmp_path / "summary.json"
    write_json({"runs": [summary.as_dict()]}, path)
    data = json.loads(path.read_text())
    assert len(data["runs"]) == 1
    run = data["runs"][0]
    assert run["algorithm"] == "defrag-perfect"
    assert run["mean_slowdown"] == pytest.approx(summary.mean_slowdown)


def test_no_leftover_temp_files(result, tmp_path):
    export_run(result, 0.9, tmp_path)
    assert not list(tmp_path.glob("*.tmp"))
