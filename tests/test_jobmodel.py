import pytest

from defragsim.jobmodel import (
    CHECKPOINT_MULTIPLIER, JobPhase, JobRun, MigrationBatch,
    REINIT_SECONDS, WorkerMove, plan_iteration_flows, shard_bytes,
)
from tests.test_workload import make_job, place_on_racks


def test_shard_bytes_splits_parameters():
    job = make_job(workers=8, dp=2, tp=2, pp=2)
    assert shard_bytes(job) == pytest.approx(1e9 / 8 * CHECKPOINT_MULTIPLIER)


def test_reinit_floor_is_ten_seconds():
    assert REINIT_SECONDS == 10.0


def test_plan_flows_same_host_job_is_silent():
    job = make_job(job_id=1, workers=4, dp=4)
    placement = place_on_racks(job, [3, 3, 3, 3])  # one 8-GPU host
    assert plan_iteration_flows(job, placement.locate) == []


def test_plan_flows_two_rack_ring():
    job = make_job(job_id=1, workers=12, dp=12, dp_bytes=8e9)
    # rack 0 holds 10 workers (8 + 2 across two hosts), rack 1 holds 2
    placement = place_on_racks(job, [0] * 10 + [1] * 2)
    flows = plan_iteration_flows(job, placement.locate)
    cross = [f for f in flows if f.src.rack != f.dst.rack]
    intra = [f for f in flows if f.src.rack == f.dst.rack]
    assert len(cross) == 2  # one hop each way between the racks
    assert {(f.src.rack, f.dst.rack) for f in cross} == {(0, 1), (1, 0)}
    assert len(intra) == 1  # host boundary inside rack 0
    per_link = 2 * 8e9 * 11 / 12
    assert all(f.size_bytes == pytest.approx(per_link) for f in flows)
    assert all(f.kind == "dp" and f.job_id == 1 for f in flows)


def test_plan_flows_keys_stable_across_calls():
    job = make_job(job_id=1, workers=16, dp=16)
    placement = place_on_racks(job, [0] * 8 + [1] * 8)
    a = plan_iteration_flows(job, placement.locate)
    b = plan_iteration_flows(job, placement.locate)
    assert [f.key for f in a] == [f.key for f in b]


def test_plan_flows_pp_demands_are_mice():
    job = make_job(job_id=1, workers=4, dp=2, pp=2, pp_bytes=1e8)
    placement = place_on_racks(job, [0, 0, 1, 1])
    flows = plan_iteration_flows(job, placement.locate)
    pp = [f for f in flows if f.key[1] == "pp"]
    assert len(pp) == 2  # forward + backward across the stage boundary
    assert all(f.kind == "pp" for f in pp)
    assert all(f.size_bytes == 1e8 for f in pp)


def test_job_run_iteration_lifecycle():
    run = JobRun(job=make_job(iterations=2), start_time=0.0)
    assert run.phase is JobPhase.COMPUTE
    run.phase = JobPhase.COMM
    run.finish_iteration(now=3.0)
    assert run.phase is JobPhase.COMPUTE and run.iteration == 1
    run.phase = JobPhase.COMM
    run.finish_iteration(now=6.0)
    assert run.phase is JobPhase.DONE and run.iteration == 2


def test_job_run_barrier_and_resume():
    run = JobRun(job=make_job(iterations=5), start_time=0.0)
    run.phase = JobPhase.COMM
    run.finish_iteration(now=2.5, pause=True)
    assert run.phase is JobPhase.BARRIERED and run.paused_at == 2.5
    run.resume(now=14.0)
    assert run.phase is JobPhase.COMPUTE
    assert run.downtime == pytest.approx(11.5)


def test_migration_batch_bookkeeping():
    batch = MigrationBatch(
        batch_id=0,
        moves=[WorkerMove((7, 0), 1, 0), WorkerMove((9, 3), 2, 1)])
    assert batch.affected_jobs == {7, 9}
    # at its barrier until the transfers start
    assert batch.transfers is None and batch.pending_transfers == 0
