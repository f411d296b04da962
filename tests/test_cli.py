import hashlib
import json
from pathlib import Path

import pytest

from defragsim import cli
from defragsim.cli import main
from defragsim.defrag import (
    InfeasibleError, MigrationPlan, SolverInstance, SolverJob, SolverStats,
    save_instance,
)
from defragsim.flowsim import FlowNetwork
from defragsim.scheduler import Placement

QUICK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "quick.yaml"

CONFIG_YAML = """\
topology:
  racks: 4
  hosts_per_rack: 2
  gpus_per_host: 8
  uplinks_per_tor: 2
  nic_bandwidth_gbps: 400
  uplink_bandwidth_gbps: 400
trace:
  loads: [0.9]
  num_jobs: 12
  base_seed: 0
  num_seeds: 1
  templates: [gpt3-13b, gpt3-7b, gpt-oss-120b, gpt-oss-20b]
  pp_choices: [1]
  size_choices: [5, 6, 7, 8]
algorithms: [defrag-perfect, ecmp]
controller:
  solver_time_limit: 5.0
sweep:
  load: [0.9]
  threshold: [2, 3]
output_dir: results
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG_YAML)
    return path


def test_run_writes_outputs(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["runs"]) == 2  # one per algorithm
    algorithms = {r["algorithm"] for r in summary["runs"]}
    assert algorithms == {"defrag-perfect", "ecmp"}
    for run in summary["runs"]:
        tag = f"{run['algorithm']}_load0.9_seed0"
        assert (out / f"jobs_{tag}.csv").exists()
        assert (out / f"series_{tag}.csv").exists()
        assert (out / f"solver_{tag}.csv").exists()
    assert "wrote 2 run(s)" in capsys.readouterr().out


def test_run_algorithm_subset(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--algorithms", "ecmp",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [r["algorithm"] for r in summary["runs"]] == ["ecmp"]


def test_run_seed_override(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--algorithms", "ecmp",
                 "--seeds", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(r["seed"] for r in summary["runs"]) == [0, 1]


def test_run_check_invariants_audits_without_changing_runs(
        tmp_path, monkeypatch):
    audits = []
    real_check = FlowNetwork.check_conservation

    def counting_check(net, *args, **kwargs):
        audits.append(net)
        return real_check(net, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "check_conservation", counting_check)
    summaries = []
    for flags in ([], ["--check-invariants"]):
        out = tmp_path / ("audited" if flags else "plain")
        assert main(["run", str(QUICK_CONFIG), "--out", str(out)]
                    + flags) == 0
        summaries.append(json.loads((out / "summary.json").read_text()))
        assert bool(audits) == bool(flags)
    assert summaries[0] == summaries[1]


def test_run_writes_controller_outcomes(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(QUICK_CONFIG), "--algorithms",
                 "defrag-perfect,sglb", "--out", str(out)]) == 0
    runs = {r["algorithm"]: r["controller_outcomes"] for r in
            json.loads((out / "summary.json").read_text())["runs"]}
    keys = {"applied", "not_optimal", "infeasible", "budget", "timeout",
            "resolution"}
    assert set(runs["defrag-perfect"]) == set(runs["sglb"]) == keys
    assert runs["defrag-perfect"]["applied"] >= 1
    assert set(runs["sglb"].values()) == {0}


def test_run_events_dump_feeds_the_event_log_hash(tmp_path):
    args = ["run", str(QUICK_CONFIG), "--algorithms", "defrag-perfect,sglb"]
    plain, dumped, events = (tmp_path / name
                             for name in ("plain", "dumped", "events"))
    assert main(args + ["--out", str(plain)]) == 0
    assert main(args + ["--out", str(dumped), "--events", str(events)]) == 0
    runs = json.loads((dumped / "summary.json").read_text())["runs"]
    assert runs == json.loads((plain / "summary.json").read_text())["runs"]
    assert len(runs) == 2
    for run in runs:
        tag = f"{run['algorithm']}_load0.9_seed0"
        data = (events / f"events_{tag}.log").read_bytes()
        assert hashlib.blake2b(data, digest_size=16).hexdigest() \
            == run["event_log_hash"]
        lines = data.splitlines()
        assert lines and all(line.count(b"|") == 2 for line in lines)
        assert (dumped / f"jobs_{tag}.csv").read_text() \
            == (plain / f"jobs_{tag}.csv").read_text()


def test_run_unknown_algorithm_exits_2(config_file, capsys):
    assert main(["run", str(config_file), "--algorithms", "magic"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_run_repeated_algorithm_exits_2(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--algorithms", "ecmp,ecmp",
                 "--out", str(out)]) == 2
    assert "algorithms lists ecmp more than once" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("trace:\n  jobs: 10\n")
    assert main(["validate", str(path)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_config_with_zero_load_exits_2(config_file, command, capsys):
    config_file.write_text(CONFIG_YAML.replace("loads: [0.9]",
                                               "loads: [0.0]"))
    assert main([command, str(config_file)]) == 2
    assert "trace.loads must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_config_with_nan_load_exits_2(config_file, command, capsys):
    config_file.write_text(CONFIG_YAML.replace("loads: [0.9]",
                                               "loads: [.nan]"))
    assert main([command, str(config_file)]) == 2
    assert "trace.loads[0] must be a finite number" in (
        capsys.readouterr().err)


def test_validate_prints_resolved_config(config_file, capsys):
    assert main(["validate", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    resolved = json.loads(out[:out.rindex("config OK")])
    assert resolved["trace"]["num_jobs"] == 12


def test_sweep_single_cell_matches_run(config_file, tmp_path):
    run_out = tmp_path / "run"
    sweep_out = tmp_path / "sweep"
    assert main(["run", str(config_file), "--algorithms", "ecmp",
                 "--out", str(run_out)]) == 0
    assert main(["sweep", str(config_file), "--axis", "load",
                 "--out", str(sweep_out)]) == 0
    grid = json.loads((sweep_out / "sweep_load.json").read_text())
    assert len(grid["cells"]) == 1
    cell = grid["cells"][0]
    assert cell["value"] == 0.9
    direct = json.loads((run_out / "summary.json").read_text())["runs"][0]
    swept = next(r for r in cell["runs"] if r["algorithm"] == "ecmp")
    assert swept["event_log_hash"] == direct["event_log_hash"]
    assert swept["mean_slowdown"] == direct["mean_slowdown"]
    assert swept["controller_outcomes"] == direct["controller_outcomes"]


def test_sweep_check_invariants_audits_without_changing_cells(
        config_file, tmp_path, monkeypatch):
    audits = []
    real_check = Placement.check_slots

    def counting_check(placement):
        audits.append(placement)
        real_check(placement)

    monkeypatch.setattr(Placement, "check_slots", counting_check)
    grids = []
    for flags in ([], ["--check-invariants"]):
        out = tmp_path / ("audited" if flags else "plain")
        assert main(["sweep", str(config_file), "--axis", "load",
                     "--out", str(out)] + flags) == 0
        grids.append(json.loads((out / "sweep_load.json").read_text()))
        assert bool(audits) == bool(flags)
    assert [c["value"] for c in grids[1]["cells"]] == [0.9]
    assert grids[0] == grids[1]


def test_sweep_check_invariants_exits_3_on_slot_fault(config_file, tmp_path,
                                                      monkeypatch, capsys):
    real_unassign = Placement.unassign

    def unassign_leaving_bit(placement, worker):
        gpu = placement.locate(worker)
        real_unassign(placement, worker)
        placement._taken[gpu.rack][gpu.host] |= 1 << gpu.slot

    monkeypatch.setattr(Placement, "unassign", unassign_leaving_bit)
    assert main(["sweep", str(config_file), "--axis", "load",
                 "--out", str(tmp_path), "--check-invariants"]) == 3
    assert "taken" in capsys.readouterr().err


def test_sweep_threshold_axis(config_file, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", str(config_file), "--axis", "threshold",
                 "--out", str(out)]) == 0
    grid = json.loads((out / "sweep_threshold.json").read_text())
    assert [c["value"] for c in grid["cells"]] == [2, 3]


def test_sweep_oversubscription_axis(config_file, tmp_path, monkeypatch):
    """Each cell's uplinks are resized to the axis value's ratio; the
    uplink count stays as configured."""
    config_file.write_text(CONFIG_YAML.replace(
        "  threshold: [2, 3]", "  threshold: [2, 3]\n"
        "  oversubscription: [1, 2.5, 4]"))
    cells = []

    def capture_cells(config, out_dir, check_invariants=False,
                      events_dir=None):
        cells.append(config)
        out_dir.mkdir(parents=True)
        return []

    monkeypatch.setattr(cli, "_run_cells", capture_cells)
    assert main(["sweep", str(config_file), "--axis", "oversubscription",
                 "--out", str(tmp_path)]) == 0
    assert len(cells) == 3
    for value, config in zip((1, 2.5, 4), cells, strict=True):
        assert config.topology.build().oversubscription_ratio \
            == pytest.approx(value)
        assert config.topology.uplinks_per_tor == 2


def test_oracle_agrees_with_solver(tmp_path, capsys):
    instance = SolverInstance(
        num_racks=3, capacities=(8, 8, 8), threshold=2.0,
        jobs=(SolverJob(key=0, units=4), SolverJob(key=1, units=4),
              SolverJob(key=2, units=4)),
        initial=((2, 1, 1), (1, 2, 1), (1, 1, 2)))
    path = tmp_path / "instance.json"
    save_instance(instance, path)
    assert main(["oracle", str(path)]) == 0
    out = capsys.readouterr().out
    assert "oracle minimum moves" in out
    assert "MISMATCH" not in out


def frozen_overload_instance(tmp_path):
    # rack 0 is over the threshold from frozen load alone
    path = tmp_path / "infeasible.json"
    save_instance(SolverInstance(
        num_racks=3, capacities=(4, 4, 4), threshold=1,
        jobs=tuple(SolverJob(k, 2) for k in "abc"),
        initial=((0, 1, 1),) * 3, base_load=(2, 0, 0)), path)
    return path


def test_oracle_infeasible_instance_agrees(tmp_path, capsys):
    assert main(["oracle", str(frozen_overload_instance(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert "infeasible" in out and "solver agrees" in out


def test_oracle_catches_plan_for_infeasible_instance(tmp_path, monkeypatch,
                                                     capsys):
    path = frozen_overload_instance(tmp_path)

    def wrong_solve(instance, time_limit=None, max_moves=None):
        return MigrationPlan(instance.initial, SolverStats(0, 0.0, 0, True))

    monkeypatch.setattr(cli, "solve", wrong_solve)
    assert main(["oracle", str(path)]) == 3
    assert "MISMATCH" in capsys.readouterr().err


def test_oracle_catches_solver_infeasible_for_solvable_instance(
        tmp_path, monkeypatch, capsys):
    instance = SolverInstance(
        num_racks=2, capacities=(4, 4), threshold=0,
        jobs=(SolverJob(key=0, units=2),), initial=((1, 1),))
    path = tmp_path / "instance.json"
    save_instance(instance, path)

    def infeasible_solve(instance, time_limit=None, max_moves=None):
        raise InfeasibleError("no placement satisfies the threshold")

    monkeypatch.setattr(cli, "solve", infeasible_solve)
    assert main(["oracle", str(path)]) == 3
    captured = capsys.readouterr()
    assert "oracle minimum moves: 1" in captured.out
    assert "MISMATCH" in captured.err


@pytest.mark.parametrize("text", [
    '{"num_racks": 2}',
    "not json",
    # job 0's row holds 3 units, not its 4
    json.dumps({"num_racks": 2, "capacities": [4, 4], "threshold": 2,
                "jobs": [{"key": 0, "units": 4, "initial": [2, 1]}]}),
    json.dumps({"num_racks": 2, "capacities": [4, 4], "threshold": "x",
                "jobs": [{"key": 0, "units": 4, "initial": [2, 2]}]}),
    json.dumps({"num_racks": 2, "capacities": [4, "4"], "threshold": 2,
                "jobs": [{"key": 0, "units": 4, "initial": [2, 2]}]}),
    json.dumps({"num_racks": 2, "capacities": [4, 4], "threshold": 2,
                "jobs": [{"key": 0, "units": -1, "initial": [1, -2]}]}),
    json.dumps({"num_racks": 0, "capacities": [], "threshold": 1,
                "jobs": [{"key": 0, "units": 0, "initial": []}]}),
    json.dumps({"num_racks": 2, "capacities": [4, 4], "threshold": 2,
                "jobs": [{"key": 0, "units": 0, "initial": [0, 0]}]}),
    # json writes NaN for float("nan"), and reads it back
    json.dumps({"num_racks": 2, "capacities": [4, 4],
                "threshold": float("nan"),
                "jobs": [{"key": 0, "units": 4, "initial": [2, 2]}]}),
], ids=["no jobs", "not json", "row sum", "string threshold",
        "string capacity", "negative units", "no racks", "zero units",
        "nan threshold"])
def test_oracle_malformed_instance_exits_2(tmp_path, capsys, text):
    path = tmp_path / "instance.json"
    path.write_text(text)
    assert main(["oracle", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err
