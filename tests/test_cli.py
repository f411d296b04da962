import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from defragsim import cli
from defragsim.cli import main
from defragsim.config import load_config
from defragsim.defrag import (
    InfeasibleError, MigrationPlan, SolverInstance, SolverJob, SolverStats,
    save_instance,
)
from defragsim.flowsim import FlowNetwork
from defragsim.metrics import cell_name
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


def run_files(out: Path) -> dict[str, object]:
    """Every file under ``out``, by relative path, as bytes; a solver CSV
    as its rows without the wall-clock solve_time column, the one value
    that differs between two runs of one config."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.startswith("solver_"):
            rows = list(csv.reader(io.StringIO(data.decode())))
            drop = rows[0].index("solve_time")
            data = [row[:drop] + row[drop + 1:] for row in rows]
        files[str(path.relative_to(out))] = data
    return files


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
    runs = []
    for name, flags in (("plain", []), ("audited", ["--check-invariants"]),
                        ("dumped", ["--events", str(tmp_path / "events")])):
        audits.clear()
        out = tmp_path / name
        assert main(["run", str(QUICK_CONFIG), "--out", str(out)]
                    + flags) == 0
        assert bool(audits) == (name == "audited")
        runs.append(run_files(out))
    assert "summary.json" in runs[0] and len(runs[0]) == 7
    assert runs[0] == runs[1] == runs[2]


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


# an override passes the checks a config file does
@pytest.mark.parametrize("flags, message", [
    (["--algorithms", ""], "algorithms must be a non-empty list of names"),
    (["--algorithms", "magic"], "unknown algorithm(s): magic"),
    (["--algorithms", "ecmp,ecmp"], "algorithms lists ecmp more than once"),
    (["--seeds", "0"], "trace.num_seeds must be at least 1"),
], ids=["empty", "unknown", "repeated", "no seeds"])
def test_run_refused_override_exits_2(config_file, tmp_path, capsys, flags,
                                      message):
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_unreadable_path_exits_2(tmp_path, capsys, command):
    # a directory where a config or instance file is expected
    assert main([command, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(tmp_path) in err


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


# values that differ past the sixth significant digit name one output
# cell ("load0.8", "sweep_threshold/1"), so the second run would
# overwrite the first
@pytest.mark.parametrize("old, new, message", [
    ("loads: [0.9]", "loads: [0.8000001, 0.8000002]",
     "trace.loads lists 0.8000001 and 0.8000002, which both name the "
     "output cell 0.8"),
    ("threshold: [2, 3]", "threshold: [1.0000001, 1.0000002]",
     "sweep.threshold lists 1.0000001 and 1.0000002, which both name the "
     "output cell 1"),
], ids=["trace.loads", "sweep.threshold"])
def test_config_with_values_naming_one_cell_exits_2(config_file, old, new,
                                                     message, capsys):
    config_file.write_text(CONFIG_YAML.replace(old, new))
    assert main(["validate", str(config_file)]) == 2
    assert message in capsys.readouterr().err


# a worker count below 1 is never drawn, but each draw of it is a retry
@pytest.mark.parametrize("sizes", ["[0, 8]", "[-8, 8]"])
def test_config_with_nonpositive_size_exits_2(config_file, sizes, capsys):
    config_file.write_text(CONFIG_YAML.replace("size_choices: [5, 6, 7, 8]",
                                               f"size_choices: {sizes}"))
    assert main(["validate", str(config_file)]) == 2
    assert "size_choices must be positive" in capsys.readouterr().err


def test_validate_prints_resolved_config(config_file, capsys):
    assert main(["validate", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    resolved = json.loads(out[:out.rindex("config OK")])
    assert resolved["trace"]["num_jobs"] == 12


def test_sweep_single_cell_matches_run(config_file, tmp_path):
    """Each value's directory is ``run``'s on the config file with that
    one field edited; oversubscription rescales the uplinks at the
    configured count (2 uplinks of 2 * 8 * 400 / (2 * value) Gb/s)."""
    yaml_text = CONFIG_YAML.replace(
        "  threshold: [2, 3]",
        "  threshold: [2, 3]\n  oversubscription: [1, 2.5, 4]")
    config_file.write_text(yaml_text)
    edits = {
        "load": lambda v: ("loads: [0.9]", f"loads: [{v!r}]"),
        "threshold": lambda v: ("solver_time_limit: 5.0",
                                f"solver_time_limit: 5.0\n  threshold: {v!r}"),
        "oversubscription": lambda v: (
            "uplink_bandwidth_gbps: 400",
            f"uplink_bandwidth_gbps: {2 * 8 * 400 / (2 * v)!r}"),
    }
    base = load_config(config_file)
    for axis, edit in edits.items():
        sweep_out = tmp_path / f"sweep_{axis}"
        assert main(["sweep", str(config_file), "--axis", axis,
                     "--out", str(sweep_out)]) == 0
        grid = json.loads((sweep_out / f"sweep_{axis}.json").read_text())
        values = [c["value"] for c in grid["cells"]]
        assert values == getattr(base.sweep, axis)
        for value, cell in zip(values, grid["cells"]):
            edited = tmp_path / f"{axis}_{value}.yaml"
            edited.write_text(yaml_text.replace(*edit(value)))
            run_out = tmp_path / f"run_{axis}_{value}"
            assert main(["run", str(edited), "--out", str(run_out)]) == 0
            cell_out = sweep_out / f"sweep_{axis}" / cell_name(value)
            assert run_files(cell_out) == run_files(run_out)
            assert cell["runs"] == json.loads(
                (run_out / "summary.json").read_text())["runs"]
    assert base == load_config(config_file)


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

    monkeypatch.setattr(cli, "_run_config", capture_cells)
    assert main(["sweep", str(config_file), "--axis", "oversubscription",
                 "--out", str(tmp_path)]) == 0
    assert len(cells) == 3
    for value, config in zip((1, 2.5, 4), cells, strict=True):
        assert config.topology.build().oversubscription_ratio \
            == pytest.approx(value)
        assert config.topology.uplinks_per_tor == 2


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


# Two racks of 1 and 4 slots at threshold 0; job 0's two units start
# split, so moving the one on rack 0 to rack 1 is the 1-move optimum.
BAD_PLAN_INSTANCE = SolverInstance(
    num_racks=2, capacities=(1, 4), threshold=0,
    jobs=(SolverJob(key=0, units=2),), initial=((1, 1),))


@pytest.mark.parametrize("target, move_count, fault", [
    (((1, 0),), 0, "does not place its 2 units"),
    (((2, 0),), 1, "over its capacity 1"),
    (((1, 1),), 0, "over the threshold 0"),
    (((0, 2),), 3, "move count 3, but the plan moves 1 workers"),
], ids=["row sum", "capacity", "threshold", "move count"])
def test_oracle_catches_invalid_plan(tmp_path, monkeypatch, capsys, target,
                                     move_count, fault):
    path = tmp_path / "instance.json"
    save_instance(BAD_PLAN_INSTANCE, path)

    def bad_solve(instance, time_limit=None, max_moves=None):
        # not claimed optimal, so the move count is not held to the
        # oracle's minimum
        return MigrationPlan(target, SolverStats(move_count, 0.0, 0, False))

    monkeypatch.setattr(cli, "solve", bad_solve)
    assert main(["oracle", str(path)]) == 3
    err = capsys.readouterr().err
    assert "INVALID PLAN" in err and fault in err


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
