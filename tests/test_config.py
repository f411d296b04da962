import dataclasses
import math
from pathlib import Path

import pytest
import yaml

from defragsim.config import ConfigError, load_config, parse_config

ROOT = Path(__file__).resolve().parents[1]


def test_empty_config_uses_defaults():
    config = parse_config({})
    assert config.trace.loads == [0.9]
    assert config.controller.max_moves == 16
    assert "defrag-perfect" in config.algorithms


def test_round_numbers_coerced_to_float():
    config = parse_config({"controller": {"solver_time_limit": 5}})
    assert config.controller.solver_time_limit == 5.0


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"topologyy": {}})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"trace": {"n_jobs": 10}})


def test_wrong_type_rejected():
    with pytest.raises(ConfigError, match="must be int"):
        parse_config({"trace": {"num_jobs": "many"}})


@pytest.mark.parametrize("data", [
    {"topology": {"racks": True}},
    {"trace": {"num_jobs": True}},
    {"controller": {"max_moves": False}},
    {"trace": {"loads": [True]}},
    {"trace": {"pp_choices": [1.5]}},
    {"trace": {"size_choices": [10.5]}},
    {"topology": {"racks": None}},
    {"output_dir": None},
], ids=repr)
def test_mistyped_value_rejected(data):
    with pytest.raises(ConfigError, match="must be"):
        parse_config(data)


# On 64 GPUs: one worker cannot form a DP ring of two, and 128 do not fit.
@pytest.mark.parametrize("sizes, message", [
    ([1], "can never produce a job"), ([128], "no worker count")])
def test_menu_that_cannot_produce_a_job_rejected(sizes, message):
    with pytest.raises(ConfigError, match=message):
        parse_config({"topology": {"racks": 4, "hosts_per_rack": 2},
                      "trace": {"size_choices": sizes}})


# each would pass the reader but fail, or run nothing, once run
@pytest.mark.parametrize("data, message", [
    ({"trace": {"loads": [0.9, 0.0]}}, "trace.loads must be positive"),
    ({"trace": {"loads": [-0.5]}}, "trace.loads must be positive"),
    ({"sweep": {"load": [0.7, 0]}}, "sweep.load must be positive"),
    ({"sweep": {"oversubscription": [4, 0]}},
     "sweep.oversubscription must be positive"),
    ({"sweep": {"oversubscription": [-1]}},
     "sweep.oversubscription must be positive"),
    ({"trace": {"num_jobs": 0}}, "num_jobs must be at least 1"),
    ({"trace": {"num_jobs": -3}}, "num_jobs must be at least 1"),
    ({"trace": {"iterations_min": 0}}, "iterations_min must be at least 1"),
    ({"controller": {"threshold": -1}},
     "controller.threshold must not be negative"),
    ({"sweep": {"threshold": [-2]}}, "sweep.threshold must not be negative"),
    ({"controller": {"max_moves": 0}}, "max_moves must be at least 1"),
    ({"controller": {"solver_time_limit": -3}},
     "solver_time_limit must be positive"),
    ({"controller": {"solver_time_limit": 0}},
     "solver_time_limit must be positive"),
    # a repeated cell would overwrite the first one's outputs
    ({"algorithms": ["ecmp", "sglb", "ecmp"]},
     "algorithms lists ecmp more than once"),
    ({"trace": {"loads": [0.5, 0.9, 0.5]}},
     "trace.loads lists 0.5 more than once"),
    ({"trace": {"loads": [1, 1.0]}}, "trace.loads lists 1.0 more than once"),
    ({"sweep": {"load": [0.7, 0.7]}}, "sweep.load lists 0.7 more than once"),
    ({"sweep": {"oversubscription": [2, 4, 2]}},
     "sweep.oversubscription lists 2 more than once"),
    ({"sweep": {"threshold": [2, 2]}},
     "sweep.threshold lists 2 more than once"),
    # YAML's .nan and .inf: NaN passes every range check, and a NaN
    # arrival time never comes due, so the run would never end
    ({"trace": {"loads": [math.nan]}},
     r"trace.loads\[0\] must be a finite number"),
    ({"trace": {"loads": [0.9, math.inf]}},
     r"trace.loads\[1\] must be a finite number"),
    ({"controller": {"threshold": math.nan}},
     "controller.threshold must be a finite number"),
    ({"controller": {"solver_time_limit": math.nan}},
     "controller.solver_time_limit must be a finite number"),
    ({"controller": {"solver_time_limit": math.inf}},
     "controller.solver_time_limit must be a finite number"),
    ({"sweep": {"threshold": [-math.inf]}},
     r"sweep.threshold\[0\] must be a finite number"),
    ({"topology": {"nic_bandwidth_gbps": math.inf}},
     "topology.nic_bandwidth_gbps must be a finite number"),
], ids=repr)
def test_value_that_cannot_run_rejected(data, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(data)


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigError, match="unknown algorithm"):
        parse_config({"algorithms": ["perfect", "quantum"]})


def test_unknown_template_rejected():
    with pytest.raises(ConfigError, match="unknown model template"):
        parse_config({"trace": {"templates": ["gpt3-13b", "gpt9"]}})


def test_impossible_topology_rejected():
    with pytest.raises((ConfigError, ValueError)):
        parse_config({"topology": {"racks": 0}})


def test_max_moves_none_lifts_cap():
    config = parse_config({"controller": {"max_moves": None}})
    assert config.controller.max_moves is None


def test_threshold_defaults_to_uplinks():
    config = parse_config({"topology": {"uplinks_per_tor": 2}})
    assert config.controller.threshold is None  # resolved at run time


def test_topology_block_builds():
    config = parse_config({"topology": {
        "racks": 8, "hosts_per_rack": 4, "gpus_per_host": 8,
        "uplinks_per_tor": 2, "nic_bandwidth_gbps": 400,
        "uplink_bandwidth_gbps": 400}})
    topo = config.topology.build()
    assert topo.num_racks == 8
    assert topo.gpus_per_rack == 32
    assert topo.nic_bandwidth == pytest.approx(400e9)


def test_trace_block_menu_and_sizes():
    config = parse_config({"trace": {
        "templates": ["gpt3-7b", "gpt3-13b"],
        "size_choices": [10, 12, 16], "pp_choices": [1]}})
    cfg = config.trace.trace_config()
    assert tuple(t.name for t in cfg.templates) == ("gpt3-7b", "gpt3-13b")
    assert cfg.size_choices == (10, 12, 16)
    assert cfg.pp_choices == (1,)


def test_sweep_axis_values():
    config = parse_config({"sweep": {"load": [0.7, 0.9]}})
    assert config.sweep.axis_values("load") == [0.7, 0.9]
    with pytest.raises(ConfigError, match="no values"):
        config.sweep.axis_values("threshold")
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        config.sweep.axis_values("latency")


def test_load_config_yaml_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "topology:\n  racks: 4\n  uplinks_per_tor: 2\n"
        "trace:\n  num_jobs: 5\n  loads: [0.8]\n"
        "algorithms: [perfect, ecmp]\n"
        "output_dir: out\n")
    config = load_config(path)
    assert config.topology.racks == 4
    assert config.trace.num_jobs == 5
    assert config.algorithms == ["perfect", "ecmp"]
    assert config.output_dir == "out"


def test_load_config_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("topology: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(path)


def test_readme_configuration_block_lists_the_defaults():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Configuration"):]
    start = section.index("```yaml\n") + len("```yaml\n")
    block = yaml.safe_load(section[start:section.index("```", start)])
    assert block == dataclasses.asdict(parse_config({}))


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                         ids=lambda p: p.name)
def test_shipped_config_validates(path):
    load_config(path)


def test_threshold_zero_is_valid():
    config = parse_config({"controller": {"threshold": 0},
                           "sweep": {"threshold": [0, 2]}})
    assert config.controller.threshold == 0
