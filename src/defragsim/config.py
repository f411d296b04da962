"""Experiment configuration: YAML ingestion with strict validation.

The file mirrors the module configs: a topology block, a trace block
(load levels, job counts, seeds, model menu), the algorithm list, the
controller block, and an output directory. Each block is a dataclass
whose fields are the allowed keys, whose annotations are the types and
whose defaults are the defaults; one reader checks a mapping against
it. Unknown keys anywhere are rejected so typos fail loudly instead of
silently running defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, is_dataclass, replace
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import yaml

from .controller import ControllerConfig
from .metrics import cell_name
from .simulate import ALGORITHMS
from .topology import ClusterTopology, oversubscription
from .workload import (
    DEFAULT_TEMPLATES, ModelTemplate, TraceConfig, check_menu,
)


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


@dataclass
class TopologyBlock:
    racks: int = 4
    hosts_per_rack: int = 4
    gpus_per_host: int = 8
    uplinks_per_tor: int = 4
    nic_bandwidth_gbps: float = 400.0
    uplink_bandwidth_gbps: float = 400.0

    def build(self) -> ClusterTopology:
        return ClusterTopology(
            self.racks, self.hosts_per_rack, self.gpus_per_host,
            self.uplinks_per_tor, self.nic_bandwidth_gbps * 1e9,
            self.uplink_bandwidth_gbps * 1e9)


@dataclass
class TraceBlock:
    loads: list[float] = field(default_factory=lambda: [0.9])
    num_jobs: int = 100
    base_seed: int = 0
    num_seeds: int = 1
    templates: list[str] | None = None  # names from the default menu
    # the menu's defaults are TraceConfig's
    max_workers: int = TraceConfig.max_workers
    pp_choices: list[int] = field(
        default_factory=lambda: list(TraceConfig.pp_choices))
    size_choices: list[int] = field(
        default_factory=lambda: list(TraceConfig.size_choices))
    iterations_min: int = TraceConfig.iterations_min
    iterations_max: int = TraceConfig.iterations_max

    def menu(self) -> tuple[ModelTemplate, ...]:
        if self.templates is None:
            return DEFAULT_TEMPLATES
        by_name = {t.name: t for t in DEFAULT_TEMPLATES}
        missing = [n for n in self.templates if n not in by_name]
        if missing:
            raise ConfigError(
                f"unknown model template(s): {', '.join(missing)}; "
                f"available: {', '.join(sorted(by_name))}")
        return tuple(by_name[n] for n in self.templates)

    def trace_config(self) -> TraceConfig:
        return TraceConfig(
            templates=self.menu(),
            max_workers=self.max_workers,
            pp_choices=tuple(self.pp_choices),
            iterations_min=self.iterations_min,
            iterations_max=self.iterations_max,
            size_choices=tuple(self.size_choices))


# each sweep axis, a SweepBlock field: the config block it replaces, and
# that block with the axis's field set from one value
SWEEP_AXES = {
    "load": ("trace", lambda trace, v: replace(trace, loads=[v])),
    "oversubscription": ("topology", lambda topo, v: replace(
        topo, uplink_bandwidth_gbps=oversubscription(
            topo.hosts_per_rack * topo.gpus_per_host,
            topo.nic_bandwidth_gbps, topo.uplinks_per_tor, v))),
    "threshold": ("controller", lambda ctl, v: replace(ctl, threshold=v)),
}


@dataclass
class SweepBlock:
    load: list[float] = field(default_factory=list)
    oversubscription: list[float] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)

    def axis_values(self, axis: str) -> list[float]:
        if axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}; "
                              "expected load, oversubscription or threshold")
        values = getattr(self, axis)
        if not values:
            raise ConfigError(f"sweep axis {axis!r} has no values listed "
                              "in the config")
        return values


@dataclass
class ExperimentConfig:
    topology: TopologyBlock = field(default_factory=TopologyBlock)
    trace: TraceBlock = field(default_factory=TraceBlock)
    algorithms: list[str] = field(
        default_factory=lambda: ["defrag-perfect", "perfect", "sglb",
                                 "crux", "ecmp"])
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    sweep: SweepBlock = field(default_factory=SweepBlock)
    output_dir: str = "results"

    def __post_init__(self):
        """Reject a value no run can use; ``dataclasses.replace`` re-checks."""
        trace, sweep, ctl = self.trace, self.sweep, self.controller
        if not trace.loads:
            raise ConfigError("trace.loads must list at least one load level")
        if trace.num_seeds < 1:
            raise ConfigError("trace.num_seeds must be at least 1")
        if trace.num_jobs < 1:
            raise ConfigError("trace.num_jobs must be at least 1")
        for where, values, positive in (
                ("trace.loads", trace.loads, True),
                ("sweep.load", sweep.load, True),
                ("sweep.oversubscription", sweep.oversubscription, True),
                ("sweep.threshold", sweep.threshold, False)):
            if positive and any(v <= 0 for v in values):
                raise ConfigError(f"{where} must be positive, got {values}")
            if any(v < 0 for v in values):
                raise ConfigError(f"{where} must not be negative, "
                                  f"got {values}")
            _check_unique(values, where, cell_name)
        if ctl.threshold is not None and ctl.threshold < 0:
            raise ConfigError(f"controller.threshold must not be negative, "
                              f"got {ctl.threshold}")
        if ctl.max_moves is not None and ctl.max_moves < 1:
            raise ConfigError(f"controller.max_moves must be at least 1 or "
                              f"null, got {ctl.max_moves}")
        if ctl.solver_time_limit <= 0:
            raise ConfigError("controller.solver_time_limit must be positive, "
                              f"got {ctl.solver_time_limit}")
        if not self.algorithms:
            raise ConfigError("algorithms must be a non-empty list of names")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ConfigError(
                f"unknown algorithm(s): {', '.join(unknown)}; "
                f"available: {', '.join(ALGORITHMS)}")
        _check_unique(self.algorithms, "algorithms")
        menu = trace.trace_config()  # fails on unknown template names
        try:
            check_menu(menu, self.topology.build())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def sweep_cell(self, axis: str, value: float) -> ExperimentConfig:
        """A copy whose ``axis`` field is ``value``; an oversubscription
        rescales the uplink bandwidth at the configured uplink count."""
        name, with_value = SWEEP_AXES[axis]
        return replace(self, **{name: with_value(getattr(self, name), value)})


@cache
def _field_types(cls) -> dict[str, object]:
    """A block's keys and their annotations, resolved once per class."""
    return get_type_hints(cls)


def _read_block(cls, data, where: str):
    """Build the block dataclass ``cls`` from a mapping, checking every
    key against its fields; missing keys take the field's default. A
    null block (a YAML key with nothing under it) is an empty one."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'config'} must be a mapping, "
                          f"got {data!r}")
    types = _field_types(cls)
    unknown = sorted(str(k) for k in data if k not in types)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where or 'config'}: {', '.join(unknown)}")
    return cls(**{key: _read_value(value, types[key],
                                   f"{where}.{key}" if where else key)
                  for key, value in data.items()})


def _read_value(value, kind, where: str):
    """Check ``value`` against the annotation ``kind``: ``X | None``
    admits null, ``list[X]`` is checked element by element, a dataclass
    is a nested block. A float setting stores an int as a float; list
    elements are kept as written."""
    if get_origin(kind) is UnionType:
        if value is None:
            return None
        kind, = (a for a in get_args(kind) if a is not NoneType)
    if is_dataclass(kind):
        return _read_block(kind, value, where)
    if get_origin(kind) is list:
        item, = get_args(kind)
        if not isinstance(value, list):
            raise ConfigError(
                f"{where} must be a list of {item.__name__}, got {value!r}")
        for i, v in enumerate(value):
            _check_scalar(v, item, f"{where}[{i}]")
        return value
    _check_scalar(value, kind, where)
    return float(value) if kind is float else value


def _check_scalar(value, kind: type, where: str) -> None:
    # bool is an int subclass, but no setting is a flag
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where} must be {kind.__name__}, got {value!r}")
    # NaN compares false, so it would pass every range check in
    # ExperimentConfig's checks; and no setting has a meaning at infinity
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _check_unique(values: list, where: str, name=str) -> None:
    """Reject a list two of whose values have one name."""
    first = {}
    for v in values:
        key = name(v)
        if key in first:
            if first[key] == v:
                raise ConfigError(f"{where} lists {v} more than once")
            raise ConfigError(f"{where} lists {first[key]} and {v}, which "
                              f"both name the output cell {key}")
        first[key] = v


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a parsed YAML mapping into an ExperimentConfig."""
    return _read_block(ExperimentConfig, data, "")


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a YAML experiment config file."""
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    return parse_config({} if data is None else data)
