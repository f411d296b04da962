"""Two-tier spine-leaf cluster fabric.

Racks of multi-GPU hosts hang off ToR switches; every ToR connects to the
spine layer through a fixed number of uplinks. Only host NICs and ToR
uplinks are capacity-constrained; the switching fabrics themselves are
non-blocking. Intra-host traffic (NVLink) is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class Direction(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class GpuId:
    rack: int
    host: int
    slot: int


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterTopology:
    num_racks: int
    hosts_per_rack: int
    gpus_per_host: int
    uplinks_per_tor: int
    nic_bandwidth: float  # bits/second
    uplink_bandwidth: float  # bits/second
    num_spines: int

    def __post_init__(self):
        for name in ("num_racks", "hosts_per_rack", "gpus_per_host",
                     "uplinks_per_tor", "num_spines"):
            if getattr(self, name) < 1:
                raise TopologyError(f"{name} must be >= 1")
        if self.nic_bandwidth <= 0 or self.uplink_bandwidth <= 0:
            raise TopologyError("bandwidths must be positive")
        if (self.uplinks_per_tor % self.num_spines != 0
                and self.num_spines != self.uplinks_per_tor):
            raise TopologyError(
                "uplinks_per_tor must be a multiple of num_spines")

    @property
    def total_gpus(self) -> int:
        return self.num_racks * self.hosts_per_rack * self.gpus_per_host

    @property
    def gpus_per_rack(self) -> int:
        return self.hosts_per_rack * self.gpus_per_host

    @property
    def oversubscription_ratio(self) -> float:
        return (self.hosts_per_rack * self.gpus_per_host * self.nic_bandwidth
                ) / (self.uplinks_per_tor * self.uplink_bandwidth)

    # -- link index ----------------------------------------------------------
    #
    # Every capacity-constrained link direction has a dense int id, so the
    # flow core can index plain lists. Ids 0 .. uplink_base - 1 are host
    # NICs, two per GPU (up, down) in global NIC order. From uplink_base on,
    # each rack owns uplinks_per_tor + 1 slots of two directions each: its
    # physical uplinks, then the fluid spray aggregate of all of them.

    @property
    def uplink_base(self) -> int:
        """Id of the first ToR-side link; every id at or above it is one."""
        return 2 * self.total_gpus

    def nic_link(self, gpu: GpuId, direction: Direction) -> int:
        nic = (gpu.rack * self.hosts_per_rack + gpu.host) \
            * self.gpus_per_host + gpu.slot
        return 2 * nic + (direction is Direction.DOWN)

    def uplink_link(self, rack: int, uplink: int,
                    direction: Direction) -> int:
        if not 0 <= uplink < self.uplinks_per_tor:
            raise TopologyError(f"uplink index {uplink} out of range")
        return self._tor_link(rack, uplink, direction)

    def spray_link(self, rack: int, direction: Direction) -> int:
        """The fluid aggregate of every uplink on the rack's ToR."""
        return self._tor_link(rack, self.uplinks_per_tor, direction)

    def _tor_link(self, rack: int, slot: int, direction: Direction) -> int:
        return self.uplink_base + 2 * (
            rack * (self.uplinks_per_tor + 1) + slot) \
            + (direction is Direction.DOWN)

    @cached_property
    def link_capacities(self) -> list[float]:
        """Capacity in bits/second of every link id."""
        tor = ([self.uplink_bandwidth] * (2 * self.uplinks_per_tor)
               + [self.uplink_bandwidth * self.uplinks_per_tor] * 2)
        return [self.nic_bandwidth] * self.uplink_base + tor * self.num_racks


def make_two_tier(racks: int, hosts_per_rack: int, gpus_per_host: int,
                  uplinks: int, nic_bw: float, uplink_bw: float,
                  spines: int) -> ClusterTopology:
    """Build a two-tier topology, validating all counts."""
    return ClusterTopology(
        num_racks=racks,
        hosts_per_rack=hosts_per_rack,
        gpus_per_host=gpus_per_host,
        uplinks_per_tor=uplinks,
        nic_bandwidth=nic_bw,
        uplink_bandwidth=uplink_bw,
        num_spines=spines,
    )


def path_between(topology: ClusterTopology, src: GpuId, dst: GpuId,
                 chosen_uplink_src: int = 0,
                 chosen_uplink_dst: int = 0) -> list[int]:
    """Return the ids of the capacity-constrained links from src to dst.

    Same host: empty path (intra-host interconnect is out of model).
    Same rack: src NIC up, dst NIC down.
    Cross rack: src NIC up, src-ToR uplink up, dst-ToR uplink down,
    dst NIC down. The uplink choice on each side is the caller's routing
    decision.
    """
    if src == dst:
        raise TopologyError("src and dst must differ")
    if src.rack == dst.rack and src.host == dst.host:
        return []
    if src.rack == dst.rack:
        return [
            topology.nic_link(src, Direction.UP),
            topology.nic_link(dst, Direction.DOWN),
        ]
    return [
        topology.nic_link(src, Direction.UP),
        topology.uplink_link(src.rack, chosen_uplink_src, Direction.UP),
        topology.uplink_link(dst.rack, chosen_uplink_dst, Direction.DOWN),
        topology.nic_link(dst, Direction.DOWN),
    ]
