"""Two-tier spine-leaf cluster fabric.

Racks of multi-GPU hosts hang off ToR switches; every ToR connects to the
spine layer through a fixed number of uplinks. Only host NICs and ToR
uplinks are capacity-constrained; the switching fabrics themselves are
non-blocking. Intra-host traffic (NVLink) is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


# The routing colour of a flow split fluidly across every uplink of its
# ToRs, as packet spraying does.
SPRAY_COLOR = -1


@dataclass(frozen=True)
class GpuId:
    rack: int
    host: int
    slot: int


class TopologyError(ValueError):
    pass


def oversubscription(gpus_per_rack: int, nic_bandwidth: float,
                     uplinks_per_tor: int, uplink_bandwidth: float) -> float:
    """A rack's aggregate NIC capacity over its uplink capacity. Its own
    inverse: given a ratio as ``uplink_bandwidth``, it returns the uplink
    bandwidth, in ``nic_bandwidth``'s unit, that gives the rack that ratio."""
    return gpus_per_rack * nic_bandwidth / (uplinks_per_tor * uplink_bandwidth)


@dataclass(frozen=True)
class ClusterTopology:
    num_racks: int
    hosts_per_rack: int
    gpus_per_host: int
    uplinks_per_tor: int
    nic_bandwidth: float  # bits/second
    uplink_bandwidth: float  # bits/second

    def __post_init__(self):
        for name in ("num_racks", "hosts_per_rack", "gpus_per_host",
                     "uplinks_per_tor"):
            if getattr(self, name) < 1:
                raise TopologyError(f"{name} must be >= 1")
        if self.nic_bandwidth <= 0 or self.uplink_bandwidth <= 0:
            raise TopologyError("bandwidths must be positive")

    @property
    def total_gpus(self) -> int:
        return self.num_racks * self.hosts_per_rack * self.gpus_per_host

    @property
    def gpus_per_rack(self) -> int:
        return self.hosts_per_rack * self.gpus_per_host

    @property
    def oversubscription_ratio(self) -> float:
        return oversubscription(self.gpus_per_rack, self.nic_bandwidth,
                                self.uplinks_per_tor, self.uplink_bandwidth)

    # -- GPU ids -------------------------------------------------------------

    @cached_property
    def gpus(self) -> list[GpuId]:
        """One interned id per GPU, in global NIC order."""
        return [GpuId(r, h, s) for r in range(self.num_racks)
                for h in range(self.hosts_per_rack)
                for s in range(self.gpus_per_host)]

    def gpu(self, rack: int, host: int, slot: int) -> GpuId:
        """The interned id of a GPU slot."""
        return self.gpus[(rack * self.hosts_per_rack + host)
                         * self.gpus_per_host + slot]

    # -- link index ----------------------------------------------------------
    #
    # Every capacity-constrained link direction has a dense int id, so the
    # flow core can index plain lists; ``path_between`` alone turns GPUs
    # and colours into ids. Ids 0 .. uplink_base - 1 are host NICs, two
    # per GPU (up, down) in global NIC order. From uplink_base on, each
    # rack owns uplinks_per_tor + 1 slots of two directions each: its
    # physical uplinks, then the fluid spray aggregate of all of them.

    @property
    def uplink_base(self) -> int:
        """Id of the first ToR-side link; every id at or above it is one."""
        return 2 * self.total_gpus

    @cached_property
    def link_capacities(self) -> list[float]:
        """Capacity in bits/second of every link id."""
        tor = ([self.uplink_bandwidth] * (2 * self.uplinks_per_tor)
               + [self.uplink_bandwidth * self.uplinks_per_tor] * 2)
        return [self.nic_bandwidth] * self.uplink_base + tor * self.num_racks


def path_between(topology: ClusterTopology, src: GpuId, dst: GpuId,
                 uplink: int | None = 0) -> tuple[int, ...]:
    """Return the ids of the capacity-constrained links from src to dst.

    Every path crosses at least one link. Intra-host traffic is out of
    model, so two GPUs of one host (or one GPU twice) raise
    ``TopologyError``.

    Same rack: src NIC up, dst NIC down; ``uplink`` is not read.
    Cross rack: src NIC up, src-ToR uplink up, dst-ToR uplink down,
    dst NIC down. ``uplink``, the caller's routing colour, is the uplink
    taken at both ToRs, or their spray aggregate for ``SPRAY_COLOR``.
    A NIC's id is 2 * nic + down, ``nic`` being the GPU's index in
    ``topology.gpus``; a ToR link's is uplink_base + 2 * (rack *
    (uplinks_per_tor + 1) + uplink) + down, the aggregate taking slot
    uplinks_per_tor.
    """
    gph, hosts = topology.gpus_per_host, topology.hosts_per_rack
    up = 2 * ((src.rack * hosts + src.host) * gph + src.slot)
    down = 2 * ((dst.rack * hosts + dst.host) * gph + dst.slot) + 1
    if src.rack == dst.rack:
        if src.host == dst.host:
            raise TopologyError(f"{src} and {dst} share a host: intra-host "
                                "traffic is out of model")
        return (up, down)
    uplinks = topology.uplinks_per_tor
    if uplink == SPRAY_COLOR:
        uplink = uplinks
    elif not 0 <= uplink < uplinks:
        raise TopologyError(f"uplink index {uplink} out of range")
    tor = topology.uplink_base + 2 * uplink
    per_rack = 2 * (uplinks + 1)
    return (up, tor + per_rack * src.rack, tor + per_rack * dst.rack + 1,
            down)
