"""Flow-level network model: max-min fair rates and event plumbing.

Flows are modeled as fluid: each active flow gets the max-min fair share
along its path, recomputed whenever the active set changes. Completion
times therefore shift as flows come and go; pending completion events
are invalidated with a generation counter rather than removed from the
queue.

Links are dense int ids (``ClusterTopology`` assigns them), so a path is
a tuple of ints and capacities are one list indexed by link id.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

# capacities[link]: a list indexed by int link id, or any mapping
Capacities = Mapping[Hashable, float] | Sequence[float]


def maxmin_rates(paths: Sequence[Sequence[Hashable]],
                 capacities: Capacities) -> list[float]:
    """Max-min fair rates by progressive filling.

    ``paths[i]`` is the sequence of capacity-constrained links flow i
    crosses, each at most once; a flow with an empty path is
    unconstrained (rate inf). Links may be any hashable that indexes
    ``capacities``: the simulator passes int link ids and a list.

    Repeatedly saturate the most contended link, freezing every flow on
    it at the fair share. The bottleneck comes from a heap keyed by
    (share, first-appearance index of the link), so ties break on
    first-appearance link order, exactly as a linear scan over the links
    in that order would; entries whose share has since changed are
    skipped when popped. Every flow frozen in one round subtracts the
    same share, so residuals do not depend on the order flows freeze in.
    """
    rates = [math.inf] * len(paths)
    slot_of: dict[Hashable, int] = {}  # link -> first-appearance index
    members: list[list[int]] = []  # slot -> flows crossing it
    slot_paths = []
    for i, path in enumerate(paths):
        slots = []
        for link in path:
            slot = slot_of.get(link)
            if slot is None:
                slot = slot_of[link] = len(members)
                members.append([i])
            else:
                members[slot].append(i)
            slots.append(slot)
        slot_paths.append(slots)
    residual = [float(capacities[link]) for link in slot_of]
    active = [len(flows) for flows in members]
    heap = [(residual[s] / active[s], s) for s in range(len(members))]
    heapq.heapify(heap)
    frozen = [False] * len(paths)

    while heap:
        share, best = heapq.heappop(heap)
        count = active[best]
        if not count or share != residual[best] / count:
            continue  # stale: the link saturated or its share moved
        if share == math.inf:
            break
        touched = set()
        for i in members[best]:
            if frozen[i]:
                continue
            frozen[i] = True
            rates[i] = share
            for slot in slot_paths[i]:
                active[slot] -= 1
                residual[slot] -= share
                touched.add(slot)
        for slot in touched:
            if active[slot]:
                heapq.heappush(heap, (residual[slot] / active[slot], slot))
    return rates


def conservation_check(paths: Sequence[Sequence[Hashable]],
                       capacities: Capacities,
                       rates: Sequence[float],
                       rel_tol: float = 1e-9) -> None:
    """Assert no link carries more than its capacity (within tolerance)."""
    load: dict[Hashable, float] = {}
    for path, rate in zip(paths, rates):
        for link in path:
            load[link] = load.get(link, 0.0) + rate
    for link, total in load.items():
        cap = capacities[link]
        if total > cap * (1 + rel_tol) + rel_tol:
            raise AssertionError(
                f"link {link} overloaded: {total} > {cap}")


# -- event queue ------------------------------------------------------------


class EventQueue:
    """Time-ordered queue with a kind rank for same-time ordering and an
    insertion sequence number as the final deterministic tie-break."""

    def __init__(self):
        # (time, rank, seq, payload); seq is unique, so payloads are
        # never compared
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0

    def push(self, time: float, rank: int, payload) -> None:
        heapq.heappush(self._heap, (time, rank, self._seq, payload))
        self._seq += 1

    def pop(self) -> tuple[float, int, object]:
        time, rank, _, payload = heapq.heappop(self._heap)
        return time, rank, payload

    def peek_time(self) -> float:
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


# -- flow bookkeeping --------------------------------------------------------


@dataclass
class Flow:
    key: Hashable
    path: tuple[int, ...]
    remaining_bits: float
    rate: float = 0.0


class FlowNetwork:
    """Tracks active flows and their max-min rates over simulated time.

    ``capacities[link]`` is the capacity of int link id ``link``; flow
    paths are tuples of those ids. The owner drives the clock:
    ``settle_to`` accrues progress at the current rates, mutations
    (``add_flow``/``remove_flow``, or assigning a flow's ``path``) mark
    the rate set stale, and ``recompute`` reassigns rates and returns
    fresh completion times. ``generation`` increments on every recompute
    so stale completion events can be recognized and dropped.
    """

    def __init__(self, capacities: Sequence[float]):
        self.capacities = capacities
        self.flows: dict[Hashable, Flow] = {}
        self.time = 0.0
        self.generation = 0

    def add_flow(self, key: Hashable, path: Iterable[int],
                 size_bytes: float) -> Flow:
        if key in self.flows:
            raise ValueError(f"duplicate flow key {key!r}")
        flow = Flow(key=key, path=tuple(path),
                    remaining_bits=size_bytes * 8.0)
        self.flows[key] = flow
        return flow

    def remove_flow(self, key: Hashable) -> Flow:
        return self.flows.pop(key)

    def settle_to(self, time: float) -> None:
        """Advance the clock, draining bits at the current rates."""
        dt = time - self.time
        if dt < -1e-9:
            raise ValueError(f"time went backwards: {self.time} -> {time}")
        if dt > 0:
            for flow in self.flows.values():
                if flow.rate > 0 and math.isfinite(flow.rate):
                    flow.remaining_bits = max(
                        0.0, flow.remaining_bits - flow.rate * dt)
        self.time = max(self.time, time)

    def recompute(self) -> list[tuple[float, Hashable, int]]:
        """Reassign max-min rates; return (eta, key, generation) for every
        flow whose completion time is now finite."""
        self.generation += 1
        flows = list(self.flows.values())
        rates = maxmin_rates([flow.path for flow in flows], self.capacities)
        completions = []
        for flow, rate in zip(flows, rates):
            flow.rate = rate
            if rate > 0 and math.isfinite(rate):
                eta = self.time + flow.remaining_bits / rate
                completions.append((eta, flow.key, self.generation))
            elif not flow.path:
                # unconstrained flow: done immediately
                flow.remaining_bits = 0.0
                completions.append((self.time, flow.key, self.generation))
        return completions

    def link_loads(self) -> list[float]:
        """Carried rate per link id, over flows with a finite rate."""
        loads = [0.0] * len(self.capacities)
        for flow in self.flows.values():
            if not math.isfinite(flow.rate):
                continue
            for link in flow.path:
                loads[link] += flow.rate
        return loads

    def check_conservation(self, rel_tol: float = 1e-9) -> None:
        """Audit the paths and capacities ``recompute`` solves over."""
        finite = [f for f in self.flows.values() if math.isfinite(f.rate)]
        conservation_check([f.path for f in finite], self.capacities,
                           [f.rate for f in finite], rel_tol)
