"""Flow-level network model: max-min fair rates and event plumbing.

Flows are modeled as fluid: each active flow gets the max-min fair share
along its path, recomputed whenever the active set changes. Completion
times therefore shift as flows come and go. Each flow carries its pending
completion time (ETA); a queued completion event is live only while it
still names that time, so superseded events are dropped when popped
rather than removed from the queue.

A recompute re-solves only the flows connected, through shared links, to
a link an add, remove or path change touched; every other flow keeps its
rate. Max-min rates decompose over connected components, so each touched
component is solved on its own. A fresh flow that every link of its path
carries alone is its own component and needs no search, and a link left
dirty that now carries no flow seeds none; only the other components are
found by a search over shared links. A lone flow's rate is the smallest
capacity on its path, which is what a solve of that one flow returns. A
component of two or more flows goes to ``maxmin_rates`` in insertion
order, so the bottleneck tie-break sees the same relative link order as
a solve of every live flow. Either way the
rates are bit-identical to a full solve. Every flow's ETA is still
recomputed with the same arithmetic, and only the flows whose ETA moved
need a new event.

Bits drain lazily: ``settle_to`` only records the clock step, and the
next recompute drains every live flow, one step at a time at the rate
it had during the steps, with the arithmetic an eager drain at each step
would use. The touched flows drain before the re-solve replaces their
rates; every other flow drains in the pass that derives its ETA. So a
recompute walks the live flows once, and ``remaining_bits`` is
bit-identical to an eager drain at every recompute. A removed flow is
never drained.

Links are dense int ids (``ClusterTopology`` assigns them), so a path is
a tuple of ints and capacities are one list indexed by link id. Every
path crosses at least one link: the paths come from
``topology.path_between``, which rejects intra-host pairs, so every rate
the network solves is finite and positive and every flow has an ETA.
``maxmin_rates`` itself still accepts an empty path.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import attrgetter
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
    """Time-ordered queue with a kind rank for same-time ordering, then a
    caller-chosen ``tie`` and the insertion sequence number as the final
    deterministic tie-breaks. The simulator passes a flow's insertion
    serial as ``tie``, so completions due at the same time pop in flow
    insertion order whenever each was pushed. ``heap[0][0]`` is the next
    event's time; read it, but change the heap only through ``push`` and
    ``pop``."""

    def __init__(self):
        # (time, rank, tie, seq, payload); seq is unique, so payloads
        # are never compared
        self.heap: list[tuple[float, int, int, int, object]] = []
        self._seq = 0

    def push(self, time: float, rank: int, payload, tie: int = 0) -> None:
        heapq.heappush(self.heap, (time, rank, tie, self._seq, payload))
        self._seq += 1

    def pop(self) -> tuple[float, int, object]:
        time, rank, _, _, payload = heapq.heappop(self.heap)
        return time, rank, payload


# -- flow bookkeeping --------------------------------------------------------


@dataclass(eq=False, slots=True)
class Flow:
    key: Hashable
    path: tuple[int, ...]
    remaining_bits: float
    serial: int  # insertion order: solves and same-time events follow it
    rate: float = 0.0
    eta: float = math.inf  # pending completion time; inf while none
    tag: object = None  # the owner's data, kept and never read here


_serial = attrgetter("serial")


class FlowNetwork:
    """Tracks active flows and their max-min rates over simulated time.

    ``capacities[link]`` is the capacity of int link id ``link``; flow
    paths are tuples of those ids. The owner drives the clock:
    ``settle_to`` records a step that the next ``recompute`` drains at
    the rates in force during it; ``add_flow``,
    ``remove_flow`` and ``set_path`` (the only way to change a live
    flow's path) mark the flows they place fresh and the links they leave
    dirty; ``recompute`` re-solves each connected component of the flows
    reached from a fresh flow or a dirty link on its own, a lone flow in
    closed form and a larger component in insertion order, and returns
    the flows whose ETA moved. A fresh flow alone on every link of its
    path is taken as its own component without a search, and an empty
    dirty link is skipped. A flow's queued completion event is live
    while ``flow.eta`` still equals its time.
    """

    def __init__(self, capacities: Sequence[float]):
        self.capacities = capacities
        self.flows: dict[Hashable, Flow] = {}
        self.time = 0.0
        self._serial = 0
        self._on_link: list[set[Flow]] = [set() for _ in capacities]
        self._dirty: set[int] = set()  # links left since the last solve
        self._fresh: list[Flow] = []  # flows added or re-pathed since then
        self._steps: list[float] = []  # clock steps not yet drained

    def add_flow(self, key: Hashable, path: Iterable[int],
                 size_bytes: float, tag: object = None) -> Flow:
        if key in self.flows:
            raise ValueError(f"duplicate flow key {key!r}")
        flow = Flow(key, tuple(path), size_bytes * 8.0, self._serial,
                    tag=tag)
        self._serial += 1
        self.flows[key] = flow
        self._attach(flow)
        return flow

    def remove_flow(self, key: Hashable) -> Flow:
        flow = self.flows.pop(key)
        self._detach(flow)
        return flow

    def set_path(self, key: Hashable, path: Iterable[int]) -> None:
        """Move a live flow onto ``path``."""
        flow = self.flows[key]
        self._detach(flow)
        flow.path = tuple(path)
        self._attach(flow)

    def _attach(self, flow: Flow) -> None:
        for link in flow.path:
            self._on_link[link].add(flow)
        self._fresh.append(flow)

    def _detach(self, flow: Flow) -> None:
        for link in flow.path:
            self._on_link[link].discard(flow)
        self._dirty.update(flow.path)

    def settle_to(self, time: float) -> None:
        """Advance the clock. The step is recorded, not drained: the
        next ``recompute`` drains it at the rates in force until then."""
        dt = time - self.time
        if dt < -1e-9:
            raise ValueError(f"time went backwards: {self.time} -> {time}")
        if dt > 0:
            self._steps.append(dt)
        self.time = max(self.time, time)

    def _touched(self) -> tuple[list[list[Flow]], set[Flow]]:
        """The connected components of the live flows linked to a fresh
        flow or a dirty link, and the set of all their flows; clears both
        marks. A fresh flow that every link of its path carries alone is
        its own component, with no search; an emptied dirty link is
        skipped. Otherwise one search per seed not reached by an earlier
        one, so no two components share a link."""
        flows = self.flows
        on_link = self._on_link
        found: set[Flow] = set()
        seen: set[int] = set()
        components = []
        for flow in self._fresh:
            if flow in found or flows.get(flow.key) is not flow:
                continue
            found.add(flow)
            path = flow.path
            for link in path:
                if len(on_link[link]) != 1:
                    components.append(
                        self._component([flow], list(path), found, seen))
                    break
            else:
                seen.update(path)
                components.append([flow])
        for link in self._dirty:
            # a flow found above has all its links seen, so a link that
            # is unseen and not empty seeds a new, non-empty component
            if link not in seen and on_link[link]:
                components.append(self._component([], [link], found, seen))
        self._dirty.clear()
        self._fresh.clear()
        return components, found

    def _component(self, component: list[Flow], todo: list[int],
                   found: set[Flow], seen: set[int]) -> list[Flow]:
        """Grow ``component`` by every flow reachable from the links in
        ``todo`` through shared links; marks what it reaches."""
        on_link = self._on_link
        while todo:
            link = todo.pop()
            if link in seen:
                continue
            seen.add(link)
            for flow in on_link[link]:
                if flow not in found:
                    found.add(flow)
                    component.append(flow)
                    todo.extend(flow.path)
        return component

    def recompute(self) -> list[tuple[float, Hashable, int]]:
        """Drain the recorded clock steps, re-solve each touched
        component and return (eta, key, serial), in insertion order, for
        every flow whose ETA moved: each needs a completion event.

        A lone flow's rate is its path's smallest capacity, as
        ``maxmin_rates`` would give it; a larger component is solved by
        ``maxmin_rates`` in insertion order."""
        components, touched = self._touched()
        steps = self._steps
        capacity = self.capacities.__getitem__
        for component in components:
            if steps:
                for flow in component:
                    # max(0, bits - rate * dt) per step, as an eager drain
                    # at each step, at the rate the solve is about to
                    # replace; a fresh flow's 0.0 has nothing to drain
                    rate = flow.rate
                    if rate:
                        remaining = flow.remaining_bits
                        for dt in steps:
                            remaining -= rate * dt
                            remaining = remaining if remaining > 0.0 else 0.0
                        flow.remaining_bits = remaining
            if len(component) == 1:
                flow = component[0]
                flow.rate = min(map(capacity, flow.path))
            else:
                component.sort(key=_serial)
                rates = maxmin_rates([flow.path for flow in component],
                                     self.capacities)
                for flow, rate in zip(component, rates):
                    flow.rate = rate
        # the flows the solves kept drain as above, here; one step (the
        # common case) without the loop
        step = steps[0] if len(steps) == 1 else None
        moved = []
        now = self.time
        for flow in self.flows.values():
            rate = flow.rate
            remaining = flow.remaining_bits
            if steps and flow not in touched:
                if step is not None:
                    remaining -= rate * step
                    remaining = remaining if remaining > 0.0 else 0.0
                else:
                    for dt in steps:
                        remaining -= rate * dt
                        remaining = remaining if remaining > 0.0 else 0.0
                flow.remaining_bits = remaining
            eta = now + remaining / rate
            if eta != flow.eta:
                flow.eta = eta
                moved.append((eta, flow.key, flow.serial))
        steps.clear()
        return moved

    def link_loads(self) -> list[float]:
        """Carried rate per link id."""
        loads = [0.0] * len(self.capacities)
        for flow in self.flows.values():
            for link in flow.path:
                loads[link] += flow.rate
        return loads

    def check_rates(self) -> None:
        """Audit the incremental rates against one solve of every live
        flow in insertion order; they must be equal, not just close."""
        flows = list(self.flows.values())
        full = maxmin_rates([flow.path for flow in flows], self.capacities)
        for flow, rate in zip(flows, full):
            if flow.rate != rate:
                raise AssertionError(
                    f"flow {flow.key!r}: incremental rate {flow.rate} "
                    f"!= full solve {rate}")

    def check_conservation(self, rel_tol: float = 1e-9) -> None:
        """Audit the paths and capacities ``recompute`` solves over."""
        flows = self.flows.values()
        conservation_check([f.path for f in flows], self.capacities,
                           [f.rate for f in flows], rel_tol)
