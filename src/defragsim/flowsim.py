"""Flow-level network model: max-min fair rates and event plumbing.

Flows are modeled as fluid: each active flow gets the max-min fair share
along its path, recomputed whenever the active set changes. Completion
times therefore shift as flows come and go. Each flow carries its pending
completion time (ETA), and ``remove_flow`` sets it to inf; a queued
completion event holds its ``Flow`` and is live only while the flow's
ETA still names the event's time, so superseded events and events for a
removed flow are dropped when popped rather than removed from the queue.

Bits drain lazily: ``settle_to`` only records the clock step. A
recompute with nothing fresh, nothing dirty and one recorded step is
quiet: no rate can change, so one pass drains each live flow and derives
its ETA. Every other recompute makes three plain passes over the live
flows:

1. Drain. Every live flow drains each recorded step at the rate it held
   during it, with the arithmetic an eager drain at each step would use,
   so ``remaining_bits`` is bit-identical to an eager drain at every
   recompute. A fresh flow's rate of 0.0 drains nothing, and a removed
   flow is never drained.
2. Re-solve. Only the flows connected, through shared links, to a link
   an add, remove or path change touched are re-solved; every other flow
   keeps its rate. Max-min rates decompose over connected components, so
   each touched component is solved on its own. A fresh flow that every
   link of its path carries alone is its own component: it is rated
   where it is found, with no search, at its path's smallest capacity
   (what a solve of that one flow returns), worked out once, when the
   path is first checked. A link is marked dirty only if it still
   carries a flow once a flow leaves it, so an emptied link is never
   marked and removing a lone flow leaves nothing to walk; a dirty link
   emptied later seeds nothing. A recompute with nothing fresh and
   nothing dirty sets up no search at all. Every other component is
   found by a search over shared links and goes to ``maxmin_rates`` in
   insertion order, so the bottleneck tie-break sees the same relative
   link order as a solve of every live flow. Either way the rates are
   bit-identical to a full solve.
3. ETAs. Every live flow's ETA is derived from its bits and rate with
   the same arithmetic. Only the flows whose ETA moved need a new event;
   they are returned as their ``Flow`` records, in insertion order, and
   the event the owner queues holds the record itself.

The quiet pass is bit-identical to the three: no rate changes between
its drain and its ETA, every live rate is finite and positive (no flow
is fresh), so the drain's zero-rate guard would always pass, and
``_touched`` has no mark to act on.

Links are dense int ids (``ClusterTopology`` assigns them), so a path is
a tuple of ints and capacities are one list indexed by link id. Every
path crosses at least one link, and no link twice: ``add_flow`` and
``set_path`` refuse any other path, and the paths come from
``topology.path_between``, which rejects intra-host pairs. So every rate
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
    bottleneck: float  # the path's smallest capacity
    rate: float = 0.0
    # pending completion time; inf before the first recompute and once
    # removed, so no queued event names it
    eta: float = math.inf
    tag: object = None  # the owner's data, kept and never read here


_serial = attrgetter("serial")


class FlowNetwork:
    """Tracks active flows and their max-min rates over simulated time.

    ``capacities[link]`` is the capacity of int link id ``link``, fixed
    for the network's life; flow paths are tuples of those ids, each
    non-empty with no link twice. A path's smallest capacity is worked
    out once, when the path is first checked, and each flow on it keeps
    a copy as ``flow.bottleneck``. The owner drives the clock:
    ``settle_to`` records a step that the next ``recompute`` drains at
    the rates in force during it; ``add_flow``, ``remove_flow`` and
    ``set_path`` (the only way to change a live flow's path) mark the
    flows they place fresh and the links they leave dirty, an emptied
    link never. With no mark and one recorded step, ``recompute``
    drains each live flow and derives its ETA in one pass. Otherwise it
    makes three passes: it drains every live flow; it re-solves the
    connected components of the flows reached from a fresh flow or a
    dirty link, a fresh flow alone on every link of its path rated where
    it is found, every other component by ``maxmin_rates`` in insertion
    order; and it derives every ETA. Either way it returns the flows
    whose ETA moved. A dirty link emptied since it was marked is
    skipped. A flow's queued completion event is live while
    ``flow.eta`` still equals its time; ``remove_flow`` sets it to inf.
    """

    def __init__(self, capacities: Sequence[float]):
        self.capacities = capacities
        self.flows: dict[Hashable, Flow] = {}
        self.time = 0.0
        self._serial = 0
        self._on_link: list[set[Flow]] = [set() for _ in capacities]
        self._links = frozenset(range(len(capacities)))
        # path -> (the very tuple that passed, its smallest capacity); an
        # equal tuple of other ids (1.0 or True for 1) is checked afresh
        self._valid: dict[tuple[int, ...], tuple[tuple[int, ...], float]] = {}
        # links left since the last solve that still carry a flow
        self._dirty: set[int] = set()
        self._fresh: list[Flow] = []  # flows added or re-pathed since then
        self._steps: list[float] = []  # clock steps not yet drained

    def _check_path(self, path: tuple) -> tuple[tuple[int, ...], float]:
        """ValueError unless ``path`` is non-empty, names each link once
        and every link exists as an int; a path that passes is
        remembered with its smallest capacity, and both are returned."""
        if not path or any(type(link) is not int for link in path) \
                or len(self._links.intersection(path)) != len(path):
            raise ValueError(
                f"bad path {path!r}: a path names one or more of the "
                f"{len(self._links)} int link ids, each at most once")
        valid = self._valid[path] = (
            path, min(map(self.capacities.__getitem__, path)))
        return valid

    def add_flow(self, key: Hashable, path: Iterable[int],
                 size_bytes: float, tag: object = None) -> Flow:
        """Start flow ``key`` of ``size_bytes`` on ``path``. ValueError,
        with the network unchanged, for a live key, a bad path or a size
        that is not finite and at least 0."""
        if key in self.flows:
            raise ValueError(f"duplicate flow key {key!r}")
        path = tuple(path)
        valid = self._valid.get(path)
        if valid is None or valid[0] is not path:
            valid = self._check_path(path)
        if not 0.0 <= size_bytes < math.inf:
            raise ValueError(f"flow {key!r}: size {size_bytes!r} bytes is "
                             f"not finite and at least 0")
        flow = Flow(key, path, size_bytes * 8.0, self._serial, valid[1], 0.0,
                    math.inf, tag)
        self._serial += 1
        self.flows[key] = flow
        on_link = self._on_link
        for link in path:
            on_link[link].add(flow)
        self._fresh.append(flow)
        return flow

    def remove_flow(self, key: Hashable) -> Flow:
        """Take flow ``key`` off the network and return it, its ETA set
        to inf so that no completion event still queued for it is live.
        Each link it leaves is marked dirty only if it still carries a
        flow: an emptied link holds no rate to re-solve."""
        flow = self.flows.pop(key)
        flow.eta = math.inf
        on_link = self._on_link
        dirty = self._dirty
        for link in flow.path:
            others = on_link[link]
            others.discard(flow)
            if others:
                dirty.add(link)
        return flow

    def set_path(self, key: Hashable, path: Iterable[int]) -> None:
        """Move a live flow onto ``path``; on a bad path, ValueError with
        the flow left on its old one."""
        flow = self.flows[key]
        path = tuple(path)
        valid = self._valid.get(path)
        if valid is None or valid[0] is not path:
            valid = self._check_path(path)
        on_link = self._on_link
        dirty = self._dirty
        for link in flow.path:
            others = on_link[link]
            others.discard(flow)
            if others:
                dirty.add(link)
        flow.path = path
        flow.bottleneck = valid[1]
        for link in path:
            on_link[link].add(flow)
        self._fresh.append(flow)

    def settle_to(self, time: float) -> None:
        """Advance the clock. The step is recorded, not drained: the
        next ``recompute`` drains it at the rates in force until then."""
        dt = time - self.time
        if dt > 0:
            self._steps.append(dt)
            self.time = time
        elif dt < -1e-9:
            raise ValueError(f"time went backwards: {self.time} -> {time}")

    def _touched(self) -> list[list[Flow]]:
        """Rate the fresh flows that every link of their path carries
        alone, and return the other connected components of the live
        flows linked to a fresh flow or a dirty link, each to be solved;
        clears both marks. With neither mark there is nothing to do. A
        lone fresh flow gets its path's smallest capacity, kept since
        the path was checked, with no search; its links count as reached
        when some link is dirty (no search can reach a link one flow
        holds alone, so only a dirty seed could). A dirty link emptied
        since it was marked is skipped. Otherwise one search per seed not
        reached by an earlier one, so no two components share a link."""
        fresh, dirty = self._fresh, self._dirty
        if not fresh and not dirty:
            return []
        on_link = self._on_link
        found: set[Flow] = set()
        seen: set[int] = set()
        components = []
        for flow in fresh:
            path = flow.path
            # a live flow is on its path's links; a removed one is on none
            if flow in found or flow not in on_link[path[0]]:
                continue
            for link in path:
                if len(on_link[link]) != 1:
                    found.add(flow)
                    components.append(
                        self._component([flow], list(path), found, seen))
                    break
            else:
                # alone on its links, so only a dirty seed could reach it
                if dirty:
                    seen.update(path)
                flow.rate = flow.bottleneck
        for link in dirty:
            # a flow found above has all its links seen, so a link that
            # is unseen and not empty seeds a new, non-empty component
            if link not in seen and on_link[link]:
                components.append(self._component([], [link], found, seen))
        dirty.clear()
        fresh.clear()
        return components

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

    def recompute(self) -> list[Flow]:
        """Drain the recorded clock steps, re-solve the touched flows and
        return, in insertion order, every flow whose ETA moved: each
        needs a completion event.

        Three passes. First every live flow drains each step, at the rate
        it held during the steps, as max(0, bits - rate * dt): the
        arithmetic an eager drain at each step would use. Then the
        touched flows are re-solved: ``_touched`` rates a lone fresh
        flow, and every component it returns is solved by
        ``maxmin_rates`` in insertion order. Last every live flow's ETA
        is derived from its bits and rate. A quiet call, with nothing
        fresh, nothing dirty and one step, does the drain and the ETA in
        one pass with the same arithmetic: no rate moves in between,
        every rate is finite and positive, and ``_touched`` would return
        nothing."""
        flows = self.flows.values()
        steps = self._steps
        moved = []
        now = self.time
        if len(steps) == 1 and not self._fresh and not self._dirty:
            step = steps.pop()
            for flow in flows:
                rate = flow.rate
                remaining = flow.remaining_bits - rate * step
                remaining = remaining if remaining > 0.0 else 0.0
                flow.remaining_bits = remaining
                eta = now + remaining / rate
                if eta != flow.eta:
                    flow.eta = eta
                    moved.append(flow)
            return moved
        if len(steps) == 1:
            step = steps[0]
            for flow in flows:
                # a fresh flow's 0.0 has nothing to drain
                rate = flow.rate
                if rate:
                    remaining = flow.remaining_bits - rate * step
                    flow.remaining_bits = remaining if remaining > 0.0 else 0.0
        elif steps:
            for flow in flows:
                rate = flow.rate
                if rate:
                    remaining = flow.remaining_bits
                    for dt in steps:
                        remaining -= rate * dt
                        remaining = remaining if remaining > 0.0 else 0.0
                    flow.remaining_bits = remaining
        steps.clear()
        for component in self._touched():
            component.sort(key=_serial)
            rates = maxmin_rates([flow.path for flow in component],
                                 self.capacities)
            for flow, rate in zip(component, rates):
                flow.rate = rate
        for flow in flows:
            eta = now + flow.remaining_bits / flow.rate
            if eta != flow.eta:
                flow.eta = eta
                moved.append(flow)
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

    def check_progress(self) -> None:
        """Audit that no live flow has negative bits left or an ETA
        before the clock; run it after a ``recompute``."""
        now = self.time
        for flow in self.flows.values():
            if not flow.remaining_bits >= 0.0:
                raise AssertionError(
                    f"flow {flow.key!r}: {flow.remaining_bits} bits left")
            if not flow.eta >= now:
                raise AssertionError(
                    f"flow {flow.key!r}: ETA {flow.eta} before the clock "
                    f"{now}")
