"""Uplink selection strategies.

All strategies reduce to picking a color per flow, where color c means
uplink c at the source ToR and uplink c at the destination ToR (uplink i
on every ToR attaches to spine i mod num_spines, so one color describes
a consistent end-to-end path).

The headline scheme colors the bipartite ToR-to-ToR demand multigraph so
that no two elephant (DP) flows share a color at any ToR: pad the graph
to Delta-regular, then peel off Delta perfect matchings with
Hopcroft-Karp, one matching per color. When the demand degree exceeds
the physical uplink count, colors are collapsed onto uplinks round-robin.
Mice flows (pipeline traffic, migration checkpoints) are spread
round-robin and never consume DP colors.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Sequence

SPRAY_COLOR = -1  # fluid split across every uplink of the ToR


@dataclass(frozen=True)
class FlowDemand:
    key: tuple  # stable identity: (job_id, group/kind tag, src, dst, ...)
    job_id: int
    src_rack: int
    dst_rack: int
    kind: str = "dp"  # dp | pp | migration

    @property
    def is_elephant(self) -> bool:
        return self.kind == "dp"


@dataclass
class RoutingAssignment:
    colors: dict[tuple, int] = field(default_factory=dict)


# -- Hopcroft-Karp maximum bipartite matching -----------------------------

_INF = float("inf")


def hopcroft_karp(adjacency: dict[int, list[int]]) -> dict[int, int]:
    """Maximum matching of a bipartite graph given as left -> rights.

    Returns the left -> right matching pairs.
    """
    match_left: dict[int, int | None] = {u: None for u in adjacency}
    match_right: dict[int, int | None] = {}
    for rights in adjacency.values():
        for v in rights:
            match_right.setdefault(v, None)
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue = deque()
        for u in adjacency:
            if match_left[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w is None:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_right[v]
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in adjacency:
            if match_left[u] is None:
                dfs(u)
    return {u: v for u, v in match_left.items() if v is not None}


# -- bipartite multigraph edge coloring -----------------------------------


def edge_color(edges: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Properly color a bipartite multigraph with exactly Delta colors.

    ``edges`` are (left, right) pairs; the result maps each edge (by
    position) to a color in [0, Delta). Construction: pad with dummy
    vertices and edges until every vertex has degree Delta, then extract
    one perfect matching per color; a regular bipartite multigraph always
    has one.
    """
    if not edges:
        return [], 0
    left_deg: dict[int, int] = defaultdict(int)
    right_deg: dict[int, int] = defaultdict(int)
    for u, v in edges:
        left_deg[u] += 1
        right_deg[v] += 1
    delta = max(max(left_deg.values()), max(right_deg.values()))

    # pad to a Delta-regular multigraph over equal-size sides
    work: list[tuple[int, int, int | None]] = [
        (u, v, i) for i, (u, v) in enumerate(edges)]
    lefts = sorted(left_deg)
    rights = sorted(right_deg)
    total = max(len(lefts), len(rights))
    next_left = max(lefts) + 1
    next_right = max(rights) + 1
    while len(lefts) < total:
        lefts.append(next_left)
        left_deg[next_left] = 0
        next_left += 1
    while len(rights) < total:
        rights.append(next_right)
        right_deg[next_right] = 0
        next_right += 1
    deficient_left = deque(u for u in lefts for _ in
                           range(delta - left_deg[u]))
    deficient_right = deque(v for v in rights for _ in
                            range(delta - right_deg[v]))
    assert len(deficient_left) == len(deficient_right)
    while deficient_left:
        work.append((deficient_left.popleft(), deficient_right.popleft(),
                     None))

    colors = [0] * len(edges)
    remaining = work
    for color in range(delta):
        adjacency: dict[int, list[int]] = defaultdict(list)
        edge_lookup: dict[tuple[int, int], list[int]] = defaultdict(list)
        for idx, (u, v, _) in enumerate(remaining):
            adjacency[u].append(v)
            edge_lookup[(u, v)].append(idx)
        matching = hopcroft_karp(dict(adjacency))
        assert len(matching) == len(adjacency), \
            "regular bipartite multigraph must have a perfect matching"
        taken = set()
        for u, v in matching.items():
            idx = edge_lookup[(u, v)].pop()
            taken.add(idx)
            original = remaining[idx][2]
            if original is not None:
                colors[original] = color
        remaining = [e for i, e in enumerate(remaining) if i not in taken]
    assert not remaining
    return colors, delta


def check_proper_coloring(edges: Sequence[tuple[int, int]],
                          colors: Sequence[int]) -> bool:
    """Independent properness check: no color repeats at any vertex."""
    seen_left: set[tuple[int, int]] = set()
    seen_right: set[tuple[int, int]] = set()
    for (u, v), c in zip(edges, colors):
        if (u, c) in seen_left or (v, c) in seen_right:
            return False
        seen_left.add((u, c))
        seen_right.add((v, c))
    return True


# -- strategies ------------------------------------------------------------


def stable_hash(key: tuple) -> int:
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RoutingStrategy:
    """Recomputes the full color assignment for the active flow set."""

    name = "base"

    def assign(self, flows: Sequence[FlowDemand], uplinks: int,
               previous: RoutingAssignment | None = None,
               utilization: dict[int, float] | None = None
               ) -> RoutingAssignment:
        raise NotImplementedError


class PerfectRouting(RoutingStrategy):
    """Dedicated uplink per DP flow via bipartite edge coloring; mice
    flows round-robin across uplinks independently of DP colors."""

    name = "perfect"

    def assign(self, flows, uplinks, previous=None, utilization=None):
        assignment = RoutingAssignment()
        elephants = [f for f in flows if f.is_elephant]
        edges = [(f.src_rack, f.dst_rack) for f in elephants]
        colors, delta = edge_color(edges)
        for f, c in zip(elephants, colors):
            assignment.colors[f.key] = c % uplinks if delta > uplinks else c
        cursor: dict[int, int] = defaultdict(int)
        for f in flows:
            if not f.is_elephant:
                assignment.colors[f.key] = cursor[f.src_rack] % uplinks
                cursor[f.src_rack] += 1
        return assignment


class EcmpRouting(RoutingStrategy):
    """Pseudorandom spreading via a stable hash of the flow 5-tuple."""

    name = "ecmp"

    def assign(self, flows, uplinks, previous=None, utilization=None):
        assignment = RoutingAssignment()
        for f in flows:
            assignment.colors[f.key] = stable_hash(f.key) % uplinks
        return assignment


class CruxRouting(RoutingStrategy):
    """Greedy per-flow routing, highest expected GPU utilization first:
    each new flow takes the uplink least loaded at its source and
    destination ToRs. One-shot: a color is fixed when the flow first
    appears and never revisited, so decisions go stale as the mix
    churns."""

    name = "crux"

    def assign(self, flows, uplinks, previous=None, utilization=None):
        utilization = utilization or {}
        assignment = RoutingAssignment()
        up: dict[tuple[int, int], int] = defaultdict(int)
        down: dict[tuple[int, int], int] = defaultdict(int)
        by_job: dict[int, list[FlowDemand]] = defaultdict(list)
        for f in flows:
            by_job[f.job_id].append(f)
        order = sorted(by_job, key=lambda j: (-utilization.get(j, 0.0), j))
        fresh: list[FlowDemand] = []
        for job_id in order:
            for f in by_job[job_id]:
                prev = (previous.colors.get(f.key)
                        if previous is not None else None)
                if prev is not None:
                    assignment.colors[f.key] = prev
                    up[(f.src_rack, prev)] += 1
                    down[(f.dst_rack, prev)] += 1
                else:
                    fresh.append(f)
        for f in fresh:
            best = min(range(uplinks),
                       key=lambda c: (up[(f.src_rack, c)]
                                      + down[(f.dst_rack, c)], c))
            assignment.colors[f.key] = best
            up[(f.src_rack, best)] += 1
            down[(f.dst_rack, best)] += 1
        return assignment


class SglbRouting(RoutingStrategy):
    """Adaptive load balancing: new flows start on their hash uplink and
    a periodic rebalance epoch migrates flows off congested uplinks."""

    name = "sglb"

    def assign(self, flows, uplinks, previous=None, utilization=None):
        assignment = RoutingAssignment()
        for f in flows:
            if previous is not None and f.key in previous.colors:
                assignment.colors[f.key] = previous.colors[f.key]
            else:
                assignment.colors[f.key] = stable_hash(f.key) % uplinks
        return assignment

    def rebalance(self, flows: Sequence[FlowDemand], uplinks: int,
                  assignment: RoutingAssignment) -> bool:
        """One epoch of local search: each elephant moves to the uplink
        pair (source and destination side) with the lowest observed load
        if that strictly improves it; passes repeat until the assignment
        is stable. Returns True if anything moved."""
        src_load: dict[tuple[int, int], int] = defaultdict(int)
        dst_load: dict[tuple[int, int], int] = defaultdict(int)
        elephants = [f for f in flows
                     if f.is_elephant and f.key in assignment.colors]
        for f in elephants:
            c = assignment.colors[f.key]
            src_load[(f.src_rack, c)] += 1
            dst_load[(f.dst_rack, c)] += 1
        ordered = sorted(elephants, key=lambda f: repr(f.key))
        moved = False
        improving = True
        while improving:
            improving = False
            for f in ordered:
                c = assignment.colors[f.key]
                current = (src_load[(f.src_rack, c)]
                           + dst_load[(f.dst_rack, c)])
                best, best_cost = c, current
                for c2 in range(uplinks):
                    if c2 == c:
                        continue
                    cost = (src_load[(f.src_rack, c2)]
                            + dst_load[(f.dst_rack, c2)] + 2)
                    if cost < best_cost:
                        best, best_cost = c2, cost
                if best != c:
                    src_load[(f.src_rack, c)] -= 1
                    dst_load[(f.dst_rack, c)] -= 1
                    src_load[(f.src_rack, best)] += 1
                    dst_load[(f.dst_rack, best)] += 1
                    assignment.colors[f.key] = best
                    moved = improving = True
        return moved


class SprayRouting(RoutingStrategy):
    """Full-bisection packet spraying: every flow is split fluidly over
    all uplinks, modeled as one aggregate uplink per ToR."""

    name = "spray"

    def assign(self, flows, uplinks, previous=None, utilization=None):
        assignment = RoutingAssignment()
        for f in flows:
            assignment.colors[f.key] = SPRAY_COLOR
        return assignment


STRATEGIES = {
    "perfect": PerfectRouting,
    "ecmp": EcmpRouting,
    "crux": CruxRouting,
    "sglb": SglbRouting,
    "spray": SprayRouting,
}


def make_strategy(name: str) -> RoutingStrategy:
    try:
        return STRATEGIES[name]()
    except KeyError:
        raise ValueError(f"unknown routing strategy {name!r}") from None
