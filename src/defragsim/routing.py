"""Uplink selection strategies.

All strategies reduce to picking a color per flow, where color c means
uplink c at the source ToR and uplink c at the destination ToR. A
strategy is a class in ``STRATEGIES``, keyed by its algorithm name; its
``assign(flows, uplinks, previous=None, utilization=None)`` reads
``FlowDemand`` records, the same records the simulator puts on the
wire, and returns the full dict of flow key -> color for the active set.

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
from dataclasses import dataclass
from typing import Sequence

from .topology import SPRAY_COLOR, GpuId


@dataclass(frozen=True)
class FlowDemand:
    """One network transfer: an iteration's ring hop or PP transfer, or a
    migration checkpoint."""
    key: tuple  # stable identity, (job_id, "dp"|"pp", ...) or ("mig", ...)
    job_id: int
    src: GpuId
    dst: GpuId
    size_bytes: float
    kind: str = "dp"  # dp (an elephant) | pp | migration


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


class PerfectRouting:
    """Dedicated uplink per DP flow via bipartite edge coloring; mice
    flows round-robin across uplinks independently of DP colors."""

    def assign(self, flows, uplinks, previous=None, utilization=None):
        assignment = {}
        elephants = [f for f in flows if f.kind == "dp"]
        edges = [(f.src.rack, f.dst.rack) for f in elephants]
        colors, delta = edge_color(edges)
        for f, c in zip(elephants, colors):
            assignment[f.key] = c % uplinks if delta > uplinks else c
        cursor: dict[int, int] = defaultdict(int)
        for f in flows:
            if f.kind != "dp":
                assignment[f.key] = cursor[f.src.rack] % uplinks
                cursor[f.src.rack] += 1
        return assignment


class EcmpRouting:
    """Pseudorandom spreading via a stable hash of the flow 5-tuple."""

    def assign(self, flows, uplinks, previous=None, utilization=None):
        return {f.key: stable_hash(f.key) % uplinks for f in flows}


class CruxRouting:
    """Greedy per-flow routing, highest expected GPU utilization first:
    each new flow takes the uplink least loaded at its source and
    destination ToRs. One-shot: a color is fixed when the flow first
    appears and never revisited, so decisions go stale as the mix
    churns."""

    def assign(self, flows, uplinks, previous=None, utilization=None):
        utilization = utilization or {}
        previous = previous or {}
        assignment = {}
        up: dict[tuple[int, int], int] = defaultdict(int)
        down: dict[tuple[int, int], int] = defaultdict(int)
        by_job: dict[int, list[FlowDemand]] = defaultdict(list)
        for f in flows:
            by_job[f.job_id].append(f)
        order = sorted(by_job, key=lambda j: (-utilization.get(j, 0.0), j))
        fresh: list[FlowDemand] = []
        for job_id in order:
            for f in by_job[job_id]:
                prev = previous.get(f.key)
                if prev is not None:
                    assignment[f.key] = prev
                    up[(f.src.rack, prev)] += 1
                    down[(f.dst.rack, prev)] += 1
                else:
                    fresh.append(f)
        for f in fresh:
            best = min(range(uplinks),
                       key=lambda c: (up[(f.src.rack, c)]
                                      + down[(f.dst.rack, c)], c))
            assignment[f.key] = best
            up[(f.src.rack, best)] += 1
            down[(f.dst.rack, best)] += 1
        return assignment


class SglbRouting:
    """Adaptive load balancing: new flows start on their hash uplink and
    a periodic rebalance epoch migrates flows off congested uplinks."""

    def assign(self, flows, uplinks, previous=None, utilization=None):
        previous = previous or {}
        return {f.key: previous[f.key] if f.key in previous
                else stable_hash(f.key) % uplinks for f in flows}

    def rebalance(self, flows: Sequence[FlowDemand], uplinks: int,
                  colors: dict[tuple, int]) -> bool:
        """One epoch of local search: each elephant moves to the uplink
        pair (source and destination side) with the lowest observed load
        if that strictly improves it; passes repeat until ``colors`` is
        stable. Returns True if anything moved."""
        src_load: dict[tuple[int, int], int] = defaultdict(int)
        dst_load: dict[tuple[int, int], int] = defaultdict(int)
        elephants = [(f.key, f.src.rack, f.dst.rack) for f in flows
                     if f.kind == "dp" and f.key in colors]
        for key, src, dst in elephants:
            c = colors[key]
            src_load[(src, c)] += 1
            dst_load[(dst, c)] += 1
        ordered = sorted(elephants, key=lambda e: repr(e[0]))
        moved = False
        improving = True
        while improving:
            improving = False
            for key, src, dst in ordered:
                c = colors[key]
                current = src_load[(src, c)] + dst_load[(dst, c)]
                best, best_cost = c, current
                for c2 in range(uplinks):
                    if c2 == c:
                        continue
                    cost = src_load[(src, c2)] + dst_load[(dst, c2)] + 2
                    if cost < best_cost:
                        best, best_cost = c2, cost
                if best != c:
                    src_load[(src, c)] -= 1
                    dst_load[(dst, c)] -= 1
                    src_load[(src, best)] += 1
                    dst_load[(dst, best)] += 1
                    colors[key] = best
                    moved = improving = True
        return moved


class SprayRouting:
    """Full-bisection packet spraying: every flow is split fluidly over
    all uplinks, modeled as one aggregate uplink per ToR."""

    def assign(self, flows, uplinks, previous=None, utilization=None):
        return {f.key: SPRAY_COLOR for f in flows}


STRATEGIES = {
    "perfect": PerfectRouting,
    "ecmp": EcmpRouting,
    "crux": CruxRouting,
    "sglb": SglbRouting,
    "spray": SprayRouting,
}

