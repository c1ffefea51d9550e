"""K-way balanced graph partitioning (the in-repo ParMETIS substitute).

The L1 mapping needs a k-way partition of a small weighted graph (about
10x as many subdomains as nodes, Sec. 4.2.1) that (a) balances total node
weight per part and (b) keeps connected subdomains together to cut
boundary traffic. Two algorithms are provided:

* :func:`greedy_partition` — LPT-style: place heaviest-first into the
  lightest part, breaking ties toward parts already adjacent to the
  subdomain (edge-cut awareness);
* :func:`kl_refine` — Kernighan-Lin-flavoured refinement moving single
  vertices when the move reduces a combined imbalance + edge-cut cost.

:func:`partition_graph` composes the two. :func:`block_partition` is the
baseline: contiguous equal-count linear ranges, ignoring weights — the
"No balance" partitioning of OpenMOC used as Fig. 10's baseline.
"""

from __future__ import annotations

import numpy as np
import networkx as nx

from repro.errors import DecompositionError

#: Relative weight given to edge-cut reduction against load imbalance in
#: the refinement objective. Balance dominates (the paper partitions for
#: load first; communication is near-neighbour and cheap by comparison).
EDGE_CUT_FACTOR = 0.05


def _check_parts(num_parts: int, num_nodes: int) -> None:
    if num_parts < 1:
        raise DecompositionError(f"need at least one part (got {num_parts})")
    if num_nodes < num_parts:
        raise DecompositionError(
            f"cannot split {num_nodes} vertices into {num_parts} parts"
        )


def block_partition(graph: nx.Graph, num_parts: int) -> dict[int, int]:
    """Baseline: contiguous equal-count ranges in node order (no weights)."""
    nodes = sorted(graph.nodes)
    _check_parts(num_parts, len(nodes))
    assignment: dict[int, int] = {}
    base = len(nodes) // num_parts
    extra = len(nodes) % num_parts
    cursor = 0
    for part in range(num_parts):
        count = base + (1 if part < extra else 0)
        for node in nodes[cursor : cursor + count]:
            assignment[node] = part
        cursor += count
    return assignment


def greedy_partition(graph: nx.Graph, num_parts: int) -> dict[int, int]:
    """Heaviest-first placement into the lightest (tie: most adjacent) part."""
    nodes = sorted(graph.nodes)
    _check_parts(num_parts, len(nodes))
    weights = {n: float(graph.nodes[n].get("weight", 1.0)) for n in nodes}
    order = sorted(nodes, key=lambda n: (-weights[n], n))
    part_load = np.zeros(num_parts)
    part_count = np.zeros(num_parts, dtype=np.int64)
    assignment: dict[int, int] = {}
    for node in order:
        adjacency = np.zeros(num_parts)
        for nbr in graph.neighbors(node):
            if nbr in assignment:
                adjacency[assignment[nbr]] += float(
                    graph.edges[node, nbr].get("weight", 1.0)
                )
        # Primary: lightest part; secondary: strongest adjacency.
        best = min(
            range(num_parts), key=lambda p: (part_load[p], -adjacency[p], p)
        )
        assignment[node] = best
        part_load[best] += weights[node]
        part_count[best] += 1
    if (part_count == 0).any():
        # Guarantee non-empty parts by stealing from the most populous.
        for part in np.nonzero(part_count == 0)[0]:
            donor = int(part_count.argmax())
            movable = [n for n, p in assignment.items() if p == donor]
            victim = min(movable, key=lambda n: weights[n])
            assignment[victim] = int(part)
            part_count[donor] -= 1
            part_count[part] += 1
            part_load[donor] -= weights[victim]
            part_load[part] += weights[victim]
    return assignment


def kl_refine(
    graph: nx.Graph,
    assignment: dict[int, int],
    num_parts: int,
    max_moves: int | None = None,
) -> dict[int, int]:
    """Kernighan-Lin-flavoured refinement: repeatedly move one vertex from
    the heaviest part to a lighter part when that lowers the combined
    imbalance + edge-cut cost. Incremental bookkeeping keeps each move
    O(vertices-in-heaviest-part + degree), so refinement scales to the
    paper-sized subdomain graphs (tens of thousands of vertices)."""
    assignment = dict(assignment)
    weights = {n: float(graph.nodes[n].get("weight", 1.0)) for n in graph.nodes}
    loads = np.zeros(num_parts)
    counts = np.zeros(num_parts, dtype=np.int64)
    members: list[set[int]] = [set() for _ in range(num_parts)]
    for node, part in assignment.items():
        loads[part] += weights[node]
        counts[part] += 1
        members[part].add(node)

    def cut_delta(node: int, src: int, dst: int) -> float:
        """Edge-cut change if ``node`` moves from src to dst."""
        delta = 0.0
        for nbr in graph.neighbors(node):
            w = float(graph.edges[node, nbr].get("weight", 1.0))
            p = assignment[nbr]
            if p == src:
                delta += w  # becomes cut
            elif p == dst:
                delta -= w  # no longer cut
        return delta

    if max_moves is None:
        max_moves = 4 * graph.number_of_nodes()
    for _ in range(max_moves):
        heavy = int(loads.argmax())
        if counts[heavy] <= 1:
            break
        light = int(loads.argmin())
        if heavy == light:
            break
        gap = loads[heavy] - loads[light]
        best_node = None
        best_score = 0.0
        for node in members[heavy]:
            w = weights[node]
            # Moving w from heavy to light shrinks the gap by 2w as long
            # as it does not overshoot; imbalance gain is min(w, gap - w).
            balance_gain = min(w, gap - w)
            if balance_gain <= 0.0:
                continue
            score = balance_gain - EDGE_CUT_FACTOR * cut_delta(node, heavy, light)
            if score > best_score + 1e-12:
                best_score = score
                best_node = node
        if best_node is None:
            break
        assignment[best_node] = light
        members[heavy].discard(best_node)
        members[light].add(best_node)
        w = weights[best_node]
        loads[heavy] -= w
        loads[light] += w
        counts[heavy] -= 1
        counts[light] += 1
    return assignment


def recursive_bisection(graph: nx.Graph, num_parts: int) -> dict[int, int]:
    """METIS-style recursive bisection.

    The graph is repeatedly split in two weight-balanced halves along a
    spectral-ish ordering (BFS from a peripheral vertex, which keeps the
    halves spatially contiguous on mesh-like subdomain graphs), recursing
    until ``num_parts`` parts exist. Part weights are balanced at every
    split in proportion to how many leaves each side must still produce,
    so non-power-of-two part counts stay balanced too.
    """
    _check_parts(num_parts, graph.number_of_nodes())
    weights = {n: float(graph.nodes[n].get("weight", 1.0)) for n in graph.nodes}
    assignment: dict[int, int] = {}
    next_part = [0]

    def bfs_order(nodes: list[int]) -> list[int]:
        sub = graph.subgraph(nodes)
        remaining = set(nodes)
        order: list[int] = []
        while remaining:
            start = min(remaining)
            queue = [start]
            seen = {start}
            while queue:
                node = queue.pop(0)
                order.append(node)
                remaining.discard(node)
                for nbr in sorted(sub.neighbors(node)):
                    if nbr in remaining and nbr not in seen:
                        seen.add(nbr)
                        queue.append(nbr)
        return order

    def split(nodes: list[int], parts: int) -> None:
        if parts == 1:
            part = next_part[0]
            next_part[0] += 1
            for node in nodes:
                assignment[node] = part
            return
        left_parts = parts // 2
        right_parts = parts - left_parts
        total = sum(weights[n] for n in nodes)
        target_left = total * left_parts / parts
        order = bfs_order(nodes)
        left: list[int] = []
        acc = 0.0
        for node in order:
            # Keep at least one node per side, and at least as many nodes
            # as parts each side must still produce.
            if acc < target_left and len(order) - len(left) > right_parts:
                left.append(node)
                acc += weights[node]
            else:
                break
        while len(left) < left_parts:
            left.append(order[len(left)])
        right = [n for n in order if n not in set(left)]
        split(left, left_parts)
        split(right, right_parts)

    split(sorted(graph.nodes), num_parts)
    return assignment


def partition_graph(
    graph: nx.Graph, num_parts: int, refine: bool = True, method: str = "greedy"
) -> dict[int, int]:
    """Partition with the chosen method, then optionally KL-refine.

    ``method`` is ``"greedy"`` (LPT with adjacency ties, the default) or
    ``"bisection"`` (METIS-style recursive bisection).
    """
    if method == "greedy":
        assignment = greedy_partition(graph, num_parts)
    elif method == "bisection":
        assignment = recursive_bisection(graph, num_parts)
    else:
        raise DecompositionError(f"unknown partition method {method!r}")
    if refine and num_parts > 1:
        assignment = kl_refine(graph, assignment, num_parts)
    return assignment


def partition_loads(
    graph: nx.Graph, assignment: dict[int, int], num_parts: int
) -> np.ndarray:
    """Per-part total vertex weight under an assignment."""
    loads = np.zeros(num_parts)
    for node, part in assignment.items():
        if not (0 <= part < num_parts):
            raise DecompositionError(f"part {part} out of range")
        loads[part] += float(graph.nodes[node].get("weight", 1.0))
    return loads
